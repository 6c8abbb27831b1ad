#include "wire/codec.hpp"

#include "core/message_codec.hpp"
#include "util/byte_buffer.hpp"

namespace gryphon::wire {

std::size_t append_encoded_frame(std::vector<std::byte>& out, const core::Msg& msg) {
  const std::size_t base = begin_frame(out);
  // Move the vector through an appending writer so the payload lands
  // directly behind the header — no staging buffer, no copy-out.
  BufWriter w = BufWriter::appending(std::move(out));
  core::encode_payload(w, msg);
  out = w.take();
  finish_frame(out, base, static_cast<std::uint8_t>(msg.kind()));
  return out.size() - base;
}

std::vector<std::byte> encode(const core::Msg& msg) {
  std::vector<std::byte> out;
  out.reserve(msg.wire_size());
  append_encoded_frame(out, msg);
  return out;
}

DecodeResult decode(std::span<const std::byte> bytes,
                    std::shared_ptr<const void> owner, core::EventDecodeCache* cache) {
  DecodeResult res;
  const FrameParse fp = parse_frame(bytes);
  if (fp.consumed == 0) {
    res.reason = fp.reason;
    return res;
  }
  if (fp.consumed != bytes.size()) {
    res.reason = "trailing bytes after frame";
    return res;
  }
  core::PayloadDecode p =
      core::decode_payload(static_cast<core::MsgKind>(fp.kind), fp.payload, owner, cache);
  if (p.msg == nullptr) {
    res.reason = p.reason;
    return res;
  }
  res.msg = std::move(p.msg);
  res.consumed = fp.consumed;
  return res;
}

}  // namespace gryphon::wire
