#include "net/frame_stream.hpp"

#include <cstring>

#include "wire/frame.hpp"

namespace gryphon::net {

namespace {

std::uint64_t read_u64le(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;  // little-endian hosts only, same as the codec itself
}

std::uint32_t read_u32le(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

void FrameReassembler::feed(std::span<const std::byte> bytes) {
  compact();
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void FrameReassembler::compact() {
  // Drop the consumed prefix once it dominates the buffer; amortized O(1)
  // per byte, and the buffer's capacity is reused across frames.
  if (head_ >= 4096 && head_ * 2 >= buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void FrameReassembler::resync() {
  // Scan for the next magic strictly past the current position. A sliding
  // byte-at-a-time window is fine here: resync only runs on corruption,
  // never on the clean-stream fast path.
  const std::uint64_t magic = wire::kFrameMagic;
  std::size_t pos = head_ + 1;
  while (pos + sizeof magic <= buf_.size()) {
    if (read_u64le(buf_.data() + pos) == magic) {
      head_ = pos;
      return;
    }
    ++pos;
  }
  // No magic found: keep the last 7 bytes (a magic may straddle the next
  // feed), consume the rest of the garbage.
  if (buf_.size() > 7 && buf_.size() - 7 > head_) head_ = buf_.size() - 7;
}

std::shared_ptr<const sim::FrameMessage> FrameReassembler::next() {
  while (true) {
    if (buffered() < wire::kFrameHeaderBytes) return nullptr;
    const std::byte* p = buf_.data() + head_;
    if (read_u64le(p) != wire::kFrameMagic) {
      // Mid-stream garbage (e.g. the tail of a truncated frame). One reject
      // per contiguous run, however many bytes it takes to resync.
      if (!in_garbage_run_) {
        ++rejects_;
        in_garbage_run_ = true;
      }
      resync();
      continue;
    }
    const std::uint32_t len = read_u32le(p + 12);
    if (len > wire::kMaxFramePayloadBytes) {
      // A corrupt length prefix could stall the stream forever waiting for
      // bytes that never come; bound it, count it, rescan.
      ++rejects_;
      in_garbage_run_ = true;
      resync();
      continue;
    }
    const std::size_t total = wire::kFrameHeaderBytes + len;
    if (buffered() < total) {
      // An incomplete frame with a plausible header: await the rest. This is
      // the normal mid-frame TCP boundary, not corruption.
      return nullptr;
    }
    const wire::FrameParse parse = wire::parse_frame({p, total});
    if (parse.consumed == 0) {
      // Complete but corrupt (CRC / version / kind): counted, then the
      // stream resyncs at the next magic. The corrupt frame's own length
      // field is not trusted for the skip — it may be the corrupt byte.
      ++rejects_;
      in_garbage_run_ = true;
      resync();
      continue;
    }
    in_garbage_run_ = false;
    std::vector<std::byte> copy(p, p + total);
    head_ += total;
    compact();
    ++frames_;
    return std::make_shared<sim::FrameMessage>(std::move(copy));
  }
}

}  // namespace gryphon::net
