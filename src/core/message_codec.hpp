// The payload codec of every protocol message: the one description of each
// MsgKind's payload bytes. The encoder is a template over its writer: over a
// BufWriter it writes the payload a wire frame carries (wire/codec.hpp adds
// the frame); over a ByteCounter it yields the exact size Msg::wire_size()
// charges. Adding a field means editing the encoder and the decoder here.
#pragma once

#include <memory>
#include <span>

#include "core/event_codec.hpp"
#include "core/messages.hpp"
#include "util/byte_buffer.hpp"

namespace gryphon::core {

/// Appends `msg`'s payload (no frame header) to `w`.
void encode_payload(BufWriter& w, const Msg& msg);

struct PayloadDecode {
  std::shared_ptr<const Msg> msg;  // null => rejected
  const char* reason = nullptr;    // set when rejected
};

/// Decodes a payload of kind `kind` spanning all of `payload`. Never throws:
/// a truncated field, trailing bytes or a non-canonical value (a bool byte
/// other than 0/1, unknown flag bits, a bad knowledge tag) is a reject.
/// `owner` (optional) enables zero-copy event payloads and `cache`
/// (optional) shares repeated events, both as for decode_event_data().
[[nodiscard]] PayloadDecode decode_payload(MsgKind kind,
                                           std::span<const std::byte> payload,
                                           const std::shared_ptr<const void>& owner,
                                           EventDecodeCache* cache = nullptr);

}  // namespace gryphon::core
