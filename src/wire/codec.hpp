// encode()/decode() between core::Msg protocol structs and wire frames.
//
// Framing glue only: payload bytes come from core/message_codec.hpp, whose
// encoder msg.wire_size() counts, so a frame is always msg.wire_size() bytes.
// One canonical encoding per message: encode(decode(bytes)) == bytes for
// every frame decode accepts.
//
// decode() never throws. A torn or corrupt frame — or a structurally
// invalid payload behind a valid CRC (encoder version skew) — yields
// consumed == 0, msg == nullptr and a reason, exactly like
// storage/segment.*'s parse contract.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/messages.hpp"
#include "wire/frame.hpp"

namespace gryphon::wire {

// The envelope constant wire_size() charges IS the frame header.
static_assert(kFrameHeaderBytes == core::kEnvelopeBytes,
              "wire frame header must equal the envelope size wire_size() charges");

/// Encodes `msg` into a complete frame (header + payload). The result's
/// size equals msg.wire_size() for every message kind.
[[nodiscard]] std::vector<std::byte> encode(const core::Msg& msg);

/// Pooled/arena variant: appends the complete frame for `msg` directly to
/// `out` (no staging buffer, no copy) and returns the frame's byte count —
/// always exactly msg.wire_size(). Many frames coalesce back-to-back in one
/// buffer this way; encode() above is this over a fresh vector.
std::size_t append_encoded_frame(std::vector<std::byte>& out, const core::Msg& msg);

struct DecodeResult {
  std::size_t consumed = 0;  // 0 => rejected
  std::shared_ptr<const core::Msg> msg;
  const char* reason = nullptr;  // set when rejected
};

/// Decodes exactly one frame spanning all of `bytes` (trailing bytes are a
/// reject: the network delivers whole frames).
///
/// `owner` (optional) enables zero-copy decode: when non-null, the decoded
/// message's event payload fields are views into `bytes`, pinned by `owner`
/// (the frame's arena — FrameMessage::wire_owner()). The decoded message
/// then stays valid however long it outlives the frame. Callers whose
/// buffer dies independently of any ownership handle must pass null.
[[nodiscard]] DecodeResult decode(std::span<const std::byte> bytes,
                                  std::shared_ptr<const void> owner = nullptr);

}  // namespace gryphon::wire
