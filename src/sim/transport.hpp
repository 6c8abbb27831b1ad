// Transport — the seam between protocol endpoints and the wire.
//
// Both Network implementations (sim/network.hpp) translate every message
// through it exactly once each way: to_wire() inside send() — before
// sim::LinkNetwork's bandwidth model prices it, or before
// net::SocketNetwork writes the frame to the peer's socket — and
// from_wire() inside deliver(), before the endpoint handler runs. The two
// transports:
//
//  * StructTransport (default): pass-through. Messages travel as shared
//    in-memory structs — the simulation fast path.
//  * wire::CodecTransport (src/wire/): every send is encoded into a
//    versioned, CRC32C-framed byte frame (FrameMessage) and every receive is
//    decoded back from those bytes. A frame that fails to decode is counted
//    and dropped, exactly like a lost message.
//
// The contract that keeps struct- and codec-mode runs bit-identical on the
// same seed: to_wire() must preserve wire_size() (a protocol message's
// wire_size() counts what the codec's encoder writes, so the frame has that
// size by construction), and from_wire() must reproduce the message exactly
// (the codec checks a canonical re-encode). Timing then depends only on
// byte counts, which agree.
#pragma once

#include "sim/message.hpp"

namespace gryphon::sim {

using EndpointId = std::uint32_t;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Mode tag for reports and CLI flags ("struct", "codec").
  [[nodiscard]] virtual const char* name() const = 0;

  /// Translates a protocol message into what travels on the from->to link.
  /// Must preserve wire_size() byte for byte. Never returns nullptr.
  [[nodiscard]] virtual MessagePtr to_wire(EndpointId from, EndpointId to,
                                           MessagePtr msg) = 0;

  /// Translates a wire message back into the protocol message the endpoint
  /// handler expects. Returns nullptr to reject (corrupt frame): the Network
  /// counts a decode reject and drops the delivery.
  [[nodiscard]] virtual MessagePtr from_wire(EndpointId from, EndpointId to,
                                             MessagePtr msg) = 0;
};

/// Today's shared-pointer pass-through: the wire carries the struct itself.
class StructTransport final : public Transport {
 public:
  [[nodiscard]] const char* name() const override { return "struct"; }
  [[nodiscard]] MessagePtr to_wire(EndpointId, EndpointId, MessagePtr msg) override {
    return msg;
  }
  [[nodiscard]] MessagePtr from_wire(EndpointId, EndpointId, MessagePtr msg) override {
    return msg;
  }
};

}  // namespace gryphon::sim
