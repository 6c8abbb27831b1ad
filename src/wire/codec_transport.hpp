// CodecTransport — the byte-accurate Transport: every send is encoded into
// a CRC32C-framed byte frame and every delivery is decoded back.
//
// The encode path is pooled and coalescing: consecutive sends append their
// frames back-to-back into one shared FrameArena (a recycled buffer from a
// bounded BufferPool), and each send returns an (arena, offset, len)
// FrameMessage view. The arena's capacity is checked against the message's
// wire_size() *before* encoding, and the arena is sealed (a fresh one
// acquired) when the frame would not fit — so the buffer never reallocates
// under live views. wire_size() counts what the payload encoder writes
// (core/message_codec.hpp), so the pre-check is exact by construction.
// The decode path is zero-copy: event payload fields of the decoded message
// are views into the frame, pinned by the arena's shared ownership handle.
// It also remembers the last decoded event (core::EventDecodeCache): the
// frames of one fan-out carry identical event bytes and share one EventData.
//
// Honesty check (GRYPHON_CHECK — a failure is a bug, not a tolerable
// fault): canonical re-encode at receive, SAMPLED. Re-encoding the decoded
// message must reproduce the frame bit-for-bit. Running it on every message
// roughly doubles decode cost, so steady state verifies a seeded,
// deterministic 1-in-N sample (Options::verify_every, default 64).
// verify_every <= 1 means every message — tests and the chaos ASan leg run
// that way (--wire-verify=always).
//
// A frame that fails to decode (chaos byte flips / truncations) is not a
// bug: from_wire() returns nullptr and the Network counts a decode reject
// and drops the delivery, which the protocols must survive like any lost
// message.
#pragma once

#include <cstdint>

#include "core/event_codec.hpp"
#include "sim/transport.hpp"
#include "util/buffer_pool.hpp"

namespace gryphon::wire {

class CodecTransport final : public sim::Transport {
 public:
  struct Options {
    /// Arena capacity: how many frame bytes coalesce into one pooled buffer
    /// before it seals. A message larger than this gets a dedicated arena.
    std::size_t arena_bytes = 64 * 1024;
    /// Bound on recycled arena/scratch buffers (see util/buffer_pool.hpp).
    std::size_t pool_max_buffers = 8;
    /// Canonical re-encode check cadence: verify ~1 in N decoded frames.
    /// <= 1 verifies every frame (the tests' and chaos legs' setting).
    std::uint32_t verify_every = 64;
    /// Seed for the deterministic verification sample.
    std::uint64_t verify_seed = 1;
  };

  CodecTransport() : CodecTransport(Options{}) {}
  explicit CodecTransport(const Options& options);

  [[nodiscard]] const char* name() const override { return "codec"; }

  [[nodiscard]] sim::MessagePtr to_wire(sim::EndpointId from, sim::EndpointId to,
                                        sim::MessagePtr msg) override;
  [[nodiscard]] sim::MessagePtr from_wire(sim::EndpointId from, sim::EndpointId to,
                                          sim::MessagePtr msg) override;

  /// Codec-tax accounting (the wallclock bench and the net.frames_* probes).
  [[nodiscard]] std::uint64_t frames_encoded() const { return frames_encoded_; }
  [[nodiscard]] std::uint64_t frames_decoded() const { return frames_decoded_; }
  [[nodiscard]] std::uint64_t frames_rejected() const { return frames_rejected_; }
  /// Arenas opened so far; frames_encoded() >> arenas_opened() is the
  /// coalescing working.
  [[nodiscard]] std::uint64_t arenas_opened() const { return arenas_opened_; }
  /// Canonical re-encode checks actually run (= frames_decoded() when
  /// verify_every <= 1).
  [[nodiscard]] std::uint64_t verifies_run() const { return verifies_run_; }
  [[nodiscard]] const BufferPool& pool() const { return *pool_; }

 private:
  [[nodiscard]] bool should_verify();

  Options options_;
  BufferPoolPtr pool_;  // shared: in-flight arenas outlive the transport
  std::shared_ptr<sim::FrameArena> open_arena_;
  std::uint64_t frames_encoded_ = 0;
  std::uint64_t frames_decoded_ = 0;
  std::uint64_t frames_rejected_ = 0;
  std::uint64_t arenas_opened_ = 0;
  std::uint64_t verifies_run_ = 0;
  std::uint64_t decode_draws_ = 0;
  core::EventDecodeCache event_cache_;  // fan-out frames share one event
};

}  // namespace gryphon::wire
