#include "wire/codec_transport.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "wire/codec.hpp"

namespace gryphon::wire {

CodecTransport::CodecTransport(const Options& options)
    : options_(options),
      pool_(std::make_shared<BufferPool>(BufferPool::Options{
          .max_buffers = options.pool_max_buffers,
          .max_retained_bytes = std::max<std::size_t>(options.arena_bytes, 1u << 20),
          .initial_bytes = options.arena_bytes,
      })) {}

sim::MessagePtr CodecTransport::to_wire(sim::EndpointId, sim::EndpointId,
                                        sim::MessagePtr msg) {
  const auto* m = dynamic_cast<const core::Msg*>(msg.get());
  GRYPHON_CHECK_MSG(m != nullptr, "non-protocol message on a codec link");
  const std::size_t need = m->wire_size();

  // Seal-before-grow: a frame is only appended when it provably fits in the
  // arena's remaining reserved capacity, so the buffer never reallocates
  // under the (arena, offset, len) views already handed out. The pre-check
  // is exact because wire_size() counts what this same encoder writes.
  if (open_arena_ == nullptr ||
      open_arena_->buffer().capacity() - open_arena_->buffer().size() < need) {
    std::vector<std::byte> buf = pool_->acquire();
    if (buf.capacity() < need) buf.reserve(need);  // oversized: dedicated arena
    open_arena_ = std::make_shared<sim::FrameArena>(pool_, std::move(buf));
    ++arenas_opened_;
  }

  std::vector<std::byte>& buf = open_arena_->buffer();
  const std::size_t base = buf.size();
  const std::size_t encoded = append_encoded_frame(buf, *m);
  GRYPHON_DCHECK(encoded == need);
  ++frames_encoded_;
  return std::make_shared<sim::FrameMessage>(open_arena_, base, encoded);
}

sim::MessagePtr CodecTransport::from_wire(sim::EndpointId, sim::EndpointId,
                                          sim::MessagePtr msg) {
  // Frames are discriminated by their ownership handle, not by span
  // emptiness: a chaos truncation can shear a frame down to zero bytes and
  // it must still be treated (and rejected) as a frame.
  std::shared_ptr<const void> owner = msg->wire_owner();
  GRYPHON_CHECK_MSG(owner != nullptr, "struct message delivered on a codec link");
  const std::span<const std::byte> bytes = msg->wire_bytes();
  DecodeResult r = decode(bytes, owner, &event_cache_);
  if (r.msg == nullptr) {
    ++frames_rejected_;
    return nullptr;  // corrupt frame: Network counts + drops
  }
  // Canonical-encoding rule: the decoded struct must re-encode to the exact
  // frame that arrived; anything else means sender and receiver disagree
  // about the message, which must never be silent. Sampled 1-in-N (seeded,
  // deterministic) in steady state; every frame when verify_every <= 1.
  if (should_verify()) {
    ++verifies_run_;
    std::vector<std::byte> scratch = pool_->acquire();
    append_encoded_frame(scratch, *r.msg);
    const bool canonical =
        scratch.size() == bytes.size() &&
        std::equal(scratch.begin(), scratch.end(), bytes.begin());
    GRYPHON_CHECK_MSG(canonical, "non-canonical re-encode for kind "
                                     << static_cast<int>(r.msg->kind()));
    pool_->release(std::move(scratch));
  }
  ++frames_decoded_;
  return r.msg;
}

bool CodecTransport::should_verify() {
  if (options_.verify_every <= 1) return true;
  // splitmix64 over (seed, decode ordinal): deterministic for a given seed,
  // uncorrelated with the traffic pattern.
  const std::uint64_t x = splitmix64(options_.verify_seed + kSplitmixGamma * decode_draws_++);
  return x % options_.verify_every == 0;
}

}  // namespace gryphon::wire
