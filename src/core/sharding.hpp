// Subscriber-id hash sharding, shared by the PFS log streams and the SHB
// session table (DESIGN.md §4.8).
//
// Both subsystems must agree on the mapping: a subscriber's PFS records,
// back-pointer chain, durable metadata rows and session state all live in
// the shard this function names, so per-shard work (catchup admission,
// retention minima, record fan-out) never consults another shard. The hash
// is a full-avalanche mix (splitmix64) rather than `id % shards` so the
// sequential id blocks the harness allocates spread evenly.
//
// One shard is the configured default and is special: the mapping is the
// constant 0 and every on-disk name/key collapses to the unsharded spelling,
// keeping single-shard deployments bit-identical with the pre-sharding
// layout (and its WALs recoverable either way).
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/ids.hpp"
#include "util/rng.hpp"

namespace gryphon::core {

[[nodiscard]] constexpr std::size_t subscriber_shard(SubscriberId s,
                                                     std::size_t shards) {
  if (shards <= 1) return 0;
  return static_cast<std::size_t>(splitmix64(s.value()) % shards);
}

}  // namespace gryphon::core
