// PubendSlots — dense slot numbers for a fixed set of pubend ids.
//
// Per-pubend state that a hot path touches once per event or per delivery
// (an SHB's per-(subscriber, pubend) session entries, its constream state,
// the PFS write position) lives in vectors indexed by slot instead of in
// maps keyed by PubendId. Slots follow ascending id order, so walking a
// slot-indexed vector visits pubends in exactly the order a
// std::map<PubendId, ...> did. Lookup is one bounds check and one load:
// pubend ids are small integers (1..n in every topology), so the id ->
// slot table is indexed by the id itself.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/ids.hpp"

namespace gryphon {

class PubendSlots {
 public:
  static constexpr std::size_t kNone = SIZE_MAX;

  PubendSlots() = default;
  /// Sorts and deduplicates `ids`; slot k names the k-th smallest id.
  explicit PubendSlots(std::vector<PubendId> ids) : ids_(std::move(ids)) {
    std::sort(ids_.begin(), ids_.end());
    ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
    if (ids_.empty()) return;
    index_.assign(static_cast<std::size_t>(ids_.back().value()) + 1, kNoSlot);
    for (std::size_t k = 0; k < ids_.size(); ++k) {
      index_[ids_[k].value()] = static_cast<std::uint32_t>(k);
    }
  }

  [[nodiscard]] std::size_t size() const { return ids_.size(); }
  [[nodiscard]] PubendId id(std::size_t slot) const { return ids_[slot]; }

  /// Slot of `p`, or kNone when `p` is not in the set.
  [[nodiscard]] std::size_t find(PubendId p) const {
    if (p.value() >= index_.size()) return kNone;
    const std::uint32_t k = index_[p.value()];
    return k == kNoSlot ? kNone : k;
  }
  [[nodiscard]] bool contains(PubendId p) const { return find(p) != kNone; }

  /// Slot of `p`, which must be in the set.
  [[nodiscard]] std::size_t at(PubendId p) const {
    const std::size_t k = find(p);
    GRYPHON_CHECK_MSG(k != kNone, "unknown pubend " << p);
    return k;
  }

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  std::vector<PubendId> ids_;
  std::vector<std::uint32_t> index_;  // by id value; kNoSlot when absent
};

}  // namespace gryphon
