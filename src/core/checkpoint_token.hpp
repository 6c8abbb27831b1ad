// Checkpoint Token (CT) — a vector clock of (pubend, timestamp) pairs
// (paper §2). CT(s,p) is the latest tick of pubend p that subscriber s has
// consumed (and everything before it). Subscribers persist their CT and
// present it on reconnection as the resumption point.
//
// Stored as a vector of (pubend, tick) sorted by pubend: a token names a
// handful of pubends, and every delivery reads and advances one component,
// so a binary search over a few adjacent pairs beats walking a tree.
#pragma once

#include <algorithm>
#include <ostream>
#include <utility>
#include <vector>

#include "util/byte_buffer.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace gryphon::core {

class CheckpointToken {
 public:
  CheckpointToken() = default;

  using Entry = std::pair<PubendId, Tick>;

  [[nodiscard]] Tick of(PubendId p) const {
    auto it = find(p);
    return it == entries_.end() || it->first != p ? kTickZero : it->second;
  }

  void set(PubendId p, Tick t) {
    auto it = find(p);
    if (it != entries_.end() && it->first == p) {
      it->second = t;
    } else {
      entries_.insert(it, {p, t});
    }
  }

  /// Monotonic update: never moves a component backwards.
  void advance(PubendId p, Tick t) {
    auto it = find(p);
    if (it == entries_.end() || it->first != p) {
      entries_.insert(it, {p, t});
    } else if (t > it->second) {
      it->second = t;
    }
  }

  /// Component-wise max with another token.
  void merge(const CheckpointToken& other) {
    for (const auto& [p, t] : other.entries_) advance(p, t);
  }

  /// (pubend, tick) pairs in ascending pubend order.
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// True iff every component of this token is <= the other's.
  [[nodiscard]] bool dominated_by(const CheckpointToken& other) const {
    for (const auto& [p, t] : entries_) {
      if (t > other.of(p)) return false;
    }
    return true;
  }

  /// W is BufWriter, or ByteCounter for the encoded size.
  template <typename W>
  void serialize(W& w) const {
    w.put_u32(static_cast<std::uint32_t>(entries_.size()));
    for (const auto& [p, t] : entries_) {
      w.put_u32(p.value());
      w.put_i64(t);
    }
  }

  static CheckpointToken deserialize(BufReader& r) {
    CheckpointToken ct;
    const auto n = r.get_u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      const PubendId p{r.get_u32()};
      const Tick t = r.get_i64();
      ct.set(p, t);
    }
    return ct;
  }

  friend std::ostream& operator<<(std::ostream& os, const CheckpointToken& ct) {
    os << '{';
    bool first = true;
    for (const auto& [p, t] : ct.entries_) {
      if (!first) os << ", ";
      os << p << ':' << t;
      first = false;
    }
    return os << '}';
  }

 private:
  /// First entry whose pubend is not below p.
  [[nodiscard]] std::vector<Entry>::iterator find(PubendId p) {
    return std::lower_bound(entries_.begin(), entries_.end(), p,
                            [](const Entry& e, PubendId q) { return e.first < q; });
  }
  [[nodiscard]] std::vector<Entry>::const_iterator find(PubendId p) const {
    return std::lower_bound(entries_.begin(), entries_.end(), p,
                            [](const Entry& e, PubendId q) { return e.first < q; });
  }

  std::vector<Entry> entries_;  // sorted by pubend, one entry per pubend
};

}  // namespace gryphon::core
