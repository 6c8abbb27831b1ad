// A set of disjoint, closed integer intervals over Tick.
//
// Used wherever the protocols reason about timestamp ranges: outstanding
// nacks (curiosity streams), nack consolidation at intermediate brokers,
// gap bookkeeping at subscribers, the TickMap knowledge ladder, and the
// exactly-once delivery checker.
//
// Stored as a flat sorted vector of runs: the sets are small (a handful of
// runs in steady state — silence and data coalesce) but queried constantly,
// so binary search over contiguous storage beats a node-based map, and the
// common mutation — extending the last run (monotone accumulation) — is
// O(1) with no allocation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <ostream>
#include <vector>

#include "util/assert.hpp"
#include "util/time.hpp"

namespace gryphon {

struct TickRange {
  Tick from;  // inclusive
  Tick to;    // inclusive

  [[nodiscard]] Tick length() const { return to - from + 1; }
  friend bool operator==(const TickRange&, const TickRange&) = default;
  friend std::ostream& operator<<(std::ostream& os, const TickRange& r) {
    return os << '[' << r.from << ',' << r.to << ']';
  }
};

class IntervalSet {
 public:
  IntervalSet() = default;

  /// Inserts [from, to], merging with overlapping/adjacent intervals.
  void add(Tick from, Tick to);
  void add(TickRange r) { add(r.from, r.to); }

  /// Inserts every range and returns the pieces that were not already
  /// covered, in insertion order (nack consolidation: forward only what is
  /// not outstanding yet).
  [[nodiscard]] std::vector<TickRange> add_uncovered(const std::vector<TickRange>& ranges);

  /// Removes [from, to] (splitting intervals as needed).
  void subtract(Tick from, Tick to);
  void subtract(TickRange r) { subtract(r.from, r.to); }

  [[nodiscard]] bool contains(Tick t) const;

  /// The interval containing t, if any.
  [[nodiscard]] std::optional<TickRange> interval_containing(Tick t) const;

  /// True iff [from, to] is entirely covered.
  [[nodiscard]] bool covers(Tick from, Tick to) const;

  /// True iff [from, to] overlaps any interval.
  [[nodiscard]] bool intersects(Tick from, Tick to) const;

  /// The sub-ranges of [from, to] that are covered.
  [[nodiscard]] std::vector<TickRange> intersection(Tick from, Tick to) const;

  /// The sub-ranges of [from, to] that are NOT covered.
  [[nodiscard]] std::vector<TickRange> complement_within(Tick from, Tick to) const;

  [[nodiscard]] bool empty() const { return runs_.empty(); }
  void clear() { runs_.clear(); }

  /// Number of disjoint intervals.
  [[nodiscard]] std::size_t interval_count() const { return runs_.size(); }

  /// Total ticks covered.
  [[nodiscard]] Tick total_length() const;

  /// Smallest / largest covered tick; invalid to call when empty.
  [[nodiscard]] Tick min() const;
  [[nodiscard]] Tick max() const;

  [[nodiscard]] std::vector<TickRange> ranges() const { return runs_; }

  /// Zero-copy view of the runs, ascending and disjoint (hot-path iteration).
  [[nodiscard]] const std::vector<TickRange>& spans() const { return runs_; }

  friend std::ostream& operator<<(std::ostream& os, const IntervalSet& s);

 private:
  /// Index of the first run with run.to >= t (i.e. the run containing or
  /// following t); runs_.size() if none.
  [[nodiscard]] std::size_t first_reaching(Tick t) const {
    return static_cast<std::size_t>(
        std::lower_bound(runs_.begin(), runs_.end(), t,
                         [](const TickRange& r, Tick v) { return r.to < v; }) -
        runs_.begin());
  }

  // Ascending, disjoint, non-adjacent (gap of >= 1 between runs).
  std::vector<TickRange> runs_;
};

inline void IntervalSet::add(Tick from, Tick to) {
  GRYPHON_CHECK_MSG(from <= to, "bad range [" << from << ',' << to << ']');
  // Fast path: append or extend at the tail (monotone accumulation).
  if (runs_.empty() || from > runs_.back().to + 1) {
    runs_.push_back({from, to});
    return;
  }
  if (from >= runs_.back().from) {
    runs_.back().to = std::max(runs_.back().to, to);
    runs_.back().from = std::min(runs_.back().from, from);
    return;
  }
  // General case: merge every run overlapping or adjacent to [from, to].
  const std::size_t lo = first_reaching(from - 1);
  std::size_t hi = lo;  // one past the last run with run.from <= to+1
  Tick nfrom = from;
  Tick nto = to;
  while (hi < runs_.size() && runs_[hi].from <= to + 1) {
    nfrom = std::min(nfrom, runs_[hi].from);
    nto = std::max(nto, runs_[hi].to);
    ++hi;
  }
  if (lo == hi) {
    runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(lo), {nfrom, nto});
  } else {
    runs_[lo] = {nfrom, nto};
    runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                runs_.begin() + static_cast<std::ptrdiff_t>(hi));
  }
}

inline std::vector<TickRange> IntervalSet::add_uncovered(
    const std::vector<TickRange>& ranges) {
  std::vector<TickRange> added;
  for (const TickRange& r : ranges) {
    for (const TickRange& fresh : complement_within(r.from, r.to)) {
      added.push_back(fresh);
      add(fresh);
    }
  }
  return added;
}

inline void IntervalSet::subtract(Tick from, Tick to) {
  GRYPHON_CHECK_MSG(from <= to, "bad range [" << from << ',' << to << ']');
  const std::size_t lo = first_reaching(from);
  std::size_t hi = lo;  // one past the last overlapping run
  while (hi < runs_.size() && runs_[hi].from <= to) ++hi;
  if (lo == hi) return;  // no overlap

  // Remainders of the boundary runs survive the cut.
  TickRange pieces[2];
  std::size_t n = 0;
  if (runs_[lo].from < from) pieces[n++] = {runs_[lo].from, from - 1};
  if (runs_[hi - 1].to > to) pieces[n++] = {to + 1, runs_[hi - 1].to};
  const auto first = runs_.begin() + static_cast<std::ptrdiff_t>(lo);
  if (n == hi - lo) {
    std::copy(pieces, pieces + n, first);
  } else if (n < hi - lo) {
    std::copy(pieces, pieces + n, first);
    runs_.erase(first + static_cast<std::ptrdiff_t>(n),
                runs_.begin() + static_cast<std::ptrdiff_t>(hi));
  } else {  // n == 2, one run split in two
    runs_[lo] = pieces[0];
    runs_.insert(first + 1, pieces[1]);
  }
}

inline bool IntervalSet::contains(Tick t) const {
  const std::size_t i = first_reaching(t);
  return i < runs_.size() && runs_[i].from <= t;
}

inline std::optional<TickRange> IntervalSet::interval_containing(Tick t) const {
  const std::size_t i = first_reaching(t);
  if (i >= runs_.size() || runs_[i].from > t) return std::nullopt;
  return runs_[i];
}

inline bool IntervalSet::covers(Tick from, Tick to) const {
  const std::size_t i = first_reaching(from);
  return i < runs_.size() && runs_[i].from <= from && runs_[i].to >= to;
}

inline bool IntervalSet::intersects(Tick from, Tick to) const {
  const std::size_t i = first_reaching(from);
  return i < runs_.size() && runs_[i].from <= to;
}

inline std::vector<TickRange> IntervalSet::intersection(Tick from, Tick to) const {
  std::vector<TickRange> out;
  for (std::size_t i = first_reaching(from); i < runs_.size() && runs_[i].from <= to;
       ++i) {
    out.push_back({std::max(from, runs_[i].from), std::min(to, runs_[i].to)});
  }
  return out;
}

inline std::vector<TickRange> IntervalSet::complement_within(Tick from, Tick to) const {
  std::vector<TickRange> out;
  Tick cursor = from;
  for (std::size_t i = first_reaching(from); i < runs_.size() && runs_[i].from <= to;
       ++i) {
    const Tick rfrom = std::max(from, runs_[i].from);
    const Tick rto = std::min(to, runs_[i].to);
    if (rfrom > cursor) out.push_back({cursor, rfrom - 1});
    cursor = rto + 1;
  }
  if (cursor <= to) out.push_back({cursor, to});
  return out;
}

inline Tick IntervalSet::total_length() const {
  Tick n = 0;
  for (const TickRange& r : runs_) n += r.length();
  return n;
}

inline Tick IntervalSet::min() const {
  GRYPHON_CHECK(!runs_.empty());
  return runs_.front().from;
}

inline Tick IntervalSet::max() const {
  GRYPHON_CHECK(!runs_.empty());
  return runs_.back().to;
}

inline std::ostream& operator<<(std::ostream& os, const IntervalSet& s) {
  os << '{';
  bool first = true;
  for (const TickRange& r : s.runs_) {
    if (!first) os << ", ";
    os << '[' << r.from << ',' << r.to << ']';
    first = false;
  }
  return os << '}';
}

}  // namespace gryphon
