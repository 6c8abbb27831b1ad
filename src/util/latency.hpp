// LatencyRecorder — folds sampled TraceMilestone transitions into per-stage
// delivery-latency histograms.
//
// The broker pipeline the paper's figures reason about is staged: a publish
// is persisted at the PHB, matched at an SHB, logged to the PFS, delivered,
// and acked. The tracer already records those milestones per (pubend, tick);
// this recorder consumes them through the TraceSink seam and pairs
// consecutive milestones into stage latencies:
//
//   publish -> persist -> match -> pfs-log -> deliver -> ack
//
// plus end-to-end (publish -> first delivery) and the catchup admission-
// queue wait (kCatchupQueued -> kCatchupAdmitted, paired per subscriber).
//
// Clock-source seam: the recorder never reads a clock. It consumes the
// timestamps already stamped on the records by whoever produced them — the
// simulator's SimTime today, a wall-clock event loop's microsecond stamps
// tomorrow — and converts raw timestamp units into histogram milliseconds
// through Options::time_to_ms. Nothing else in the recorder assumes a time
// source, so the same object works unchanged on either loop.
//
// Pairing rules (the edge cases tests/test_observability.cpp pins down):
//  * Each stage latches once per (pubend, tick): the FIRST matching
//    transition feeds the histogram, duplicates (multiple SHBs matching the
//    same tick, a recovery re-persist) are ignored.
//  * A transition whose key was never opened by a kPublish — or was already
//    retired — counts as an orphan, not a sample.
//  * Range milestones (kPfsLog, kAck, kGap, kReleaseToL) apply to every open
//    key inside [tick, tick2] for that pubend.
//  * kGap retires a key without an end-to-end sample (the event was
//    gap-notified, not delivered); kReleaseToL retires it too (storage is
//    gone, no further milestones can be trusted).
//  * Sampling bias: the tracer hands over a deterministic 1-in-N tick
//    subset, so every histogram is over the sample, not the population.
//
// Determinism: all state lives in ordered maps and fixed histograms; same
// record stream => bit-identical buckets.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.hpp"
#include "util/trace.hpp"

namespace gryphon {

class JsonWriter;

enum class LatencyStage : std::uint8_t {
  kPublishToPersist = 0,
  kPersistToMatch,
  kMatchToPfsLog,
  kPfsLogToDeliver,
  kDeliverToAck,
  kEndToEnd,     // publish -> first delivery
  kCatchupWait,  // kCatchupQueued -> kCatchupAdmitted, per subscriber
};
constexpr std::size_t kNumLatencyStages = 7;

/// Snake-case stage name ("publish_to_persist", ...), stable across runs:
/// it keys the JSON output and the bench latency blocks.
[[nodiscard]] const char* latency_stage_name(LatencyStage s);

class LatencyRecorder final : public TraceSink {
 public:
  struct Options {
    /// Raw record-timestamp units -> histogram milliseconds. SimTime is
    /// microseconds, so the default is 1e-3; a wall-clock loop stamping
    /// nanoseconds would pass 1e-6. This is the whole clock-source seam.
    double time_to_ms = 1e-3;
    /// Bound on concurrently open (pubend, tick) keys; the oldest key is
    /// evicted (and counted in dropped_keys()) when a publish would exceed
    /// it, so an ack-less workload cannot grow the recorder unboundedly.
    std::size_t max_open_keys = 1 << 16;
    /// Bound on outstanding catchup-queue waits, same eviction rule.
    std::size_t max_open_waits = 1 << 16;
    /// Histogram range in milliseconds (log-spaced buckets).
    double hist_min_ms = 0.01;
    double hist_max_ms = 1e7;
    int buckets_per_decade = 10;
  };

  LatencyRecorder();  // default Options
  explicit LatencyRecorder(Options options);

  void on_trace(std::uint32_t node_id, const TraceRecord& rec) override;

  [[nodiscard]] const Histogram& stage(LatencyStage s) const {
    return stages_[static_cast<std::size_t>(s)];
  }
  /// Transitions that arrived for a key never opened / already retired.
  [[nodiscard]] std::uint64_t orphan_transitions() const { return orphans_; }
  /// Keys evicted by the max_open_keys / max_open_waits bounds.
  [[nodiscard]] std::uint64_t dropped_keys() const { return dropped_; }
  /// Keys retired by a gap notification instead of a delivery.
  [[nodiscard]] std::uint64_t gap_terminated_keys() const { return gap_terminated_; }
  [[nodiscard]] std::size_t open_key_count() const { return open_.size(); }
  [[nodiscard]] std::size_t open_wait_count() const { return waits_.size(); }

  /// Writes the recorder as a JSON object: a "stages" map of
  /// {count, p50, p90, p99, p999} per stage (milliseconds) plus the
  /// bookkeeping counters.
  void append_json(JsonWriter& w) const;

  void clear();

 private:
  struct OpenKey {
    SimTime publish = -1;
    SimTime persist = -1;
    SimTime match = -1;
    SimTime pfs_log = -1;
    SimTime deliver = -1;
    bool acked = false;
  };
  using Key = std::pair<std::int64_t, Tick>;      // (pubend, tick)
  using WaitKey = std::pair<std::uint32_t, std::int64_t>;  // (subscriber, pubend)

  void add_sample(LatencyStage s, SimTime from, SimTime to) {
    stages_[static_cast<std::size_t>(s)].add(
        static_cast<double>(to - from) * options_.time_to_ms);
  }
  /// Applies `fn` to every open key of `pubend` inside [from, to].
  template <typename Fn>
  void for_range(std::int64_t pubend, Tick from, Tick to, Fn&& fn);

  Options options_;
  std::vector<Histogram> stages_;
  // Ordered maps: range milestones become lower_bound scans, and iteration
  // order (hence eviction and histogram feed order) is deterministic.
  std::map<Key, OpenKey> open_;
  std::map<WaitKey, SimTime> waits_;
  std::uint64_t orphans_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t gap_terminated_ = 0;
};

}  // namespace gryphon
