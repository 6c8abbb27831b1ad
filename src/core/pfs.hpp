// Persistent Filtering Subsystem (paper §4.2).
//
// Stores, per pubend, which timestamps matched which durable subscribers, so
// a reconnecting subscriber recovers the *positions* of its missed events
// without refiltering them. One Log Volume stream per pubend; one record per
// timestamp that matched >= 1 subscriber:
//
//   record = { tick range, [(subscriber, prev-index-of-that-subscriber)] }
//
// i.e. the paper's 8 + 16*n bytes for a precise (single-tick) record.
// Timestamps with no matching subscriber write nothing (they are implicitly
// S for everyone) — this cross-subscriber compaction is what makes the PFS
// ~25x cheaper than logging events per subscriber.
//
// PRECISION (paper §4.2): "A precise PFS implementation stores a Q tick for
// subscriber s only if there is an event at that timestamp which matches the
// subscriber. An imprecise implementation may represent some S ticks as Q,
// which does not affect correctness... It can be used to trade off PFS write
// performance with respect to the cost of retrieving and refiltering
// unnecessary events." Setting imprecise_batch > 1 coalesces that many
// matched timestamps into ONE record covering their whole tick range with
// the UNION of their subscriber lists — fewer, denser records; readers see
// coarser Q ranges and refilter the extras. Pending batches are flushed by
// sync(), so a range never spans more than one sync interval.
//
// Reads walk a subscriber's back-pointer chain from lastIndex(s) down to the
// requested start, filling a bounded buffer; S ticks between the returned Q
// ranges are implicit. Metadata (lastTimestamp, lastIndex(s), durable scan
// position) lives in database tables and is re-synchronized on recovery by a
// forward scan of the durable log suffix.
//
// SHARDING (DESIGN.md §4.8): with `shards` > 1 each pubend keeps one log
// stream *per subscriber-id-hash shard* and an append splits its matching
// list into one record per non-empty shard. A subscriber's whole chain —
// records, back-pointers, lastIndex rows — lives in its shard, so reads,
// recovery scans and fan-out accounting touch one shard's state only, and
// no per-subscriber map scales with the full population. Shard 0 keeps the
// unsharded stream name and metadata keys, so `shards == 1` (the default)
// is bit-identical with the pre-sharding layout.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "core/node_resources.hpp"
#include "storage/log_volume.hpp"
#include "util/ids.hpp"
#include "util/interval_set.hpp"
#include "util/pubend_slots.hpp"
#include "util/time.hpp"

namespace gryphon::core {

class PersistentFilteringSubsystem {
 public:
  PersistentFilteringSubsystem(NodeResources& resources, const CostModel& costs,
                               std::size_t shards = 1);

  /// Opens (or reopens) the per-pubend log streams and loads + repairs
  /// metadata from the database (recovery = forward scan of the durable
  /// suffix past the last committed metadata snapshot).
  void open(const std::vector<PubendId>& pubends);

  /// Accepts one filtering fact: `tick` matched exactly `matching` (sorted,
  /// non-empty); `tick` must exceed last_accepted(pubend). A precise PFS
  /// writes one record now; an imprecise one may buffer and coalesce.
  void append(PubendId pubend, Tick tick, const std::vector<SubscriberId>& matching);

  /// Requests durability of all appends so far (flushing any imprecise
  /// batch); on_durable fires when the covering barrier completes.
  void sync(std::function<void()> on_durable);

  /// Latest accepted / record-covered / durable filtering timestamp.
  [[nodiscard]] Tick last_accepted(PubendId pubend) const;
  [[nodiscard]] Tick last_timestamp(PubendId pubend) const;
  [[nodiscard]] Tick durable_timestamp(PubendId pubend) const;

  /// Reads must not claim silence past this point: facts at later ticks may
  /// still be sitting in an unflushed imprecise batch. kTickInfinity when
  /// nothing is buffered.
  [[nodiscard]] Tick read_coverage_limit(PubendId pubend) const;

  struct ReadResult {
    /// Q ranges for the subscriber, ascending, within (from, covered_upto].
    /// Precise mode yields single-tick ranges (exactly the missed events);
    /// imprecise mode yields coarser ranges the caller must refilter.
    std::vector<TickRange> q_ranges;
    /// Knowledge is complete in (complete_from, covered_upto]: every tick
    /// there not covered by q_ranges is S. complete_from > from only when
    /// the walk was cut short by a chopped prefix.
    Tick complete_from = 0;
    Tick covered_upto = 0;
    /// True when the walk reached lastTimestamp (the §5.3 "87% of reads"
    /// statistic); false when the buffer limit truncated the result.
    bool reached_last = false;
    /// Captured at walk time: silence past covered_upto may be inferred only
    /// up to here (an unflushed imprecise batch may hold later facts; a
    /// batch flushing while the disk read is in flight must not be skipped).
    Tick safe_extension_upto = kTickZero;
    std::size_t records_traversed = 0;
    std::size_t bytes_read = 0;
  };

  /// Batch read: Q ranges for `subscriber` in (from, lastTimestamp], capped
  /// at `max_positions` covered ticks (oldest first). Asynchronous: costs
  /// one disk read sized by the records traversed.
  void read(PubendId pubend, SubscriberId subscriber, Tick from,
            std::size_t max_positions, std::function<void(ReadResult)> done);

  /// Discards records entirely at or below `upto` (everything released).
  void chop_upto(PubendId pubend, Tick upto);

  /// Dirty metadata rows for the SHB's periodic database commit. Only
  /// durable (synced) state is ever exposed here, so recovery never sees a
  /// metadata snapshot pointing past the durable log.
  [[nodiscard]] std::vector<storage::Database::Put> dirty_metadata();

  // --- statistics (microbenchmark / Fig. 8 analysis) ---
  [[nodiscard]] std::uint64_t records_written() const { return records_written_; }
  [[nodiscard]] std::uint64_t payload_bytes_written() const { return bytes_written_; }
  [[nodiscard]] std::uint64_t reads_issued() const { return reads_; }
  [[nodiscard]] std::uint64_t reads_reached_last() const { return reads_reached_last_; }

  /// Paper §4.2 accounting constants: a single-tick record is charged
  /// kRecordFixedBytes + kPerSubscriberBytes·n ("8 + 16·n bytes per matched
  /// timestamp"); an imprecise record pays kRangeRecordFixedBytes for its
  /// two timestamps. The wire encoding must fit these budgets — static-
  /// asserted next to encode() in pfs.cpp, unit-tested in test_pfs.cpp —
  /// so format drift fails the build, not the Fig. 8 byte counts.
  static constexpr std::size_t kRecordFixedBytes = 8;        // one timestamp
  static constexpr std::size_t kRangeRecordFixedBytes = 16;  // two timestamps
  static constexpr std::size_t kPerSubscriberBytes = 16;     // id + back-pointer

  /// Per-record byte size as the paper counts it (single-tick record).
  static constexpr std::size_t record_bytes(std::size_t n_subscribers) {
    return kRecordFixedBytes + kPerSubscriberBytes * n_subscribers;
  }
  /// Imprecise records carry a range (two timestamps).
  static constexpr std::size_t range_record_bytes(std::size_t n_subscribers,
                                                  bool ranged) {
    return (ranged ? kRangeRecordFixedBytes : kRecordFixedBytes) +
           kPerSubscriberBytes * n_subscribers;
  }

  [[nodiscard]] std::size_t shards() const { return shards_; }

 private:
  /// Per-(pubend, shard) log stream + chain state: everything keyed by a
  /// subscriber lives here, in the shard its id hashes to.
  struct Shard {
    storage::LogStreamId stream = 0;
    Tick last_timestamp = kTickZero;  // newest tick covered by a record here
    Tick chopped_upto = kTickZero;    // everything at or below was chopped
    std::unordered_map<SubscriberId, storage::LogIndex> last_index;
    // Durable snapshot (advanced at sync completion) + DB dirty tracking.
    Tick durable_timestamp = kTickZero;
    storage::LogIndex durable_scan_index = storage::kNoIndex;
    std::unordered_map<SubscriberId, storage::LogIndex> durable_last_index;
    bool meta_dirty = false;
  };

  struct PerPubend {
    PubendId id{};
    Tick last_accepted = kTickZero;   // newest fact handed to append()
    Tick last_timestamp = kTickZero;  // max over shards
    Tick durable_timestamp = kTickZero;
    std::vector<Shard> shards;
    // Imprecise write batch (empty in precise mode), pubend-level: a flush
    // emits one record per shard with members in that shard.
    Tick batch_first = kTickZero;
    Tick batch_last = kTickZero;
    std::size_t batch_count = 0;
    /// Every batched tick's matching list, concatenated; sorted and
    /// deduplicated into the union when the batch flushes.
    std::vector<SubscriberId> batch_members;
  };

  struct Record {
    TickRange range{0, 0};
    std::vector<std::pair<SubscriberId, storage::LogIndex>> entries;
  };

  /// `reuse` (optional) is an empty buffer whose capacity is recycled.
  [[nodiscard]] static std::vector<std::byte> encode(const Record& r,
                                                     std::vector<std::byte> reuse = {});
  [[nodiscard]] static Record decode(const std::vector<std::byte>& bytes);

  void flush_batch(PerPubend& state);
  void write_record(PerPubend& state, Shard& shard, TickRange range,
                    const std::vector<SubscriberId>& matching);
  /// Splits `matching` by shard into split_scratch_ and writes one record
  /// per non-empty shard (the single-shard path bypasses the split).
  void write_sharded(PerPubend& state, TickRange range,
                     const std::vector<SubscriberId>& matching);

  PerPubend& per(PubendId p) { return pubends_[slots_.at(p)]; }
  [[nodiscard]] const PerPubend& per(PubendId p) const { return pubends_[slots_.at(p)]; }

  NodeResources& res_;
  const CostModel& costs_;
  std::size_t shards_;
  PubendSlots slots_;               // the opened pubends, ascending id order
  std::vector<PerPubend> pubends_;  // by slot
  std::vector<std::vector<SubscriberId>> split_scratch_;

  std::uint64_t records_written_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t reads_reached_last_ = 0;

  // Registry slots (cumulative per node; resolved once in the constructor).
  MetricsRegistry::Counter* m_records_written_;
  MetricsRegistry::Counter* m_bytes_written_;
  MetricsRegistry::Counter* m_reads_;
};

}  // namespace gryphon::core
