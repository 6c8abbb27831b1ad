// Log Volume — the logger-based recovery subsystem of Bagchi et al. [8],
// which the paper's PFS and the PHB event log are built on.
//
// A LogVolume multiplexes multiple *log streams* onto a single append-only
// volume (one "file" / one disk). Per stream (paper §4.2):
//   * append(record) assigns a unique monotonically increasing index,
//   * chop(index) discards all records with index <= the argument,
//   * records are efficiently retrievable by index.
//
// Durability: appends are volatile until a sync() completes. Syncs are
// group-committed — while one disk barrier is in flight, further appends and
// sync requests accumulate and are covered by the next single barrier, which
// is what makes "sync every 200 events" cheap in the PFS microbenchmark.
//
// Persistence is byte-accurate (DESIGN.md §4.4): every append/open/chop is
// written as a CRC32C frame into a segmented Wal, and crash() rebuilds
// every stream *from those bytes* — scan the segments, stop at the first
// torn/corrupt frame, truncate the tail, replay. The SimDisk timing charge
// stays the original logical model (payload + kLogRecordHeaderBytes per
// record), so deterministic schedules are unchanged by the wire format.
//
// The segment bytes are the only copy of a record: a stream keeps just where
// each retained payload lives, and read() fetches it from the backend.
// crash() rolls that index back to what the Wal's surviving bytes decode
// to — exactly what a restart finds.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/disk.hpp"
#include "storage/wal.hpp"
#include "util/assert.hpp"
#include "util/metrics.hpp"

namespace gryphon::storage {

/// Per-record *logical* volume overhead charged to the disk timing model:
/// stream id (4) + index (8) + length (4). The physical wire frame is
/// wire::kFrameHeaderBytes (21); keeping the timing charge separate keeps
/// every pre-existing deterministic schedule identical (DESIGN.md §4.4).
constexpr std::size_t kLogRecordHeaderBytes = 16;

class LogVolume {
 public:
  /// Recovery/garbage instruments, bound by NodeResources so torn-tail
  /// truncations surface as registry *counters* (bench JSON metrics block).
  struct Instruments {
    MetricsRegistry::Counter* recoveries = nullptr;
    MetricsRegistry::Counter* recovery_truncated_bytes = nullptr;
    MetricsRegistry::Counter* torn_tail_recoveries = nullptr;
    Histogram* group_commit_bytes = nullptr;
  };

  explicit LogVolume(Disk& disk, StorageOptions options = {},
                     std::string wal_prefix = "log");
  LogVolume(const LogVolume&) = delete;
  LogVolume& operator=(const LogVolume&) = delete;

  void bind_instruments(const Instruments& instruments) {
    instruments_ = instruments;
  }

  /// Creates (or reopens after recovery) a named stream.
  LogStreamId open_stream(const std::string& name);

  /// An empty payload buffer: the one the last append() emptied (capacity
  /// retained). Encode into it and hand it back via append(): steady-state
  /// appends then never touch the allocator.
  [[nodiscard]] std::vector<std::byte> acquire_buffer() { return std::exchange(spare_, {}); }

  /// Appends a record; returns its index (indices start at 1 and are dense
  /// per stream). Volatile until a subsequent sync() completes.
  LogIndex append(LogStreamId stream, std::vector<std::byte> payload);

  /// Requests durability of everything appended so far (on any stream).
  /// `on_durable` fires once a covering disk barrier completes. Multiple
  /// outstanding requests share barriers (group commit).
  void sync(std::function<void()> on_durable);

  /// Reads a record's payload from the segment bytes. Returns nullopt if
  /// the index was chopped, never existed, or was lost to a crash before
  /// syncing. The bytes are valid until the next call into this LogVolume.
  [[nodiscard]] std::optional<std::span<const std::byte>> read(LogStreamId stream,
                                                               LogIndex index) const;

  /// Discards all records of `stream` with index <= `upto`. Chopping beyond
  /// the end is clamped; chopping frees both volatile and durable space.
  void chop(LogStreamId stream, LogIndex upto);

  /// First retained index (kNoIndex+1 if nothing chopped), one past last.
  [[nodiscard]] LogIndex first_index(LogStreamId stream) const;
  [[nodiscard]] LogIndex next_index(LogStreamId stream) const;

  /// Index of the last *durable* record of the stream (kNoIndex if none).
  [[nodiscard]] LogIndex durable_index(LogStreamId stream) const;

  /// Broker crash: the page cache is gone. The Wal truncates its segments
  /// to the surviving byte prefix (durable, plus a seeded slice of the
  /// in-flight barrier — see set_crash_entropy) and every stream is rebuilt
  /// from the surviving frames alone.
  void crash();

  /// Fresh-process adoption of pre-existing WAL files: rebuilds every stream
  /// from whatever bytes the backend holds, with NO watermark truncation
  /// (this object's in-memory watermarks are all zero — crash() here would
  /// wipe the inherited bytes). The scan still truncates at the first
  /// torn/corrupt frame. This is the real-restart path: a new gryphon_broker
  /// process constructing over a --wal-dir its predecessor wrote.
  void adopt();

  /// Seeds how much of the submitted-but-unacked WAL region the next crash
  /// preserves (0 = durable prefix only). Chaos schedules and the recovery
  /// fuzzer use this to land crash points mid-frame.
  void set_crash_entropy(std::uint64_t entropy) { wal_.set_crash_entropy(entropy); }

  /// Torn sync (SimDisk::drop_unsynced on the underlying disk): the barrier
  /// in flight never completed, but the process is still up — the appends it
  /// covered are dirty again and a fresh barrier is issued, so every pending
  /// sync() waiter still eventually fires. Call right after drop_unsynced().
  void on_torn_sync();

  /// Bytes currently retained in the volume (payload + headers); the
  /// early-release experiments report reclaimed storage from this.
  [[nodiscard]] std::uint64_t retained_bytes() const { return retained_bytes_; }
  [[nodiscard]] std::uint64_t appended_records() const { return appended_records_; }
  [[nodiscard]] std::uint64_t appended_bytes() const { return appended_bytes_; }
  /// Disk barriers issued; appends/barriers is the group-commit batch size.
  [[nodiscard]] std::uint64_t barrier_batches() const { return barrier_batches_; }

  [[nodiscard]] const Wal& wal() const { return wal_; }
  [[nodiscard]] Wal& wal() { return wal_; }

 private:
  struct Stream {
    std::string name;
    LogIndex base = 1;             // index of records.front()
    LogIndex durable = kNoIndex;   // highest durable index
    std::deque<Wal::Location> records;  // where each retained payload lives
  };

  struct SyncWaiter {
    std::uint64_t watermark;  // append sequence the waiter must cover
    std::function<void()> callback;
  };

  class Rebuild;  // Wal::Delegate rebuilding streams_ during crash()/adopt()

  /// Shared body of crash()/adopt(): wipe volatile state, rescan the Wal.
  void rebuild_from_wal(bool adopt);

  Stream& stream(LogStreamId id) {
    GRYPHON_CHECK_MSG(id < streams_.size(), "unknown log stream " << id);
    return streams_[id];
  }
  [[nodiscard]] const Stream& stream(LogStreamId id) const {
    GRYPHON_CHECK_MSG(id < streams_.size(), "unknown log stream " << id);
    return streams_[id];
  }

  void maybe_start_barrier();
  void on_barrier_complete(std::uint64_t watermark,
                           std::vector<std::pair<LogStreamId, LogIndex>> covered);
  /// Ensures streams_ has a slot for `id` named `name` (recovery scan).
  Stream& ensure_stream(LogStreamId id, const std::string& name);
  /// Drops records with index <= upto from the stream's index (no frame).
  void drop_prefix(Stream& s, LogIndex upto);

  Disk& disk_;
  std::unique_ptr<StorageBackend> backend_;
  Wal wal_;
  Instruments instruments_;
  std::vector<Stream> streams_;
  std::unordered_map<std::string, LogStreamId> by_name_;
  std::vector<std::byte> spare_;  // the payload buffer the last append emptied

  std::uint64_t generation_ = 0;     // bumped by crash(); stale barriers drop
  std::uint64_t append_seq_ = 0;     // counts appends, for sync watermarks
  std::uint64_t pending_bytes_ = 0;  // dirty payload bytes not yet under a barrier
  std::uint64_t pending_headers_ = 0;  // appends since the last barrier start:
                                       // their headers are encoded and charged
                                       // in one batch when the barrier begins
  bool barrier_in_flight_ = false;
  std::deque<SyncWaiter> waiters_;

  std::uint64_t retained_bytes_ = 0;
  std::uint64_t appended_records_ = 0;
  std::uint64_t appended_bytes_ = 0;
  std::uint64_t barrier_batches_ = 0;
};

}  // namespace gryphon::storage
