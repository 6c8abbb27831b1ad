// Database tables with transactional, batched commits (DB2 stand-in).
//
// The SHB keeps latestDelivered(p), released(s,p), PFS metadata and (for the
// JMS layer) subscriber checkpoint tokens "in database tables" (paper §4.1,
// §5.2). What the experiments depend on is the *commit* behaviour:
//
//  * a transaction's puts become visible to recovery only after its commit
//    barrier completes on disk,
//  * transactions issued on one connection commit serially,
//  * a connection batches all transactions waiting on it into a single
//    commit (the explicit batching the paper uses to reach 7.6K ev/s with
//    200 JMS auto-ack subscribers over 4 JDBC connections),
//  * commit cost is dominated by the disk barrier — with a battery-backed
//    write cache (their SSA controller) the barrier is cheap.
//
// Persistence is byte-accurate (DESIGN.md §4.4): every commit batch is one
// CRC32C-framed WAL record written at barrier-issue time, and crash()
// rebuilds the tables by replaying the surviving frames (snapshot frame
// first if one survived, then the batches after it). The WAL is compacted
// by writing a full-table snapshot frame once it outgrows
// StorageOptions::db_compact_bytes — only while no other connection has a
// commit in flight, so no unapplied batch can precede the snapshot. The
// SimDisk timing charge stays the original logical txn_bytes model.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "storage/disk.hpp"
#include "storage/wal.hpp"
#include "util/assert.hpp"
#include "util/metrics.hpp"

namespace gryphon::storage {

class Database {
 public:
  struct Put {
    std::string table;
    std::string key;
    std::vector<std::byte> value;  // empty value deletes the row
  };

  /// Recovery instruments (shared counter slots with the LogVolume's, so
  /// wal.* totals cover both WALs of a node).
  struct Instruments {
    MetricsRegistry::Counter* recoveries = nullptr;
    MetricsRegistry::Counter* recovery_truncated_bytes = nullptr;
    MetricsRegistry::Counter* torn_tail_recoveries = nullptr;
  };

  /// `connections` models the pool of JDBC connections, each with its own
  /// serial commit thread.
  Database(Disk& disk, int connections = 1, StorageOptions options = {},
           std::string wal_prefix = "db");

  void bind_instruments(const Instruments& instruments) {
    instruments_ = instruments;
  }

  /// Per-transaction engine work (row update + log-record path), charged as
  /// device occupancy shared across connections — batching transactions
  /// into one barrier amortizes the barrier, not this. Default zero.
  void set_per_txn_overhead(SimDuration d) {
    GRYPHON_CHECK(d >= 0);
    per_txn_overhead_ = d;
  }
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Queues a transaction on a connection. `on_committed` (optional) fires
  /// when its covering commit barrier completes.
  void commit(int connection, std::vector<Put> puts,
              std::function<void()> on_committed = nullptr);

  /// Committed (crash-surviving) value of a row, or nullopt.
  [[nodiscard]] std::optional<std::vector<std::byte>> get(
      const std::string& table, const std::string& key) const;

  /// All committed rows of a table, in key order (recovery scans).
  [[nodiscard]] std::vector<std::pair<std::string, std::vector<std::byte>>>
  scan(const std::string& table) const;

  /// Committed rows whose key starts with `prefix`, in key order: an
  /// ordered-index range scan (lower_bound seek + forward walk), so a
  /// recovery that only needs one (pubend, shard)'s rows never pays for the
  /// whole table. Use a terminated prefix (e.g. "7:") so "7" does not also
  /// capture "70:...".
  [[nodiscard]] std::vector<std::pair<std::string, std::vector<std::byte>>>
  scan_prefix(const std::string& table, const std::string& prefix) const;

  /// Broker crash: queued and in-flight transactions are lost; the tables
  /// are wiped and rebuilt from the WAL's surviving bytes.
  void crash();

  /// Fresh-process adoption of pre-existing WAL files: rebuilds the tables
  /// from whatever bytes the backend holds, with no watermark truncation
  /// (see LogVolume::adopt).
  void adopt();

  /// Seeds the surviving slice of the in-flight commit barrier for the next
  /// crash (see LogVolume::set_crash_entropy).
  void set_crash_entropy(std::uint64_t entropy) { wal_.set_crash_entropy(entropy); }

  /// Torn sync (SimDisk::drop_unsynced on the underlying disk): the commit
  /// barrier in flight was lost, but the process is still up — the batch is
  /// pushed back to the front of its connection's queue and re-committed,
  /// like a WAL write error being retried. Call right after drop_unsynced().
  void on_torn_sync();

  [[nodiscard]] int connections() const { return static_cast<int>(conns_.size()); }
  [[nodiscard]] std::uint64_t committed_transactions() const { return committed_txns_; }
  [[nodiscard]] std::uint64_t commit_barriers() const { return barriers_; }
  [[nodiscard]] std::uint64_t snapshot_compactions() const { return compactions_; }

  [[nodiscard]] const Wal& wal() const { return wal_; }
  [[nodiscard]] Wal& wal() { return wal_; }

 private:
  struct Txn {
    std::vector<Put> puts;
    std::function<void()> on_committed;
  };

  struct Connection {
    std::deque<Txn> queue;
    std::vector<Txn> inflight;  // the batch under the in-flight barrier
    bool busy = false;
  };

  class Rebuild;  // Wal::Delegate rebuilding tables_ during crash()/adopt()

  /// Shared body of crash()/adopt(): wipe volatile state, rescan the Wal.
  void rebuild_from_wal(bool adopt);

  void maybe_start_commit(int connection);
  /// Writes a full-table kDbSnapshot frame when the WAL outgrew its budget
  /// and no other connection's batch is in flight. Returns the first
  /// segment seq to keep once the snapshot is durable, or 0.
  std::uint64_t maybe_write_snapshot(int connection);
  void apply_puts(std::vector<Put>& puts);

  /// Estimated on-disk size of a transaction (row images + per-txn log
  /// overhead), fed to the disk model.
  static std::size_t txn_bytes(const Txn& txn);

  Disk& disk_;
  StorageOptions options_;
  std::unique_ptr<StorageBackend> backend_;
  Wal wal_;
  Instruments instruments_;
  SimDuration per_txn_overhead_ = 0;
  std::vector<Connection> conns_;
  std::map<std::string, std::map<std::string, std::vector<std::byte>>> tables_;
  std::uint64_t generation_ = 0;
  std::uint64_t committed_txns_ = 0;
  std::uint64_t barriers_ = 0;
  std::uint64_t batch_seq_ = 0;
  std::uint64_t snapshot_seq_ = 0;
  bool snapshot_inflight_ = false;
  std::uint64_t compactions_ = 0;
};

}  // namespace gryphon::storage
