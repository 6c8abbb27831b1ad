#include "storage/database.hpp"

#include "util/byte_buffer.hpp"
#include "util/logging.hpp"

namespace gryphon::storage {

Database::Database(Disk& disk, int connections, StorageOptions options,
                   std::string wal_prefix)
    : disk_(disk),
      options_(options),
      backend_(disk.make_backend(options, disk.name() + "." + wal_prefix)),
      wal_(*backend_, stable_node_id(disk.name()), options.segment_bytes) {
  GRYPHON_CHECK(connections >= 1);
  conns_.resize(static_cast<std::size_t>(connections));
}

void Database::commit(int connection, std::vector<Put> puts,
                      std::function<void()> on_committed) {
  GRYPHON_CHECK(connection >= 0 && connection < static_cast<int>(conns_.size()));
  GRYPHON_CHECK(!puts.empty());
  conns_[static_cast<std::size_t>(connection)].queue.push_back(
      Txn{std::move(puts), std::move(on_committed)});
  maybe_start_commit(connection);
}

std::size_t Database::txn_bytes(const Txn& txn) {
  // Row image plus a fixed per-row and per-transaction log overhead,
  // approximating a write-ahead-logged RDBMS.
  constexpr std::size_t kPerTxnOverhead = 64;
  constexpr std::size_t kPerRowOverhead = 32;
  std::size_t bytes = kPerTxnOverhead;
  for (const auto& put : txn.puts) {
    bytes += kPerRowOverhead + put.table.size() + put.key.size() + put.value.size();
  }
  return bytes;
}

std::uint64_t Database::maybe_write_snapshot(int connection) {
  if (snapshot_inflight_ || wal_.live_bytes() <= options_.db_compact_bytes) return 0;
  for (int c = 0; c < static_cast<int>(conns_.size()); ++c) {
    // A busy connection has a serialized-but-unapplied batch at an earlier
    // WAL offset; a snapshot now would not contain it, and replay would
    // resurrect the pre-batch state. Wait for a quiet moment.
    if (c != connection && conns_[static_cast<std::size_t>(c)].busy) return 0;
  }
  BufWriter w;
  w.put_u32(static_cast<std::uint32_t>(tables_.size()));
  for (const auto& [table, rows] : tables_) {
    w.put_string(table);
    w.put_u32(static_cast<std::uint32_t>(rows.size()));
    for (const auto& [key, value] : rows) {
      w.put_string(key);
      w.put_u32(static_cast<std::uint32_t>(value.size()));
      w.put_bytes(value);
    }
  }
  wal_.append(wire::FrameKind::kDbSnapshot, 0, ++snapshot_seq_, w.bytes());
  snapshot_inflight_ = true;
  return wal_.active_segment_seq();
}

void Database::maybe_start_commit(int connection) {
  Connection& conn = conns_[static_cast<std::size_t>(connection)];
  if (conn.busy || conn.queue.empty()) return;
  conn.busy = true;

  // Explicit batching: everything waiting on this connection goes into one
  // database transaction / one commit barrier (paper §5.2). The batch is
  // parked on the connection (not moved into the callback) so a torn sync
  // can push it back and retry.
  conn.inflight.clear();
  while (!conn.queue.empty()) {
    conn.inflight.push_back(std::move(conn.queue.front()));
    conn.queue.pop_front();
  }
  std::size_t bytes = 0;
  for (const auto& txn : conn.inflight) bytes += txn_bytes(txn);
  // Express per-transaction engine work as equivalent device occupancy so
  // it is shared (serialized) across connections like the DB log is. Only
  // the timing model has occupancy; a real disk's engine work is real.
  if (const DiskConfig* model = disk_.model(); model != nullptr) {
    bytes += static_cast<std::size_t>(
        static_cast<double>(per_txn_overhead_) * 1e-6 *
        model->write_bandwidth_bytes_per_sec *
        static_cast<double>(conn.inflight.size()));
  }

  // Serialize the batch into the WAL at barrier-issue time: the frame's
  // bytes are what this barrier physically makes durable. Opportunistic
  // snapshot compaction rides the same barrier when the WAL has outgrown
  // its budget and every other connection is idle.
  const std::uint64_t snapshot_keep_seq = maybe_write_snapshot(connection);
  BufWriter w;
  w.put_u32(static_cast<std::uint32_t>(conn.inflight.size()));
  for (const auto& txn : conn.inflight) {
    w.put_u32(static_cast<std::uint32_t>(txn.puts.size()));
    for (const auto& put : txn.puts) {
      w.put_string(put.table);
      w.put_string(put.key);
      w.put_u32(static_cast<std::uint32_t>(put.value.size()));
      w.put_bytes(put.value);
    }
  }
  wal_.append(wire::FrameKind::kDbBatch, 0, ++batch_seq_, w.bytes());
  const std::uint64_t wal_mark = wal_.tail_offset();
  wal_.mark_submitted(wal_mark);

  const std::uint64_t gen = generation_;
  ++barriers_;
  disk_.write_and_sync(bytes, [this, gen, connection, wal_mark, snapshot_keep_seq] {
    if (gen != generation_) return;  // crashed mid-commit: nothing applied
    wal_.mark_durable(wal_mark);
    if (snapshot_keep_seq != 0) {
      wal_.drop_segments_below(snapshot_keep_seq);
      snapshot_inflight_ = false;
      ++compactions_;
    }
    Connection& conn = conns_[static_cast<std::size_t>(connection)];
    std::vector<Txn> batch = std::move(conn.inflight);
    conn.inflight.clear();
    for (auto& txn : batch) {
      apply_puts(txn.puts);
      ++committed_txns_;
    }
    conn.busy = false;
    // Callbacks may enqueue follow-up transactions; run them after state is
    // applied and the connection freed.
    for (auto& txn : batch) {
      if (txn.on_committed) txn.on_committed();
    }
    maybe_start_commit(connection);
  });
}

void Database::apply_puts(std::vector<Put>& puts) {
  for (auto& put : puts) {
    if (put.value.empty()) {
      tables_[put.table].erase(put.key);
    } else {
      tables_[put.table][put.key] = std::move(put.value);
    }
  }
}

std::optional<std::vector<std::byte>> Database::get(const std::string& table,
                                                    const std::string& key) const {
  auto t = tables_.find(table);
  if (t == tables_.end()) return std::nullopt;
  auto r = t->second.find(key);
  if (r == t->second.end()) return std::nullopt;
  return r->second;
}

std::vector<std::pair<std::string, std::vector<std::byte>>> Database::scan(
    const std::string& table) const {
  std::vector<std::pair<std::string, std::vector<std::byte>>> out;
  auto t = tables_.find(table);
  if (t == tables_.end()) return out;
  out.reserve(t->second.size());
  for (const auto& [k, v] : t->second) out.emplace_back(k, v);
  return out;
}

std::vector<std::pair<std::string, std::vector<std::byte>>> Database::scan_prefix(
    const std::string& table, const std::string& prefix) const {
  std::vector<std::pair<std::string, std::vector<std::byte>>> out;
  auto t = tables_.find(table);
  if (t == tables_.end()) return out;
  // The table is an ordered index: seek to the first candidate key and walk
  // forward until a key leaves the prefix. Cost is O(log n + hits), never a
  // full-table pass.
  for (auto r = t->second.lower_bound(prefix); r != t->second.end(); ++r) {
    if (r->first.compare(0, prefix.size(), prefix) != 0) break;
    out.emplace_back(r->first, r->second);
  }
  return out;
}

/// Rebuilds tables_ from surviving frames: the latest surviving snapshot
/// resets the image, each batch after it applies last-write-wins puts.
/// Frames before a snapshot re-apply harmlessly (the snapshot supersedes
/// them); duplicate batches from torn-sync retries are idempotent.
class Database::Rebuild final : public Wal::Delegate {
 public:
  explicit Rebuild(Database& db) : db_(db) {}

  void on_stream(const wire::StreamSnapshot&) override {}

  void on_frame(const wire::FrameView& frame, Wal::Location) override {
    BufReader r(frame.payload);
    switch (frame.kind) {
      case wire::FrameKind::kDbSnapshot: {
        db_.tables_.clear();
        const auto ntables = r.get_u32();
        for (std::uint32_t t = 0; t < ntables; ++t) {
          auto& rows = db_.tables_[r.get_string()];
          const auto nrows = r.get_u32();
          for (std::uint32_t i = 0; i < nrows; ++i) {
            std::string key = r.get_string();
            const auto len = r.get_u32();
            const auto bytes = r.get_bytes(len);
            rows[std::move(key)].assign(bytes.begin(), bytes.end());
          }
        }
        break;
      }
      case wire::FrameKind::kDbBatch: {
        const auto ntxns = r.get_u32();
        for (std::uint32_t t = 0; t < ntxns; ++t) {
          const auto nputs = r.get_u32();
          for (std::uint32_t i = 0; i < nputs; ++i) {
            Put put;
            put.table = r.get_string();
            put.key = r.get_string();
            const auto len = r.get_u32();
            const auto bytes = r.get_bytes(len);
            put.value.assign(bytes.begin(), bytes.end());
            if (put.value.empty()) {
              db_.tables_[put.table].erase(put.key);
            } else {
              db_.tables_[put.table][put.key] = std::move(put.value);
            }
          }
        }
        break;
      }
      case wire::FrameKind::kOpenStream:
      case wire::FrameKind::kAppend:
      case wire::FrameKind::kChop:
        GRYPHON_CHECK_MSG(false, "log-volume frame in a database WAL");
    }
  }

 private:
  Database& db_;
};

void Database::crash() { rebuild_from_wal(/*adopt=*/false); }

void Database::adopt() { rebuild_from_wal(/*adopt=*/true); }

void Database::rebuild_from_wal(bool adopt) {
  ++generation_;
  for (Connection& conn : conns_) {
    conn.queue.clear();
    conn.inflight.clear();
    conn.busy = false;
  }
  snapshot_inflight_ = false;
  tables_.clear();

  Rebuild rebuild(*this);
  // Adoption rescans the backend's bytes as-is (no watermark truncation —
  // the previous process's watermarks are gone); see LogVolume::adopt.
  const Wal::RecoveryStats stats =
      adopt ? wal_.replay(rebuild) : wal_.crash_and_recover(rebuild);

  if (instruments_.recoveries != nullptr) instruments_.recoveries->inc();
  if (stats.truncated_bytes > 0) {
    if (instruments_.recovery_truncated_bytes != nullptr) {
      instruments_.recovery_truncated_bytes->inc(stats.truncated_bytes);
    }
    if (instruments_.torn_tail_recoveries != nullptr) {
      instruments_.torn_tail_recoveries->inc();
    }
    GRYPHON_LOG(kWarn, disk_.name(),
                "torn DB WAL tail truncated on recovery: "
                    << stats.truncated_bytes << " bytes at "
                    << Wal::format_corruption(stats.corruption));
  }
}

void Database::on_torn_sync() {
  ++generation_;  // a completion that somehow survives the drop is stale
  // A pending snapshot's barrier died with the tear; its frame stays in the
  // WAL (harmless — a future snapshot supersedes it) but compaction must
  // not drop the segments it was meant to cover.
  snapshot_inflight_ = false;
  for (Connection& conn : conns_) {
    if (!conn.busy) continue;
    // The lost batch goes back to the front, in order, and is re-committed.
    for (auto it = conn.inflight.rbegin(); it != conn.inflight.rend(); ++it) {
      conn.queue.push_front(std::move(*it));
    }
    conn.inflight.clear();
    conn.busy = false;
  }
  for (int c = 0; c < static_cast<int>(conns_.size()); ++c) {
    maybe_start_commit(c);
  }
}

}  // namespace gryphon::storage
