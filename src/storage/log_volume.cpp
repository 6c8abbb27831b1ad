#include "storage/log_volume.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace gryphon::storage {

LogVolume::LogVolume(Disk& disk, StorageOptions options, std::string wal_prefix)
    : disk_(disk),
      backend_(disk.make_backend(options, disk.name() + "." + wal_prefix)),
      wal_(*backend_, stable_node_id(disk.name()), options.segment_bytes) {}

LogStreamId LogVolume::open_stream(const std::string& name) {
  if (auto it = by_name_.find(name); it != by_name_.end()) return it->second;
  const auto id = static_cast<LogStreamId>(streams_.size());
  streams_.push_back(Stream{name, /*base=*/1, kNoIndex, {}});
  by_name_.emplace(name, id);
  const auto* bytes = reinterpret_cast<const std::byte*>(name.data());
  wal_.append(wire::FrameKind::kOpenStream, id, /*index=*/1,
              std::span<const std::byte>(bytes, name.size()));
  return id;
}

LogIndex LogVolume::append(LogStreamId stream_id, std::vector<std::byte> payload) {
  Stream& s = stream(stream_id);
  const LogIndex index = s.base + s.records.size();
  const std::size_t bytes = payload.size() + kLogRecordHeaderBytes;
  s.records.push_back(wal_.append(wire::FrameKind::kAppend, stream_id, index, payload));
  payload.clear();
  spare_ = std::move(payload);
  ++append_seq_;
  // Header bytes are charged in one batch when the covering barrier starts
  // (group commit writes the headers of all batched records contiguously);
  // only the payload is accounted per append.
  pending_bytes_ += bytes - kLogRecordHeaderBytes;
  ++pending_headers_;
  retained_bytes_ += bytes;
  ++appended_records_;
  appended_bytes_ += bytes;
  return index;
}

void LogVolume::sync(std::function<void()> on_durable) {
  GRYPHON_CHECK(on_durable != nullptr);
  waiters_.push_back(SyncWaiter{append_seq_, std::move(on_durable)});
  maybe_start_barrier();
}

void LogVolume::maybe_start_barrier() {
  if (barrier_in_flight_ || waiters_.empty()) return;
  barrier_in_flight_ = true;
  ++barrier_batches_;

  // The barrier covers everything appended before it starts.
  const std::uint64_t watermark = append_seq_;
  std::vector<std::pair<LogStreamId, LogIndex>> covered;
  covered.reserve(streams_.size());
  for (LogStreamId id = 0; id < streams_.size(); ++id) {
    const Stream& s = streams_[id];
    const LogIndex last = s.base + s.records.size() - 1;
    if (!s.records.empty() && last > s.durable) covered.emplace_back(id, last);
  }
  const std::uint64_t bytes = pending_bytes_ + pending_headers_ * kLogRecordHeaderBytes;
  pending_bytes_ = 0;
  pending_headers_ = 0;

  // The barrier's physical coverage: every WAL byte appended so far is
  // handed to the device now and becomes durable when the barrier completes.
  const std::uint64_t wal_mark = wal_.tail_offset();
  wal_.mark_submitted(wal_mark);

  const std::uint64_t gen = generation_;
  disk_.write_and_sync(
      bytes, [this, gen, watermark, wal_mark, covered = std::move(covered)] {
        if (gen != generation_) return;  // volume crashed while barrier in flight
        const std::uint64_t delta = wal_mark - wal_.durable_offset();
        if (delta > 0 && instruments_.group_commit_bytes != nullptr) {
          instruments_.group_commit_bytes->add(static_cast<double>(delta));
        }
        wal_.mark_durable(wal_mark);
        on_barrier_complete(watermark, covered);
      });
}

void LogVolume::on_barrier_complete(
    std::uint64_t watermark, std::vector<std::pair<LogStreamId, LogIndex>> covered) {
  barrier_in_flight_ = false;
  for (const auto& [id, last] : covered) {
    Stream& s = streams_[id];
    s.durable = std::max(s.durable, last);
  }
  // Release every waiter the barrier covers, then start the next batch.
  std::vector<std::function<void()>> ready;
  while (!waiters_.empty() && waiters_.front().watermark <= watermark) {
    ready.push_back(std::move(waiters_.front().callback));
    waiters_.pop_front();
  }
  maybe_start_barrier();
  for (auto& cb : ready) cb();
}

std::optional<std::span<const std::byte>> LogVolume::read(LogStreamId stream_id,
                                                          LogIndex index) const {
  const Stream& s = stream(stream_id);
  if (index < s.base || index >= s.base + s.records.size()) return std::nullopt;
  const Wal::Location& at = s.records[index - s.base];
  return backend_->read(at.segment, at.offset, at.length);
}

void LogVolume::drop_prefix(Stream& s, LogIndex upto) {
  while (s.base <= upto && !s.records.empty()) {
    retained_bytes_ -= s.records.front().length + kLogRecordHeaderBytes;
    s.records.pop_front();
    ++s.base;
  }
  if (s.records.empty() && s.base <= upto) s.base = upto + 1;
}

void LogVolume::chop(LogStreamId stream_id, LogIndex upto) {
  Stream& s = stream(stream_id);
  const LogIndex last = s.base + s.records.size() - 1;
  const LogIndex clamped = s.records.empty() ? s.base - 1 : std::min(upto, last);
  if (clamped < s.base) return;
  wal_.append(wire::FrameKind::kChop, stream_id, clamped, {});
  drop_prefix(s, clamped);
  wal_.gc();
}

LogIndex LogVolume::first_index(LogStreamId stream_id) const {
  return stream(stream_id).base;
}

LogIndex LogVolume::next_index(LogStreamId stream_id) const {
  const Stream& s = stream(stream_id);
  return s.base + s.records.size();
}

LogIndex LogVolume::durable_index(LogStreamId stream_id) const {
  return stream(stream_id).durable;
}

LogVolume::Stream& LogVolume::ensure_stream(LogStreamId id, const std::string& name) {
  while (streams_.size() <= id) streams_.push_back(Stream{});
  Stream& s = streams_[id];
  if (s.name.empty() && !name.empty()) {
    s.name = name;
    by_name_.emplace(name, id);
  }
  return s;
}

/// Rebuilds streams_ from the Wal's surviving frames. Stream ids are dense
/// in open order and every dropped segment's effects are captured by a later
/// segment header, so the scan arrives in a replayable order by construction.
class LogVolume::Rebuild final : public Wal::Delegate {
 public:
  explicit Rebuild(LogVolume& volume) : v_(volume) {}

  void on_stream(const wire::StreamSnapshot& snapshot) override {
    Stream& s = v_.ensure_stream(snapshot.id, snapshot.name);
    GRYPHON_CHECK_MSG(s.records.empty() || snapshot.base <= s.base,
                      "segment snapshot chops into replayed records");
    if (s.records.empty()) s.base = std::max(s.base, snapshot.base);
  }

  void on_frame(const wire::FrameView& frame, Wal::Location payload) override {
    switch (frame.kind) {
      case wire::FrameKind::kOpenStream: {
        std::string name;
        if (!frame.payload.empty()) {
          name.assign(reinterpret_cast<const char*>(frame.payload.data()),
                      frame.payload.size());
        }
        v_.ensure_stream(frame.stream, name);
        break;
      }
      case wire::FrameKind::kAppend: {
        Stream& s = v_.stream(frame.stream);
        if (s.records.empty() && frame.index > s.base) {
          // Leading gap: the records before frame.index lived in GC'd head
          // segments, and the chop frames that advanced base past them sit
          // *later* in the byte stream than this segment's header snapshot
          // (headers are written at roll time). A gap at the front is
          // therefore always a chopped prefix — corruption truncates the
          // tail, it can never skip frames mid-stream.
          s.base = frame.index;
        }
        GRYPHON_CHECK_MSG(frame.index == s.base + s.records.size(),
                          "non-dense append replay: stream " << frame.stream
                              << " index " << frame.index);
        v_.retained_bytes_ += payload.length + kLogRecordHeaderBytes;
        s.records.push_back(payload);
        break;
      }
      case wire::FrameKind::kChop:
        v_.drop_prefix(v_.stream(frame.stream), frame.index);
        break;
      case wire::FrameKind::kDbBatch:
      case wire::FrameKind::kDbSnapshot:
        GRYPHON_CHECK_MSG(false, "database frame in a log volume WAL");
    }
  }

 private:
  LogVolume& v_;
};

void LogVolume::crash() { rebuild_from_wal(/*adopt=*/false); }

void LogVolume::adopt() { rebuild_from_wal(/*adopt=*/true); }

void LogVolume::rebuild_from_wal(bool adopt) {
  ++generation_;
  barrier_in_flight_ = false;
  pending_bytes_ = 0;
  pending_headers_ = 0;
  waiters_.clear();

  // Forget the index entirely; what survives is whatever the Wal scan can
  // re-derive from bytes (the whole point of the persistence engine: a
  // crash test *is* a recovery-from-bytes test).
  streams_.clear();
  by_name_.clear();
  retained_bytes_ = 0;

  Rebuild rebuild(*this);
  // A crash truncates to this process's watermarks; adoption has no
  // watermarks to truncate to (they died with the previous process) and
  // rescans whatever bytes the backend holds.
  const Wal::RecoveryStats stats =
      adopt ? wal_.replay(rebuild) : wal_.crash_and_recover(rebuild);

  // Every surviving record is durable (it was just read back from "disk").
  for (Stream& s : streams_) {
    s.durable = s.base + s.records.size() - 1;
  }

  if (instruments_.recoveries != nullptr) instruments_.recoveries->inc();
  if (stats.truncated_bytes > 0) {
    if (instruments_.recovery_truncated_bytes != nullptr) {
      instruments_.recovery_truncated_bytes->inc(stats.truncated_bytes);
    }
    if (instruments_.torn_tail_recoveries != nullptr) {
      instruments_.torn_tail_recoveries->inc();
    }
    GRYPHON_LOG(kWarn, disk_.name(),
                "torn WAL tail truncated on recovery: "
                    << stats.truncated_bytes << " bytes at "
                    << Wal::format_corruption(stats.corruption));
  }
}

void LogVolume::on_torn_sync() {
  ++generation_;  // a completion that somehow survives the drop is stale
  barrier_in_flight_ = false;
  // Everything above the durable prefix is dirty again; re-cover it so the
  // pending waiters (which stay queued) still get their durability.
  pending_bytes_ = 0;
  pending_headers_ = 0;
  for (const Stream& s : streams_) {
    const LogIndex first_dirty = std::max(s.durable + 1, s.base);
    for (LogIndex i = first_dirty; i < s.base + s.records.size(); ++i) {
      pending_bytes_ += s.records[i - s.base].length + kLogRecordHeaderBytes;
    }
  }
  maybe_start_barrier();
}

}  // namespace gryphon::storage
