#include "core/pfs.hpp"

#include <algorithm>

#include "core/sharding.hpp"
#include "util/assert.hpp"
#include "util/byte_buffer.hpp"

namespace gryphon::core {

namespace {

constexpr const char* kMetaTable = "pfs_meta";
constexpr const char* kSubTable = "pfs_sub";

// Shard 0 keeps the unsharded spellings ("pfs:<p>", "<p>:last_ts"), so a
// single-shard PFS is bit-identical with the pre-sharding layout and its
// WALs recover either way.
std::string stream_name(PubendId p, std::size_t shard) {
  std::string name = "pfs:" + std::to_string(p.value());
  if (shard > 0) name += ":s" + std::to_string(shard);
  return name;
}

std::string meta_key(PubendId p, std::size_t shard, const char* what) {
  std::string key = std::to_string(p.value()) + ':';
  if (shard > 0) key += 's' + std::to_string(shard) + ':';
  return key + what;
}

std::string sub_key(PubendId p, SubscriberId s) {
  return std::to_string(p.value()) + ':' + std::to_string(s.value());
}

std::vector<std::byte> encode_i64(std::int64_t v) {
  BufWriter w;
  w.put_i64(v);
  return w.take();
}

std::int64_t decode_i64(const std::vector<std::byte>& bytes) {
  BufReader r(bytes);
  return r.get_i64();
}

}  // namespace

PersistentFilteringSubsystem::PersistentFilteringSubsystem(NodeResources& resources,
                                                           const CostModel& costs,
                                                           std::size_t shards)
    : res_(resources), costs_(costs), shards_(shards) {
  GRYPHON_CHECK(costs_.pfs_imprecise_batch >= 1);
  GRYPHON_CHECK(shards_ >= 1);
  m_records_written_ = res_.metrics.counter("pfs.records_written");
  m_bytes_written_ = res_.metrics.counter("pfs.record_bytes_written");
  m_reads_ = res_.metrics.counter("pfs.reads_issued");
  split_scratch_.resize(shards_);
}

// Format-drift guards for the paper's "8 + 16·n bytes" accounting: each
// wire entry is a u32 subscriber id + u64 back-pointer and must fit the
// per-subscriber budget; the fixed part (two i64 timestamps + u32 entry
// count) must fit the ranged-record budget plus the u32 the accounting
// model leaves to the volume's record header. If the encoder below gains a
// field, these fire before any benchmark number quietly moves.
static_assert(sizeof(std::uint32_t) + sizeof(storage::LogIndex) <=
                  PersistentFilteringSubsystem::kPerSubscriberBytes,
              "PFS wire entry outgrew the paper's 16-byte/subscriber budget");
static_assert(2 * sizeof(std::int64_t) + sizeof(std::uint32_t) <=
                  PersistentFilteringSubsystem::kRangeRecordFixedBytes +
                      sizeof(std::uint32_t),
              "PFS wire fixed part outgrew the paper's record budget");
static_assert(PersistentFilteringSubsystem::record_bytes(1) == 8 + 16 &&
                  PersistentFilteringSubsystem::record_bytes(200) == 8 + 16 * 200,
              "record_bytes must stay the paper's 8 + 16*n formula");

std::vector<std::byte> PersistentFilteringSubsystem::encode(
    const Record& r, std::vector<std::byte> reuse) {
  BufWriter w(std::move(reuse));
  w.put_i64(r.range.from);
  w.put_i64(r.range.to);
  w.put_u32(static_cast<std::uint32_t>(r.entries.size()));
  for (const auto& [sub, prev] : r.entries) {
    w.put_u32(sub.value());
    w.put_u64(prev);
  }
  return w.take();
}

PersistentFilteringSubsystem::Record PersistentFilteringSubsystem::decode(
    const std::vector<std::byte>& bytes) {
  BufReader r(bytes);
  Record rec;
  rec.range.from = r.get_i64();
  rec.range.to = r.get_i64();
  const auto n = r.get_u32();
  rec.entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const SubscriberId sub{r.get_u32()};
    const storage::LogIndex prev = r.get_u64();
    rec.entries.emplace_back(sub, prev);
  }
  return rec;
}

void PersistentFilteringSubsystem::open(const std::vector<PubendId>& pubends) {
  auto& db = res_.database;
  auto& volume = res_.log_volume;
  GRYPHON_CHECK_MSG(pubends_.empty(), "PFS opened twice");
  slots_ = PubendSlots(pubends);
  GRYPHON_CHECK_MSG(slots_.size() == pubends.size(), "duplicate pubend id");
  pubends_.resize(slots_.size());

  // Streams open in the caller's order (log stream ids are assigned on
  // first open); the states sit in slot order.
  for (PubendId p : pubends) {
    PerPubend& state = per(p);
    state.id = p;
    state.shards.resize(shards_);
    for (std::size_t k = 0; k < shards_; ++k) {
      Shard& shard = state.shards[k];
      shard.stream = volume.open_stream(stream_name(p, k));
      // Last committed metadata snapshot (may lag the durable log).
      if (auto v = db.get(kMetaTable, meta_key(p, k, "last_ts"))) {
        shard.durable_timestamp = decode_i64(*v);
      }
      if (auto v = db.get(kMetaTable, meta_key(p, k, "scan"))) {
        shard.durable_scan_index = static_cast<storage::LogIndex>(decode_i64(*v));
      }
      if (auto v = db.get(kMetaTable, meta_key(p, k, "chopped"))) {
        shard.chopped_upto = decode_i64(*v);
      }
    }
  }

  // Per-subscriber lastIndex rows: an ordered-index range scan per pubend
  // prefix, not a full-table pass — recovery cost follows the configured
  // pubends' rows, routed to each subscriber's shard.
  for (PerPubend& state : pubends_) {
    const std::string prefix = std::to_string(state.id.value()) + ':';
    for (const auto& [key, value] : db.scan_prefix(kSubTable, prefix)) {
      const SubscriberId s{
          static_cast<std::uint32_t>(std::stoul(key.substr(prefix.size())))};
      state.shards[subscriber_shard(s, shards_)].durable_last_index[s] =
          static_cast<storage::LogIndex>(decode_i64(value));
    }
  }

  // Repair: forward-scan each shard's durable log suffix that postdates the
  // metadata snapshot, rebuilding lastTimestamp and lastIndex(s).
  for (PerPubend& state : pubends_) {
    for (Shard& shard : state.shards) {
      shard.last_index = shard.durable_last_index;
      shard.last_timestamp = shard.durable_timestamp;
      const storage::LogIndex durable = volume.durable_index(shard.stream);
      storage::LogIndex from = std::max<storage::LogIndex>(
          shard.durable_scan_index + 1, volume.first_index(shard.stream));
      for (storage::LogIndex i = from; i <= durable; ++i) {
        const auto* bytes = volume.read(shard.stream, i);
        if (bytes == nullptr) continue;  // chopped
        Record rec = decode(*bytes);
        GRYPHON_CHECK(rec.range.to > shard.last_timestamp);
        shard.last_timestamp = rec.range.to;
        for (const auto& [sub, prev] : rec.entries) shard.last_index[sub] = i;
      }
      shard.durable_scan_index = std::max(shard.durable_scan_index, durable);
      shard.durable_timestamp = shard.last_timestamp;
      shard.durable_last_index = shard.last_index;
      shard.meta_dirty = true;

      // Re-chop records resurrected below the committed chop boundary: the
      // byte-level recovery can bring back records whose chop frame was
      // still in the page cache when the crash hit, while the DB commit of
      // `chopped` was already durable.
      while (volume.first_index(shard.stream) < volume.next_index(shard.stream)) {
        const storage::LogIndex first = volume.first_index(shard.stream);
        const auto* bytes = volume.read(shard.stream, first);
        if (bytes == nullptr || decode(*bytes).range.to > shard.chopped_upto) break;
        volume.chop(shard.stream, first);
      }
      state.last_timestamp = std::max(state.last_timestamp, shard.last_timestamp);
    }
    state.durable_timestamp = state.last_timestamp;
    state.last_accepted = state.last_timestamp;
  }
}

void PersistentFilteringSubsystem::write_record(
    PerPubend& state, Shard& shard, TickRange range,
    const std::vector<SubscriberId>& matching) {
  Record rec;
  rec.range = range;
  rec.entries.reserve(matching.size());
  for (SubscriberId s : matching) {
    auto it = shard.last_index.find(s);
    rec.entries.emplace_back(s, it == shard.last_index.end() ? storage::kNoIndex
                                                             : it->second);
  }
  const storage::LogIndex idx = res_.log_volume.append(
      shard.stream, encode(rec, res_.log_volume.acquire_buffer()));
  for (SubscriberId s : matching) shard.last_index[s] = idx;
  shard.last_timestamp = range.to;
  state.last_timestamp = std::max(state.last_timestamp, range.to);
  ++records_written_;
  const std::size_t bytes = range_record_bytes(matching.size(), range.from != range.to);
  bytes_written_ += bytes;
  m_records_written_->inc();
  m_bytes_written_->inc(bytes);
  res_.tracer.record_range(res_.sim.now(), state.id.value(), range.from, range.to,
                           TraceMilestone::kPfsLog);
}

void PersistentFilteringSubsystem::write_sharded(
    PerPubend& state, TickRange range, const std::vector<SubscriberId>& matching) {
  if (shards_ == 1) {
    write_record(state, state.shards[0], range, matching);
    return;
  }
  for (auto& bucket : split_scratch_) bucket.clear();
  for (SubscriberId s : matching) {
    split_scratch_[subscriber_shard(s, shards_)].push_back(s);
  }
  for (std::size_t k = 0; k < shards_; ++k) {
    if (split_scratch_[k].empty()) continue;
    write_record(state, state.shards[k], range, split_scratch_[k]);
  }
}

void PersistentFilteringSubsystem::flush_batch(PerPubend& state) {
  if (state.batch_count == 0) return;
  std::vector<SubscriberId> matching = std::move(state.batch_members);
  std::sort(matching.begin(), matching.end());
  matching.erase(std::unique(matching.begin(), matching.end()), matching.end());
  write_sharded(state, {state.batch_first, state.batch_last}, matching);
  state.batch_count = 0;
  state.batch_members.clear();
}

void PersistentFilteringSubsystem::append(PubendId pubend, Tick tick,
                                          const std::vector<SubscriberId>& matching) {
  GRYPHON_CHECK_MSG(!matching.empty(), "PFS records require >= 1 subscriber");
  PerPubend& state = per(pubend);
  GRYPHON_CHECK_MSG(tick > state.last_accepted,
                    "non-monotonic PFS write " << tick << " after "
                                               << state.last_accepted);
  state.last_accepted = tick;

  if (costs_.pfs_imprecise_batch <= 1) {
    write_sharded(state, {tick, tick}, matching);
    return;
  }

  // Imprecise mode: coalesce consecutive matched timestamps into one record
  // covering their range with the union of their subscriber lists.
  if (state.batch_count == 0) state.batch_first = tick;
  state.batch_last = tick;
  state.batch_members.insert(state.batch_members.end(), matching.begin(), matching.end());
  if (++state.batch_count >= costs_.pfs_imprecise_batch) flush_batch(state);
}

void PersistentFilteringSubsystem::sync(std::function<void()> on_durable) {
  for (PerPubend& state : pubends_) flush_batch(state);

  // Capture the state the barrier will cover; it becomes the durable
  // snapshot (and thus DB-committable metadata) at completion. All shards
  // share every barrier, so the pubend-level durable timestamp stays the
  // pubend-level lastTimestamp at capture time.
  struct ShardSnapshot {
    Tick last_timestamp;
    storage::LogIndex scan_index;
    std::unordered_map<SubscriberId, storage::LogIndex> last_index;
  };
  struct Snapshot {
    PubendId pubend;
    Tick last_timestamp;
    std::vector<ShardSnapshot> shards;
  };
  std::vector<Snapshot> snaps;
  snaps.reserve(pubends_.size());
  for (PerPubend& state : pubends_) {
    Snapshot snap;
    snap.pubend = state.id;
    snap.last_timestamp = state.last_timestamp;
    snap.shards.reserve(state.shards.size());
    for (Shard& shard : state.shards) {
      snap.shards.push_back({shard.last_timestamp,
                             res_.log_volume.next_index(shard.stream) - 1,
                             shard.last_index});
    }
    snaps.push_back(std::move(snap));
  }
  res_.log_volume.sync(
      [this, snaps = std::move(snaps), on_durable = std::move(on_durable)] {
        for (const auto& snap : snaps) {
          PerPubend& state = per(snap.pubend);
          state.durable_timestamp =
              std::max(state.durable_timestamp, snap.last_timestamp);
          for (std::size_t k = 0; k < snap.shards.size(); ++k) {
            Shard& shard = state.shards[k];
            const ShardSnapshot& ss = snap.shards[k];
            if (ss.last_timestamp > shard.durable_timestamp) {
              shard.durable_timestamp = ss.last_timestamp;
              shard.durable_scan_index = ss.scan_index;
              shard.durable_last_index = ss.last_index;
              shard.meta_dirty = true;
            }
          }
        }
        if (on_durable) on_durable();
      });
}

Tick PersistentFilteringSubsystem::last_accepted(PubendId pubend) const {
  return per(pubend).last_accepted;
}

Tick PersistentFilteringSubsystem::last_timestamp(PubendId pubend) const {
  return per(pubend).last_timestamp;
}

Tick PersistentFilteringSubsystem::durable_timestamp(PubendId pubend) const {
  return per(pubend).durable_timestamp;
}

Tick PersistentFilteringSubsystem::read_coverage_limit(PubendId pubend) const {
  const PerPubend& state = per(pubend);
  return state.batch_count == 0 ? kTickInfinity : state.batch_first - 1;
}

void PersistentFilteringSubsystem::read(PubendId pubend, SubscriberId subscriber,
                                        Tick from, std::size_t max_positions,
                                        std::function<void(ReadResult)> done) {
  GRYPHON_CHECK(max_positions > 0);
  PerPubend& state = per(pubend);
  // The subscriber's whole chain lives in its shard; records in other
  // shards never name it, so silence inference against the pubend-level
  // lastTimestamp stays sound.
  Shard& shard = state.shards[subscriber_shard(subscriber, shards_)];
  ReadResult result;
  result.covered_upto = state.last_timestamp;
  result.complete_from = from;
  result.reached_last = true;
  result.safe_extension_upto = read_coverage_limit(pubend);

  // Walk the subscriber's back-pointer chain, newest to oldest.
  bool truncated_by_chop = false;
  storage::LogIndex cur = storage::kNoIndex;
  if (auto it = shard.last_index.find(subscriber); it != shard.last_index.end()) {
    cur = it->second;
  }
  std::vector<TickRange> descending;
  while (cur != storage::kNoIndex) {
    const auto* bytes = res_.log_volume.read(shard.stream, cur);
    if (bytes == nullptr) {
      truncated_by_chop = true;
      break;
    }
    ++result.records_traversed;
    result.bytes_read += bytes->size() + storage::kLogRecordHeaderBytes;
    Record rec = decode(*bytes);
    if (rec.range.to <= from) break;
    descending.push_back({std::max(rec.range.from, from + 1), rec.range.to});
    storage::LogIndex prev = storage::kNoIndex;
    bool found = false;
    for (const auto& [sub, p] : rec.entries) {
      if (sub == subscriber) {
        prev = p;
        found = true;
        break;
      }
    }
    GRYPHON_CHECK_MSG(found, "back-pointer chain visited foreign record");
    cur = prev;
  }

  if (truncated_by_chop) {
    // Records below the chop are gone; the region (from, chopped_upto] is
    // unknown to the PFS (the caller leaves it Q and lets the network — and
    // ultimately the pubend's L ladder — resolve it).
    result.complete_from = std::max(from, shard.chopped_upto);
  }

  std::reverse(descending.begin(), descending.end());
  // Buffer limit: keep the oldest max_positions covered ticks (splitting
  // the last range if needed); coverage stops where the buffer does.
  std::size_t kept_positions = 0;
  std::vector<TickRange> kept;
  for (const TickRange& r : descending) {
    if (kept_positions >= max_positions) {
      result.reached_last = false;
      break;
    }
    const auto room = static_cast<Tick>(max_positions - kept_positions);
    if (r.length() > room) {
      kept.push_back({r.from, r.from + room - 1});
      kept_positions += static_cast<std::size_t>(room);
      result.reached_last = false;
      break;
    }
    kept.push_back(r);
    kept_positions += static_cast<std::size_t>(r.length());
  }
  if (!result.reached_last && !kept.empty()) result.covered_upto = kept.back().to;
  if (!result.reached_last && kept.empty()) result.covered_upto = from;
  result.q_ranges = std::move(kept);

  ++reads_;
  m_reads_->inc();
  if (result.reached_last) ++reads_reached_last_;

  // One seek + sequential transfer of the traversed records.
  const std::size_t io_bytes = std::max<std::size_t>(result.bytes_read, 512);
  res_.disk.read(io_bytes, [result = std::move(result), done = std::move(done)] {
    done(result);
  });
}

void PersistentFilteringSubsystem::chop_upto(PubendId pubend, Tick upto) {
  PerPubend& state = per(pubend);
  auto& volume = res_.log_volume;
  for (Shard& shard : state.shards) {
    if (upto <= shard.chopped_upto) continue;
    while (volume.first_index(shard.stream) < volume.next_index(shard.stream)) {
      const storage::LogIndex first = volume.first_index(shard.stream);
      const auto* bytes = volume.read(shard.stream, first);
      GRYPHON_CHECK(bytes != nullptr);
      if (decode(*bytes).range.to > upto) break;
      volume.chop(shard.stream, first);
    }
    shard.chopped_upto = upto;
    shard.meta_dirty = true;
  }
}

std::vector<storage::Database::Put> PersistentFilteringSubsystem::dirty_metadata() {
  std::vector<storage::Database::Put> puts;
  for (PerPubend& state : pubends_) {
    const PubendId p = state.id;
    for (std::size_t k = 0; k < state.shards.size(); ++k) {
      Shard& shard = state.shards[k];
      if (!shard.meta_dirty) continue;
      puts.push_back({kMetaTable, meta_key(p, k, "last_ts"),
                      encode_i64(shard.durable_timestamp)});
      puts.push_back({kMetaTable, meta_key(p, k, "scan"),
                      encode_i64(static_cast<std::int64_t>(shard.durable_scan_index))});
      puts.push_back(
          {kMetaTable, meta_key(p, k, "chopped"), encode_i64(shard.chopped_upto)});
      for (const auto& [s, idx] : shard.durable_last_index) {
        puts.push_back(
            {kSubTable, sub_key(p, s), encode_i64(static_cast<std::int64_t>(idx))});
      }
      shard.meta_dirty = false;
    }
  }
  return puts;
}

}  // namespace gryphon::core
