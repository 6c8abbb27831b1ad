#include "storage/wal.hpp"

#include <algorithm>
#include <cstdio>

#include "util/assert.hpp"

namespace gryphon::storage {

Wal::Wal(StorageBackend& backend, std::uint32_t node_id, std::size_t segment_bytes)
    : backend_(backend), node_id_(node_id), segment_bytes_(segment_bytes) {
  GRYPHON_CHECK(segment_bytes_ >= wire::kSegmentPreambleBytes + wire::kFrameHeaderBytes);
  // Pre-existing files (FileBackend adoption): the caller must replay()
  // before appending, which reopens the last surviving segment. Rolling a
  // placeholder here instead would snapshot an empty stream registry into
  // its header, and once GC dropped the older segments a later restart
  // could no longer name the streams.
  const std::vector<std::uint64_t> existing = backend_.segments();
  if (existing.empty()) {
    roll_segment();
  } else {
    next_seq_ = existing.back() + 1;
  }
}

void Wal::roll_segment() {
  if (!segments_.empty()) segments_.back().sealed = true;
  SegmentMeta meta;
  meta.seq = next_seq_++;
  meta.base_offset = tail_;
  backend_.create_segment(meta.seq);

  wire::SegmentHeader header;
  header.node_id = node_id_;
  header.seq = meta.seq;
  header.streams.reserve(streams_.size());
  for (const auto& [id, s] : streams_) {
    header.streams.push_back(wire::StreamSnapshot{id, s.name, s.base, s.next});
  }
  frame_buf_.clear();
  wire::append_segment_header(frame_buf_, header);
  backend_.append(meta.seq, frame_buf_);
  meta.size = frame_buf_.size();
  tail_ += frame_buf_.size();
  segments_.push_back(std::move(meta));
}

void Wal::maybe_roll() {
  if (segments_.back().size >= segment_bytes_) roll_segment();
}

void Wal::note_frame(SegmentMeta& seg, const wire::FrameView& frame) {
  switch (frame.kind) {
    case wire::FrameKind::kOpenStream: {
      StreamMeta& s = streams_[frame.stream];
      s.name.clear();
      if (!frame.payload.empty()) {
        s.name.assign(reinterpret_cast<const char*>(frame.payload.data()),
                      frame.payload.size());
      }
      s.base = std::max(s.base, frame.index);
      s.next = std::max(s.next, frame.index);
      break;
    }
    case wire::FrameKind::kAppend: {
      StreamMeta& s = streams_[frame.stream];
      s.next = std::max(s.next, frame.index + 1);
      LogIndex& max_idx = seg.max_index[frame.stream];
      max_idx = std::max(max_idx, frame.index);
      break;
    }
    case wire::FrameKind::kChop: {
      StreamMeta& s = streams_[frame.stream];
      s.base = std::max(s.base, frame.index + 1);
      s.next = std::max(s.next, s.base);
      break;
    }
    case wire::FrameKind::kDbBatch:
      break;
    case wire::FrameKind::kDbSnapshot:
      seg.has_db_snapshot = true;
      break;
  }
}

Wal::Location Wal::append(wire::FrameKind kind, LogStreamId stream, LogIndex index,
                          std::span<const std::byte> payload) {
  GRYPHON_CHECK_MSG(!segments_.empty(), "replay() adopted segments before appending");
  maybe_roll();
  SegmentMeta& seg = segments_.back();
  const Location at{seg.seq, seg.size + wire::kFrameHeaderBytes,
                    static_cast<std::uint32_t>(payload.size())};
  frame_buf_.clear();
  wire::append_frame(frame_buf_, kind, stream, index, payload);
  backend_.append(seg.seq, frame_buf_);
  seg.size += frame_buf_.size();
  tail_ += frame_buf_.size();

  wire::FrameView view{kind, stream, index, payload};
  note_frame(seg, view);
  return at;
}

void Wal::mark_submitted(std::uint64_t offset) {
  GRYPHON_CHECK(offset <= tail_);
  submitted_ = std::max(submitted_, offset);
}

void Wal::mark_durable(std::uint64_t offset) {
  GRYPHON_CHECK(offset <= tail_);
  durable_ = std::max(durable_, offset);
  submitted_ = std::max(submitted_, durable_);
}

void Wal::merge_stream(const wire::StreamSnapshot& snapshot) {
  StreamMeta& s = streams_[snapshot.id];
  if (s.name.empty()) s.name = snapshot.name;
  s.base = std::max(s.base, snapshot.base);
  s.next = std::max(s.next, snapshot.next);
}

Wal::RecoveryStats Wal::crash_and_recover(Delegate& delegate) {
  const std::uint64_t dirty = submitted_ - durable_;
  const std::uint64_t survive = durable_ + (dirty == 0 ? 0 : crash_entropy_ % (dirty + 1));
  crash_entropy_ = 0;
  return recover_surviving(survive, delegate);
}

Wal::RecoveryStats Wal::recover_surviving(std::uint64_t survive_offset,
                                          Delegate& delegate) {
  const std::uint64_t survive =
      std::clamp(survive_offset, durable_, submitted_);
  // Physical page-cache loss: everything past the surviving prefix is gone
  // from the backend before the scan even starts. Not counted as "truncated"
  // — these bytes were never promised to anyone; the truncation metric
  // counts only the torn tail the *scanner* has to discard.
  while (!segments_.empty() && segments_.back().base_offset >= survive) {
    backend_.drop_segment(segments_.back().seq);
    segments_.pop_back();
  }
  if (!segments_.empty()) {
    SegmentMeta& back = segments_.back();
    if (back.base_offset + back.size > survive) {
      backend_.truncate(back.seq, survive - back.base_offset);
    }
  }
  return scan_and_rebuild(delegate);
}

Wal::RecoveryStats Wal::replay(Delegate& delegate) { return scan_and_rebuild(delegate); }

Wal::RecoveryStats Wal::scan_and_rebuild(Delegate& delegate) {
  RecoveryStats stats;
  segments_.clear();
  streams_.clear();
  std::uint64_t offset = 0;
  bool corrupt = false;

  for (const std::uint64_t seq : backend_.segments()) {
    if (corrupt) {
      // Everything after the first corruption is past the valid prefix.
      stats.truncated_bytes += backend_.size(seq);
      backend_.drop_segment(seq);
      ++stats.dropped_segments;
      continue;
    }
    const std::span<const std::byte> bytes = backend_.read(seq, 0, backend_.size(seq));
    const auto hp = wire::parse_segment_header(bytes);
    if (hp.consumed == 0) {
      corrupt = true;
      last_corruption_ = Corruption{true, seq, 0, hp.crc_expected, hp.crc_found,
                                    hp.reason != nullptr ? hp.reason : "?"};
      stats.truncated_bytes += bytes.size();
      backend_.drop_segment(seq);
      ++stats.dropped_segments;
      continue;
    }

    SegmentMeta meta;
    meta.seq = seq;
    meta.base_offset = offset;
    for (const auto& snapshot : hp.header.streams) {
      merge_stream(snapshot);
      delegate.on_stream(snapshot);
    }

    std::size_t at = hp.consumed;
    while (at < bytes.size()) {
      const auto fp = wire::parse_frame(bytes.subspan(at));
      if (fp.consumed == 0) {
        corrupt = true;
        last_corruption_ = Corruption{true, seq, at, fp.crc_expected, fp.crc_found,
                                      fp.reason != nullptr ? fp.reason : "?"};
        stats.truncated_bytes += bytes.size() - at;
        backend_.truncate(seq, at);
        break;
      }
      note_frame(meta, fp.frame);
      const Location payload{seq, at + wire::kFrameHeaderBytes,
                             static_cast<std::uint32_t>(fp.frame.payload.size())};
      delegate.on_frame(fp.frame, payload);
      ++stats.frames;
      at += fp.consumed;
    }
    meta.size = at;
    meta.sealed = true;
    offset += meta.size;
    segments_.push_back(std::move(meta));
  }

  tail_ = offset;
  if (segments_.empty()) {
    roll_segment();
  } else {
    segments_.back().sealed = false;
  }
  durable_ = tail_;
  submitted_ = tail_;
  ++recoveries_;
  truncated_bytes_total_ += stats.truncated_bytes;
  if (stats.truncated_bytes > 0) stats.corruption = last_corruption_;
  return stats;
}

void Wal::gc() {
  while (segments_.size() > 1) {
    const SegmentMeta& head = segments_.front();
    if (!head.sealed || head.has_db_snapshot) break;
    if (head.base_offset + head.size > durable_) break;
    bool dead = true;
    for (const auto& [stream, max_idx] : head.max_index) {
      const auto it = streams_.find(stream);
      if (it == streams_.end() || max_idx >= it->second.base) {
        dead = false;
        break;
      }
    }
    if (!dead) break;
    backend_.drop_segment(head.seq);
    ++gc_dropped_;
    segments_.pop_front();
  }
}

void Wal::drop_segments_below(std::uint64_t first_keep) {
  while (segments_.size() > 1 && segments_.front().seq < first_keep) {
    const SegmentMeta& head = segments_.front();
    GRYPHON_CHECK_MSG(head.sealed && head.base_offset + head.size <= durable_,
                      "snapshot compaction dropping a live segment");
    backend_.drop_segment(head.seq);
    ++gc_dropped_;
    segments_.pop_front();
  }
}

std::uint64_t Wal::live_bytes() const {
  std::uint64_t sum = 0;
  for (const SegmentMeta& s : segments_) sum += s.size;
  return sum;
}

std::string Wal::format_corruption(const Corruption& c) {
  if (!c.valid) return "no corruption recorded";
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "segment %llu offset %llu: %s (crc expected 0x%08X found 0x%08X)",
                static_cast<unsigned long long>(c.segment_seq),
                static_cast<unsigned long long>(c.offset), c.reason.c_str(),
                c.crc_expected, c.crc_found);
  return buf;
}

}  // namespace gryphon::storage
