// Wal — a segmented append-only write-ahead log over a StorageBackend.
//
// The Wal is the byte-accurate half of the storage split: SimDisk decides
// *when* bytes become durable (barrier timing, torn syncs), the Wal decides
// *which* bytes exist and what survives a crash. Clients (LogVolume,
// Database) append CRC32C-framed records, track group-commit barriers with
// two watermarks over the global byte offset —
//
//   durable  <=  submitted  <=  tail
//      |             |            |
//      |             |            '-- appended (page cache only)
//      |             '-- under an issued-but-unacked disk barrier
//      '-- covered by a completed barrier
//
// — and on crash ask the Wal to truncate to what physically survived and
// replay the remaining frames through a Delegate. The surviving prefix is
//
//   durable + (crash_entropy % (submitted - durable + 1))
//
// clamped to [durable, submitted]: everything acked survives, nothing that
// was never handed to the device survives, and the seeded entropy (chaos
// schedules, the recovery_fuzz bench) picks how much of the in-flight barrier
// made it — landing mid-frame exercises the torn-tail truncation rule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "storage/segment.hpp"
#include "storage/storage_backend.hpp"

namespace gryphon::storage {

class Wal {
 public:
  struct Corruption {
    bool valid = false;  // true once a scan has found a torn/corrupt frame
    std::uint64_t segment_seq = 0;
    std::uint64_t offset = 0;  // byte offset within the segment
    std::uint32_t crc_expected = 0;
    std::uint32_t crc_found = 0;
    std::string reason;
  };

  struct RecoveryStats {
    std::uint64_t frames = 0;           // frames replayed through the delegate
    std::uint64_t truncated_bytes = 0;  // discarded past the valid prefix
    std::uint64_t dropped_segments = 0;
    Corruption corruption;  // valid iff truncated_bytes > 0
  };

  /// Where a frame's payload lives in the backend (StorageBackend::read).
  struct Location {
    std::uint64_t segment = 0;
    std::uint64_t offset = 0;
    std::uint32_t length = 0;
  };

  /// Receives the surviving log during a recovery scan, in byte order.
  class Delegate {
   public:
    virtual ~Delegate() = default;
    /// A stream-registry snapshot entry (from a segment header). May fire
    /// several times per stream with monotonically growing base/next.
    virtual void on_stream(const wire::StreamSnapshot& snapshot) = 0;
    /// A validated frame; `frame.payload` is only valid during the call.
    virtual void on_frame(const wire::FrameView& frame, Location payload) = 0;
  };

  Wal(StorageBackend& backend, std::uint32_t node_id, std::size_t segment_bytes);
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends one frame (rolling the segment first if full); returns where
  /// its payload lives.
  Location append(wire::FrameKind kind, LogStreamId stream, LogIndex index,
                  std::span<const std::byte> payload);

  [[nodiscard]] std::uint64_t tail_offset() const { return tail_; }
  [[nodiscard]] std::uint64_t durable_offset() const { return durable_; }
  [[nodiscard]] std::uint64_t submitted_offset() const { return submitted_; }

  /// A disk barrier covering bytes up to `offset` was issued / completed.
  void mark_submitted(std::uint64_t offset);
  void mark_durable(std::uint64_t offset);

  /// Seeds how much of the in-flight (submitted-but-unacked) region the next
  /// crash preserves; 0 (default) keeps only the durable prefix.
  void set_crash_entropy(std::uint64_t entropy) { crash_entropy_ = entropy; }

  /// Crash: truncate the backend to the surviving prefix (see header
  /// comment), rescan every byte, replay surviving frames through `delegate`
  /// and truncate the tail at the first torn/corrupt frame.
  RecoveryStats crash_and_recover(Delegate& delegate);

  /// Same, with an explicit surviving prefix (still clamped to
  /// [durable, submitted]) — the fuzzer's seeded crash points.
  RecoveryStats recover_surviving(std::uint64_t survive_offset, Delegate& delegate);

  /// Rescan of whatever the backend holds (no watermark truncation): adopt
  /// pre-existing WAL files from a previous process.
  RecoveryStats replay(Delegate& delegate);

  /// Drops dead head segments: sealed, fully durable, every append chopped.
  void gc();

  /// Drops all (sealed, fully durable) segments with seq < `first_keep` —
  /// Database snapshot compaction, once the snapshot frame is durable.
  void drop_segments_below(std::uint64_t first_keep);

  [[nodiscard]] std::uint64_t active_segment_seq() const {
    return segments_.back().seq;
  }
  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }
  [[nodiscard]] std::uint64_t live_bytes() const;
  [[nodiscard]] std::uint64_t gc_dropped_segments() const { return gc_dropped_; }
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }
  /// Cumulative torn-tail bytes discarded across all recoveries.
  [[nodiscard]] std::uint64_t truncated_bytes_total() const {
    return truncated_bytes_total_;
  }
  [[nodiscard]] const Corruption& last_corruption() const { return last_corruption_; }

  /// "segment 3 offset 1289: bad frame crc (expected 0x... found 0x...)" —
  /// the dump format the recovery fuzzer prints on a violation.
  [[nodiscard]] static std::string format_corruption(const Corruption& c);

 private:
  struct SegmentMeta {
    std::uint64_t seq = 0;
    std::uint64_t base_offset = 0;  // global offset of the segment's byte 0
    std::uint64_t size = 0;
    bool sealed = false;
    bool has_db_snapshot = false;
    /// Highest append index per stream in this segment (GC liveness).
    std::map<LogStreamId, LogIndex> max_index;
  };

  struct StreamMeta {
    std::string name;
    LogIndex base = 1;
    LogIndex next = 1;
  };

  void roll_segment();
  void maybe_roll();
  /// Registers a frame's effect on stream/segment metadata (shared between
  /// the append path and the recovery scan).
  void note_frame(SegmentMeta& seg, const wire::FrameView& frame);
  void merge_stream(const wire::StreamSnapshot& snapshot);
  RecoveryStats scan_and_rebuild(Delegate& delegate);

  StorageBackend& backend_;
  const std::uint32_t node_id_;
  const std::size_t segment_bytes_;

  std::deque<SegmentMeta> segments_;
  std::map<LogStreamId, StreamMeta> streams_;
  std::uint64_t next_seq_ = 1;

  std::uint64_t tail_ = 0;
  std::uint64_t durable_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t crash_entropy_ = 0;

  std::uint64_t gc_dropped_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t truncated_bytes_total_ = 0;
  Corruption last_corruption_;

  std::vector<std::byte> frame_buf_;  // reused append scratch
};

}  // namespace gryphon::storage
