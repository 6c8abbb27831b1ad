// Byte-level persistence engine tests: CRC32C, frame/segment wire format,
// Wal watermarks + torn-tail truncation, LogVolume/Database recovery from
// bytes, FileBackend round-trips, and a System-level crash-point smoke —
// the tier-1 face of `gryphon_bench recovery_fuzz`.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "harness/system.hpp"
#include "harness/workload.hpp"
#include "storage/crc32c.hpp"
#include "storage/database.hpp"
#include "storage/log_volume.hpp"
#include "storage/segment.hpp"
#include "storage/sim_disk.hpp"
#include "storage/storage_backend.hpp"
#include "storage/wal.hpp"

namespace gryphon::storage {
namespace {

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

std::span<const std::byte> span_of(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::string as_string(std::span<const std::byte> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

// ----------------------------------------------------------------- CRC32C

TEST(Crc32c, KnownAnswerAndChaining) {
  // Castagnoli known-answer test vector (RFC 3720 appendix B-ish classic).
  const std::string kat = "123456789";
  EXPECT_EQ(crc32c(span_of(kat)), 0xE3069283u);
  // Chained calls over a split buffer equal the one-shot CRC.
  const std::string a = "12345";
  const std::string b = "6789";
  EXPECT_EQ(crc32c(span_of(b), crc32c(span_of(a))), 0xE3069283u);
  EXPECT_EQ(crc32c({}), 0u);
}

// ------------------------------------------------------------- wire frame

TEST(WireFrame, RoundTrip) {
  const std::string payload = "hello, frame";
  std::vector<std::byte> buf;
  wire::append_frame(buf, wire::FrameKind::kAppend, 7, 42, span_of(payload));
  ASSERT_EQ(buf.size(), wire::kFrameHeaderBytes + payload.size());

  const auto fp = wire::parse_frame(buf);
  ASSERT_EQ(fp.consumed, buf.size());
  EXPECT_EQ(fp.frame.kind, wire::FrameKind::kAppend);
  EXPECT_EQ(fp.frame.stream, 7u);
  EXPECT_EQ(fp.frame.index, 42u);
  EXPECT_EQ(as_string(fp.frame.payload), payload);
}

TEST(WireFrame, EmptyPayloadRoundTrip) {
  std::vector<std::byte> buf;
  wire::append_frame(buf, wire::FrameKind::kChop, 3, 99, {});
  const auto fp = wire::parse_frame(buf);
  ASSERT_EQ(fp.consumed, wire::kFrameHeaderBytes);
  EXPECT_EQ(fp.frame.kind, wire::FrameKind::kChop);
  EXPECT_EQ(fp.frame.index, 99u);
  EXPECT_TRUE(fp.frame.payload.empty());
}

TEST(WireFrame, EveryTornPrefixIsRejected) {
  std::vector<std::byte> buf;
  wire::append_frame(buf, wire::FrameKind::kAppend, 1, 5, span_of("payload"));
  const std::span<const std::byte> all(buf);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    const auto fp = wire::parse_frame(all.subspan(0, cut));
    EXPECT_EQ(fp.consumed, 0u) << "prefix of " << cut << " bytes parsed";
    EXPECT_NE(fp.reason, nullptr);
  }
}

TEST(WireFrame, EveryFlippedByteIsRejected) {
  std::vector<std::byte> buf;
  wire::append_frame(buf, wire::FrameKind::kAppend, 1, 5, span_of("payload"));
  for (std::size_t i = 0; i < buf.size(); ++i) {
    std::vector<std::byte> bad = buf;
    bad[i] ^= std::byte{0x40};
    const auto fp = wire::parse_frame(bad);
    EXPECT_EQ(fp.consumed, 0u) << "flip at byte " << i << " parsed";
  }
  // A CRC failure reports both sides of the mismatch for the dump.
  std::vector<std::byte> bad = buf;
  bad[wire::kFrameHeaderBytes] ^= std::byte{0x01};  // first payload byte
  const auto fp = wire::parse_frame(bad);
  EXPECT_STREQ(fp.reason, "bad frame crc");
  EXPECT_NE(fp.crc_expected, fp.crc_found);
}

TEST(WireFrame, ImplausibleLengthIsCorruption) {
  std::vector<std::byte> buf;
  wire::append_frame(buf, wire::FrameKind::kAppend, 1, 5, span_of("x"));
  const std::uint32_t huge = (64u << 20) + 1;
  std::memcpy(buf.data(), &huge, sizeof huge);
  const auto fp = wire::parse_frame(buf);
  EXPECT_EQ(fp.consumed, 0u);
  EXPECT_STREQ(fp.reason, "implausible frame length");
}

// ----------------------------------------------------------- wire segment

TEST(WireSegment, HeaderRoundTrip) {
  wire::SegmentHeader header;
  header.node_id = 0xABCD1234;
  header.seq = 17;
  header.streams.push_back(wire::StreamSnapshot{0, "pfs.p1", 5, 12});
  header.streams.push_back(wire::StreamSnapshot{1, "pubend.2", 1, 1});

  std::vector<std::byte> buf;
  wire::append_segment_header(buf, header);
  const auto hp = wire::parse_segment_header(buf);
  ASSERT_EQ(hp.consumed, buf.size());
  EXPECT_EQ(hp.header.node_id, 0xABCD1234u);
  EXPECT_EQ(hp.header.seq, 17u);
  ASSERT_EQ(hp.header.streams.size(), 2u);
  EXPECT_EQ(hp.header.streams[0].name, "pfs.p1");
  EXPECT_EQ(hp.header.streams[0].base, 5u);
  EXPECT_EQ(hp.header.streams[0].next, 12u);
  EXPECT_EQ(hp.header.streams[1].name, "pubend.2");
}

TEST(WireSegment, BadMagicTornAndFlippedHeadersRejected) {
  wire::SegmentHeader header;
  header.node_id = 7;
  header.seq = 1;
  header.streams.push_back(wire::StreamSnapshot{0, "s", 1, 4});
  std::vector<std::byte> buf;
  wire::append_segment_header(buf, header);

  std::vector<std::byte> bad = buf;
  bad[0] ^= std::byte{0xFF};
  EXPECT_STREQ(wire::parse_segment_header(bad).reason, "bad segment magic");

  const std::span<const std::byte> all(buf);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    EXPECT_EQ(wire::parse_segment_header(all.subspan(0, cut)).consumed, 0u);
  }
  for (std::size_t i = 8; i < buf.size(); ++i) {  // flips behind the magic
    std::vector<std::byte> flip = buf;
    flip[i] ^= std::byte{0x20};
    EXPECT_EQ(wire::parse_segment_header(flip).consumed, 0u)
        << "flip at byte " << i << " parsed";
  }
}

// -------------------------------------------------------------------- Wal

/// Collects the replayed log for verification.
struct Collector final : Wal::Delegate {
  struct Frame {
    wire::FrameKind kind;
    LogStreamId stream;
    LogIndex index;
    std::string payload;
  };
  std::vector<wire::StreamSnapshot> streams;
  std::vector<Frame> frames;

  void on_stream(const wire::StreamSnapshot& snapshot) override {
    streams.push_back(snapshot);
  }
  void on_frame(const wire::FrameView& frame, Wal::Location) override {
    frames.push_back(Frame{frame.kind, frame.stream, frame.index,
                           as_string(frame.payload)});
  }
};

TEST(Wal, CrashKeepsDurablePrefixDropsUnsubmittedTail) {
  MemoryBackend backend;
  Wal wal(backend, 1, 64 * 1024);
  wal.append(wire::FrameKind::kOpenStream, 0, 1, span_of("s"));
  wal.append(wire::FrameKind::kAppend, 0, 1, span_of("a"));
  const std::uint64_t mark = wal.tail_offset();
  wal.mark_submitted(mark);
  wal.mark_durable(mark);
  wal.append(wire::FrameKind::kAppend, 0, 2, span_of("never-submitted"));

  Collector got;
  const auto stats = wal.crash_and_recover(got);
  // The unsubmitted record is physical page-cache loss, not a torn tail.
  EXPECT_EQ(stats.truncated_bytes, 0u);
  ASSERT_EQ(got.frames.size(), 2u);
  EXPECT_EQ(got.frames[1].kind, wire::FrameKind::kAppend);
  EXPECT_EQ(got.frames[1].index, 1u);
  EXPECT_EQ(got.frames[1].payload, "a");
  EXPECT_EQ(wal.recoveries(), 1u);
  // Recovery rebases offsets: everything scanned back in is durable.
  EXPECT_EQ(wal.tail_offset(), wal.durable_offset());
}

TEST(Wal, MidFrameTearIsTruncatedAndCounted) {
  MemoryBackend backend;
  Wal wal(backend, 1, 64 * 1024);
  wal.append(wire::FrameKind::kOpenStream, 0, 1, span_of("s"));
  wal.append(wire::FrameKind::kAppend, 0, 1, span_of("aa"));
  const std::uint64_t durable = wal.tail_offset();
  wal.mark_submitted(durable);
  wal.mark_durable(durable);
  wal.append(wire::FrameKind::kAppend, 0, 2, span_of("bb"));
  const std::uint64_t tail = wal.tail_offset();
  wal.mark_submitted(tail);  // in flight, never acked

  // Entropy 10 < frame size (21+2): the crash preserves 10 bytes of the
  // in-flight frame, which the scanner must then discard as a torn tail.
  wal.set_crash_entropy(10);
  Collector got;
  const auto stats = wal.crash_and_recover(got);
  EXPECT_EQ(stats.truncated_bytes, 10u);
  ASSERT_TRUE(stats.corruption.valid);
  EXPECT_STREQ(stats.corruption.reason.c_str(), "torn frame header");
  ASSERT_EQ(got.frames.size(), 2u);  // open + the durable append only
  EXPECT_EQ(got.frames[1].payload, "aa");
  EXPECT_EQ(wal.truncated_bytes_total(), 10u);

  const std::string dump = Wal::format_corruption(wal.last_corruption());
  EXPECT_NE(dump.find("segment"), std::string::npos);
  EXPECT_NE(dump.find("torn frame header"), std::string::npos);
}

TEST(Wal, FormatCorruptionWithoutCorruption) {
  EXPECT_EQ(Wal::format_corruption(Wal::Corruption{}), "no corruption recorded");
}

TEST(Wal, RollsSegmentsAndGcDropsChoppedHeads) {
  MemoryBackend backend;
  // Tiny segments: every few appends rolls a new one.
  Wal wal(backend, 1, 128);
  wal.append(wire::FrameKind::kOpenStream, 0, 1, span_of("s"));
  const std::string payload(40, 'x');
  for (LogIndex i = 1; i <= 12; ++i) {
    wal.append(wire::FrameKind::kAppend, 0, i, span_of(payload));
    const auto mark = wal.tail_offset();
    wal.mark_submitted(mark);
    wal.mark_durable(mark);
  }
  EXPECT_GT(wal.segment_count(), 3u);

  // Chop everything; every sealed head whose appends are all below the new
  // base is dead, and later headers carry the registry snapshot.
  wal.append(wire::FrameKind::kChop, 0, 12, {});
  const auto mark = wal.tail_offset();
  wal.mark_submitted(mark);
  wal.mark_durable(mark);
  const auto before = wal.segment_count();
  wal.gc();
  EXPECT_LT(wal.segment_count(), before);
  EXPECT_GT(wal.gc_dropped_segments(), 0u);

  // The dropped segments' effects must be recoverable from what remains:
  // merging surviving header snapshots with surviving frames reproduces the
  // final stream state (base and next both past the chop).
  Collector got;
  wal.crash_and_recover(got);
  ASSERT_FALSE(got.streams.empty());
  EXPECT_EQ(got.streams.back().name, "s");
  LogIndex base = 1;
  LogIndex next = 1;
  for (const auto& s : got.streams) {
    base = std::max(base, s.base);
    next = std::max(next, s.next);
  }
  for (const auto& f : got.frames) {
    if (f.kind == wire::FrameKind::kAppend) next = std::max(next, f.index + 1);
    if (f.kind == wire::FrameKind::kChop) base = std::max(base, f.index + 1);
  }
  next = std::max(next, base);
  EXPECT_EQ(base, 13u);
  EXPECT_EQ(next, 13u);
}

TEST(Wal, EveryCrashPointYieldsAValidReplayablePrefix) {
  // The Wal-level core of the recovery_fuzz bench: for EVERY byte offset in the
  // in-flight region, recovery must yield a clean prefix of the appended
  // records — never a gap, never trailing garbage, never a throw.
  const std::vector<std::string> records = {"alpha", "bravo", "charlie", "delta",
                                            "echo"};
  // Probe the full surviving range, measured from a throwaway build.
  std::uint64_t total_tail = 0;
  {
    MemoryBackend probe_backend;
    Wal probe(probe_backend, 1, 96);
    probe.append(wire::FrameKind::kOpenStream, 0, 1, span_of("s"));
    for (std::size_t i = 0; i < records.size(); ++i) {
      probe.append(wire::FrameKind::kAppend, 0, i + 1, span_of(records[i]));
    }
    total_tail = probe.tail_offset();
  }

  for (std::uint64_t survive = 0; survive <= total_tail; ++survive) {
    MemoryBackend backend;
    Wal wal(backend, 1, 96);
    wal.append(wire::FrameKind::kOpenStream, 0, 1, span_of("s"));
    for (std::size_t i = 0; i < records.size(); ++i) {
      wal.append(wire::FrameKind::kAppend, 0, i + 1, span_of(records[i]));
    }
    wal.mark_submitted(wal.tail_offset());  // everything in flight

    Collector got;
    const auto stats = wal.recover_surviving(survive, got);
    // Replayed appends are a dense prefix with intact payloads.
    std::size_t appends = 0;
    for (const auto& f : got.frames) {
      if (f.kind == wire::FrameKind::kOpenStream) {
        EXPECT_EQ(f.payload, "s");
        continue;
      }
      ASSERT_EQ(f.kind, wire::FrameKind::kAppend);
      ASSERT_LT(appends, records.size());
      EXPECT_EQ(f.index, appends + 1);
      EXPECT_EQ(f.payload, records[appends]);
      ++appends;
    }
    // Recovery rebases offsets: everything scanned back in is durable.
    EXPECT_EQ(wal.tail_offset(), wal.durable_offset());
    if (stats.truncated_bytes > 0) {
      EXPECT_TRUE(stats.corruption.valid);
    }
    // Appending after recovery continues cleanly.
    wal.append(wire::FrameKind::kAppend, 0, appends + 1, span_of("after"));
  }
}

// ------------------------------------------------- LogVolume from bytes

TEST(LogVolumeBytes, TornTailCrashRecoversPrefixAndCountsTruncation) {
  sim::Simulator sim;
  SimDisk disk(sim, "d", {msec(2), 1e9, 1e9, msec(1)});
  LogVolume volume(disk);
  MetricsRegistry metrics("d");
  LogVolume::Instruments ins;
  ins.recoveries = metrics.counter("wal.recoveries");
  ins.recovery_truncated_bytes = metrics.counter("wal.recovery_truncated_bytes");
  ins.torn_tail_recoveries = metrics.counter("wal.torn_tail_recoveries");
  ins.group_commit_bytes = metrics.histogram("wal.group_commit_size", 1.0, 1e8);
  volume.bind_instruments(ins);

  const auto s = volume.open_stream("a");
  for (int i = 1; i <= 3; ++i) volume.append(s, bytes_of("d" + std::to_string(i)));
  volume.sync([] {});
  sim.run_until_idle();
  ASSERT_EQ(volume.durable_index(s), 3u);

  for (int i = 4; i <= 8; ++i) volume.append(s, bytes_of("v" + std::to_string(i)));
  volume.sync([] {});  // barrier in flight covering 4..8

  // 10 bytes into the first in-flight frame (each frame is 21+2 bytes):
  // mid-frame tear, so recovery must truncate and count it.
  volume.set_crash_entropy(10);
  volume.crash();

  EXPECT_EQ(volume.next_index(s), 4u);  // records 4..8 lost to the tear
  EXPECT_EQ(volume.durable_index(s), 3u);
  for (LogIndex i = 1; i <= 3; ++i) {
    ASSERT_NE(volume.read(s, i), std::nullopt);
    EXPECT_EQ(as_string(*volume.read(s, i)), "d" + std::to_string(i));
  }
  EXPECT_EQ(volume.wal().truncated_bytes_total(), 10u);
  EXPECT_EQ(metrics.counter("wal.recoveries")->get(), 1u);
  EXPECT_EQ(metrics.counter("wal.recovery_truncated_bytes")->get(), 10u);
  EXPECT_EQ(metrics.counter("wal.torn_tail_recoveries")->get(), 1u);

  // Life goes on: the stream accepts appends and syncs after recovery.
  EXPECT_EQ(volume.append(s, bytes_of("post")), 4u);
  bool synced = false;
  volume.sync([&] { synced = true; });
  sim.run_until_idle();
  EXPECT_TRUE(synced);
  EXPECT_EQ(volume.durable_index(s), 4u);
}

TEST(LogVolumeBytes, EntropySweepAlwaysRecoversDensePrefix) {
  // LogVolume-level mini-fuzz: across many seeded tear points, recovery must
  // always produce records 1..k for some durable-covering k, with intact
  // payloads — the invariant the full fuzzer checks end-to-end.
  for (std::uint64_t entropy = 0; entropy < 160; entropy += 7) {
    sim::Simulator sim;
    SimDisk disk(sim, "d", {msec(2), 1e9, 1e9, msec(1)});
    LogVolume volume(disk);
    const auto s = volume.open_stream("a");
    for (int i = 1; i <= 4; ++i) volume.append(s, bytes_of("x" + std::to_string(i)));
    volume.sync([] {});
    sim.run_until_idle();
    for (int i = 5; i <= 9; ++i) volume.append(s, bytes_of("x" + std::to_string(i)));
    volume.sync([] {});  // in flight

    volume.set_crash_entropy(entropy);
    volume.crash();

    const LogIndex next = volume.next_index(s);
    ASSERT_GE(next, 5u) << "durable records lost at entropy " << entropy;
    ASSERT_LE(next, 10u);
    for (LogIndex i = 1; i < next; ++i) {
      ASSERT_NE(volume.read(s, i), std::nullopt) << "gap at " << i;
      EXPECT_EQ(as_string(*volume.read(s, i)), "x" + std::to_string(i));
    }
    EXPECT_EQ(volume.durable_index(s), next - 1);
  }
}

TEST(LogVolumeBytes, ReadsComeFromTheSegmentBytes) {
  // The segment file is the only copy of a record: rewrite one frame in
  // place (same length, fresh CRC) and read() returns the new payload.
  const std::string dir = "test_wal_files.reads";
  std::filesystem::remove_all(dir);
  StorageOptions options;
  options.file_dir = dir;
  sim::Simulator sim;
  SimDisk disk(sim, "node.disk");
  LogVolume volume(disk, options);
  const LogStreamId s = volume.open_stream("s");
  for (int i = 1; i <= 3; ++i) volume.append(s, bytes_of("old" + std::to_string(i)));

  const std::string path = std::filesystem::directory_iterator(dir)->path().string();
  std::string file;
  {
    std::ifstream in(path, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::size_t payload_at = file.find("old2");
  ASSERT_NE(payload_at, std::string::npos);
  std::vector<std::byte> frame;
  wire::append_frame(frame, wire::FrameKind::kAppend, s, 2, span_of("new2"));
  file.replace(payload_at - wire::kFrameHeaderBytes, frame.size(), as_string(frame));
  std::ofstream(path, std::ios::binary) << file;

  EXPECT_EQ(as_string(*volume.read(s, 2)), "new2");
  EXPECT_EQ(as_string(*volume.read(s, 1)), "old1");
  EXPECT_EQ(as_string(*volume.read(s, 3)), "old3");
  std::filesystem::remove_all(dir);
}

// -------------------------------------------------- Database from bytes

TEST(DatabaseBytes, TornSyncRetriesBatchAndSurvivesCrash) {
  sim::Simulator sim;
  SimDisk disk(sim, "d", {msec(2), 1e9, 1e9, msec(1)});
  Database db(disk, 1);
  bool committed = false;
  db.commit(0, {{"t", "k", bytes_of("v")}}, [&] { committed = true; });
  disk.drop_unsynced();
  db.on_torn_sync();
  sim.run_until_idle();
  EXPECT_TRUE(committed);
  ASSERT_TRUE(db.get("t", "k").has_value());

  db.crash();
  disk.crash();
  disk.restart();
  ASSERT_TRUE(db.get("t", "k").has_value());
  EXPECT_EQ(as_string(*db.get("t", "k")), "v");
}

TEST(DatabaseBytes, SnapshotCompactionDropsSegmentsAndStillRecovers) {
  sim::Simulator sim;
  SimDisk disk(sim, "d", {msec(2), 1e9, 1e9, msec(1)});
  StorageOptions options;
  options.segment_bytes = 512;
  options.db_compact_bytes = 2048;
  Database db(disk, 1, options);

  const std::string value(100, 'v');
  for (int i = 0; i < 60; ++i) {
    db.commit(0, {{"t", "k" + std::to_string(i % 10), bytes_of(value)}});
    sim.run_until_idle();
  }
  EXPECT_GT(db.snapshot_compactions(), 0u);
  // Compaction keeps the WAL near its budget instead of growing unboundedly.
  EXPECT_LT(db.wal().live_bytes(), 4096u);

  db.crash();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.get("t", "k" + std::to_string(i)).has_value()) << "row " << i;
    EXPECT_EQ(as_string(*db.get("t", "k" + std::to_string(i))), value);
  }
  EXPECT_FALSE(db.get("t", "missing").has_value());
}

TEST(DatabaseBytes, TornTailCrashKeepsCommittedRowsOnly) {
  sim::Simulator sim;
  SimDisk disk(sim, "d", {msec(2), 1e9, 1e9, msec(1)});
  Database db(disk, 1);
  db.commit(0, {{"t", "stable", bytes_of("v")}});
  sim.run_until_idle();
  db.commit(0, {{"t", "doomed", bytes_of("w")}});  // barrier in flight

  db.set_crash_entropy(13);  // mid-frame slice of the in-flight batch
  db.crash();
  disk.crash();
  disk.restart();
  EXPECT_TRUE(db.get("t", "stable").has_value());
  EXPECT_FALSE(db.get("t", "doomed").has_value());
  EXPECT_GT(db.wal().recoveries(), 0u);
}

// ------------------------------------------------------------ FileBackend

TEST(FileBackendTest, SegmentsRoundTripAcrossInstances) {
  // Relative path: lands under the ctest working directory, stays hermetic.
  const std::string dir = "test_wal_files.segments";
  std::filesystem::remove_all(dir);

  const auto data = bytes_of("0123456789");
  {
    FileBackend fb(dir, "t");
    fb.create_segment(3);
    fb.append(3, data);
    fb.create_segment(7);
    fb.append(7, data);
    fb.truncate(7, 4);
    fb.drop_segment(3);
  }
  {
    FileBackend fb(dir, "t");
    const auto segs = fb.segments();
    ASSERT_EQ(segs.size(), 1u);
    EXPECT_EQ(segs[0], 7u);
    EXPECT_EQ(fb.size(7), 4u);
    EXPECT_EQ(as_string(fb.read(7, 0, 4)), "0123");
  }
  std::filesystem::remove_all(dir);
}

TEST(FileBackendTest, IgnoresNonCanonicalSegmentNames) {
  // A stray or copied file must not stop a broker from adopting its WAL
  // directory: only names the backend itself writes are segments.
  const std::string dir = "test_wal_files.names";
  std::filesystem::remove_all(dir);
  {
    FileBackend fb(dir, "t");
    fb.create_segment(3);
    fb.append(3, bytes_of("three"));
  }
  for (const char* name : {"t-007.wal", "t-99999999999999999999999.wal", "t-+7.wal",
                           "t-7x.wal", "t-.wal"}) {
    std::ofstream(dir + "/" + name) << "junk";
  }
  FileBackend fb(dir, "t");
  EXPECT_EQ(fb.segments(), std::vector<std::uint64_t>{3});
  EXPECT_EQ(fb.size(3), 5u);
  std::filesystem::remove_all(dir);
}

TEST(FileBackendTest, WalAdoptsPreexistingFilesViaReplay) {
  const std::string dir = "test_wal_files.adopt";
  std::filesystem::remove_all(dir);
  {
    FileBackend fb(dir, "w");
    Wal wal(fb, 42, 64 * 1024);
    wal.append(wire::FrameKind::kOpenStream, 0, 1, span_of("s"));
    wal.append(wire::FrameKind::kAppend, 0, 1, span_of("persisted"));
    const auto mark = wal.tail_offset();
    wal.mark_submitted(mark);
    wal.mark_durable(mark);
  }
  {
    // A new process over the same directory: replay() recovers the log from
    // the real files alone.
    FileBackend fb(dir, "w");
    Wal wal(fb, 42, 64 * 1024);
    Collector got;
    wal.replay(got);
    std::size_t appends = 0;
    for (const auto& f : got.frames) {
      if (f.kind != wire::FrameKind::kAppend) continue;
      EXPECT_EQ(f.payload, "persisted");
      ++appends;
    }
    EXPECT_EQ(appends, 1u);
  }
  std::filesystem::remove_all(dir);
}

TEST(FileBackendTest, ReadoptionAfterGcOfTheAdoptedSegments) {
  // A restarted process appends after adopting, then GC drops every segment
  // it adopted. The segments left must still name the stream, or the next
  // restart cannot replay them (an adoption-time segment used to snapshot
  // an empty stream registry into its header).
  const std::string dir = "test_wal_files.readopt";
  std::filesystem::remove_all(dir);
  StorageOptions options;
  options.file_dir = dir;
  options.segment_bytes = 256;  // a few records per segment
  const std::vector<std::byte> record(64, std::byte{7});
  auto make_durable = [](sim::Simulator& sim, LogVolume& volume) {
    volume.sync([] {});
    sim.run_until_idle();
  };
  LogIndex kept = kNoIndex;
  {
    sim::Simulator sim;
    SimDisk disk(sim, "node.disk");
    LogVolume volume(disk, options);
    const LogStreamId s = volume.open_stream("s");
    for (int i = 0; i < 8; ++i) volume.append(s, record);
    make_durable(sim, volume);
  }
  {
    sim::Simulator sim;
    SimDisk disk(sim, "node.disk");
    LogVolume volume(disk, options);
    volume.adopt();
    const LogStreamId s = volume.open_stream("s");
    kept = volume.append(s, record);
    make_durable(sim, volume);
    volume.chop(s, kept - 1);  // every adopted record is dead
    make_durable(sim, volume);
    EXPECT_GT(volume.wal().gc_dropped_segments(), 0u);
  }
  {
    sim::Simulator sim;
    SimDisk disk(sim, "node.disk");
    LogVolume volume(disk, options);
    volume.adopt();
    const LogStreamId s = volume.open_stream("s");
    EXPECT_EQ(volume.first_index(s), kept);
    EXPECT_EQ(volume.next_index(s), kept + 1);
    ASSERT_NE(volume.read(s, kept), std::nullopt);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gryphon::storage

// ------------------------------------------------- System-level smoke

namespace gryphon {
namespace {

TEST(SystemRecoveryFuzzSmoke, SeededCrashPointsKeepExactlyOnce) {
  // Miniature recovery_fuzz bench: a handful of seeded crash points through
  // the full broker stack, each recovering PHB or SHB state from WAL bytes,
  // all verified by the delivery oracle. Deterministic; tier-1 fast.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    harness::SystemConfig config;
    config.num_pubends = 2;
    config.num_shbs = 1;
    harness::System system(config);
    harness::PaperWorkloadConfig wl;
    wl.input_rate_eps = 200;
    harness::start_paper_publishers(system, wl);
    harness::add_group_subscribers(system, 0, 4, 4, 1);
    system.run_for(sec(3));

    auto& node = seed % 2 == 0 ? system.phb_node() : system.shb_node(0);
    node.log_volume.set_crash_entropy(seed * 0x9E3779B97F4A7C15ull);
    node.database.set_crash_entropy(seed * 0xC2B2AE3D27D4EB4Full);
    if (seed % 2 == 0) {
      system.crash_phb();
      system.run_for(sec(2));
      system.restart_phb();
    } else {
      system.crash_shb(0);
      system.run_for(sec(2));
      system.restart_shb(0);
    }
    system.run_for(sec(20));
    system.verify_quiescent();
    EXPECT_GE(node.metrics.counter("wal.recoveries")->get(), 1u);
  }
}

TEST(SystemRecoveryFuzzSmoke, SeededTornSyncsSettleCleanly) {
  harness::SystemConfig config;
  config.num_pubends = 2;
  config.num_shbs = 1;
  harness::System system(config);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  harness::start_paper_publishers(system, wl);
  harness::add_group_subscribers(system, 0, 4, 4, 1);
  system.run_for(sec(2));
  system.torn_sync_phb(0x1234);
  system.run_for(sec(1));
  system.torn_sync_shb(0, 0x5678);
  system.run_for(sec(10));
  system.verify_quiescent();
}

}  // namespace
}  // namespace gryphon
