// Unit tests: simulated disk, Log Volume / log streams, database tables —
// including the crash semantics every recovery path depends on.
#include <gtest/gtest.h>

#include <cstring>

#include "sim/simulator.hpp"
#include "storage/database.hpp"
#include "storage/log_volume.hpp"
#include "storage/sim_disk.hpp"

namespace gryphon::storage {
namespace {

std::vector<std::byte> payload(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

std::string as_string(std::span<const std::byte> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

// ---------------------------------------------------------------- SimDisk

TEST(SimDisk, SyncCompletesAfterLatencyAndTransfer) {
  sim::Simulator sim;
  SimDisk disk(sim, "d", {msec(4), 1e6, 1e6, msec(6)});
  SimTime done = 0;
  disk.write_and_sync(100'000, [&] { done = sim.now(); });  // 100ms transfer
  sim.run_until_idle();
  EXPECT_EQ(done, msec(104));
  EXPECT_EQ(disk.total_syncs(), 1u);
  EXPECT_EQ(disk.total_bytes_written(), 100'000u);
}

TEST(SimDisk, BarrierLatencyPipelinesAcrossCallers) {
  sim::Simulator sim;
  SimDisk disk(sim, "d", {msec(10), 1e9, 1e9, msec(6)});
  std::vector<SimTime> done;
  for (int i = 0; i < 4; ++i) {
    disk.write_and_sync(100, [&] { done.push_back(sim.now()); });
  }
  sim.run_until_idle();
  ASSERT_EQ(done.size(), 4u);
  // Tiny transfers: all four barriers complete ~concurrently (write cache).
  EXPECT_LT(done.back(), msec(11));
}

TEST(SimDisk, CrashDropsOutstandingCompletions) {
  sim::Simulator sim;
  SimDisk disk(sim, "d", {msec(4), 1e9, 1e9, msec(6)});
  bool completed = false;
  disk.write_and_sync(100, [&] { completed = true; });
  disk.crash();
  sim.run_until_idle();
  EXPECT_FALSE(completed);
}

TEST(SimDisk, ReadCostsSeekPlusTransfer) {
  sim::Simulator sim;
  SimDisk disk(sim, "d", {msec(4), 1e6, 1e6, msec(6)});
  SimTime done = 0;
  disk.read(1'000'000, [&] { done = sim.now(); });
  sim.run_until_idle();
  EXPECT_EQ(done, msec(6) + sec(1));
  EXPECT_EQ(disk.total_reads(), 1u);
}

TEST(SimDisk, RejectsIoWhileCrashed) {
  // A crashed disk must refuse IO loudly: a broker bug that keeps writing
  // after its node died should trip an invariant, not silently queue work.
  sim::Simulator sim;
  SimDisk disk(sim, "d", {msec(4), 1e9, 1e9, msec(6)});
  disk.crash();
  EXPECT_THROW(disk.write_and_sync(100, [] {}), InvariantViolation);
  EXPECT_THROW(disk.read(100, [] {}), InvariantViolation);
  EXPECT_THROW(disk.drop_unsynced(), InvariantViolation);
  disk.restart();
  bool ok = false;
  disk.write_and_sync(100, [&] { ok = true; });
  sim.run_until_idle();
  EXPECT_TRUE(ok);
}

TEST(SimDisk, PreCrashCompletionNeverFiresAfterRestart) {
  // The crash invalidates in-flight completions even if the disk restarts
  // before their scheduled completion time (generation check, not cancel).
  sim::Simulator sim;
  SimDisk disk(sim, "d", {msec(4), 1e6, 1e6, msec(6)});
  bool stale = false;
  disk.write_and_sync(100'000, [&] { stale = true; });  // done at ~104ms
  sim.run_until(msec(10));
  disk.crash();
  disk.restart();
  bool fresh = false;
  disk.write_and_sync(100, [&] { fresh = true; });
  sim.run_until_idle();
  EXPECT_FALSE(stale);
  EXPECT_TRUE(fresh);
}

TEST(SimDisk, InjectedStallDelaysCompletions) {
  sim::Simulator sim;
  SimDisk disk(sim, "d", {msec(4), 1e9, 1e9, msec(6)});
  disk.inject_stall(msec(500));
  SimTime done = 0;
  disk.write_and_sync(100, [&] { done = sim.now(); });
  sim.run_until_idle();
  EXPECT_GE(done, msec(500));
  EXPECT_EQ(disk.total_stalls(), 1u);
}

TEST(SimDisk, DropUnsyncedLosesPendingBarriersButNotReads) {
  sim::Simulator sim;
  SimDisk disk(sim, "d", {msec(4), 1e6, 1e6, msec(6)});
  bool write_done = false;
  bool read_done = false;
  disk.write_and_sync(100'000, [&] { write_done = true; });
  disk.read(100'000, [&] { read_done = true; });
  disk.drop_unsynced();
  sim.run_until_idle();
  EXPECT_FALSE(write_done);  // the torn sync ate the barrier
  EXPECT_TRUE(read_done);    // data already on the platter still returns
  EXPECT_EQ(disk.total_torn_syncs(), 1u);
}

TEST(SimDisk, SyncedAndDroppedByteAccounting) {
  sim::Simulator sim;
  SimDisk disk(sim, "d", {msec(4), 1e6, 1e6, msec(6)});
  disk.write_and_sync(1'000, [] {});
  sim.run_until_idle();
  EXPECT_EQ(disk.total_synced_bytes(), 1'000u);
  EXPECT_EQ(disk.total_dropped_bytes(), 0u);

  disk.write_and_sync(2'000, [] {});
  disk.drop_unsynced();  // barrier torn: its bytes count as dropped
  disk.write_and_sync(500, [] {});
  sim.run_until_idle();
  EXPECT_EQ(disk.total_synced_bytes(), 1'500u);
  EXPECT_EQ(disk.total_dropped_bytes(), 2'000u);
  // Every written byte is accounted exactly once at completion time.
  EXPECT_EQ(disk.total_bytes_written(),
            disk.total_synced_bytes() + disk.total_dropped_bytes());

  disk.write_and_sync(4'000, [] {});
  disk.crash();  // crash drops in-flight barriers the same way
  sim.run_until_idle();
  EXPECT_EQ(disk.total_dropped_bytes(), 6'000u);
}

// -------------------------------------------------------------- LogVolume

struct VolumeFixture : ::testing::Test {
  sim::Simulator sim;
  SimDisk disk{sim, "d", {msec(2), 1e9, 1e9, msec(1)}};
  LogVolume volume{disk};
};

TEST_F(VolumeFixture, AppendAssignsDenseMonotonicIndices) {
  const auto s = volume.open_stream("a");
  EXPECT_EQ(volume.append(s, payload("one")), 1u);
  EXPECT_EQ(volume.append(s, payload("two")), 2u);
  EXPECT_EQ(volume.append(s, payload("three")), 3u);
  EXPECT_EQ(volume.first_index(s), 1u);
  EXPECT_EQ(volume.next_index(s), 4u);
}

TEST_F(VolumeFixture, StreamsAreIndependent) {
  const auto a = volume.open_stream("a");
  const auto b = volume.open_stream("b");
  EXPECT_EQ(volume.append(a, payload("x")), 1u);
  EXPECT_EQ(volume.append(b, payload("y")), 1u);
  EXPECT_EQ(as_string(*volume.read(a, 1)), "x");
  EXPECT_EQ(as_string(*volume.read(b, 1)), "y");
}

TEST_F(VolumeFixture, OpenStreamIsIdempotentByName) {
  EXPECT_EQ(volume.open_stream("a"), volume.open_stream("a"));
  EXPECT_NE(volume.open_stream("a"), volume.open_stream("b"));
}

TEST_F(VolumeFixture, ChopDiscardsPrefixOnly) {
  const auto s = volume.open_stream("a");
  for (int i = 0; i < 10; ++i) volume.append(s, payload(std::to_string(i)));
  volume.chop(s, 4);
  EXPECT_EQ(volume.read(s, 4), std::nullopt);
  EXPECT_EQ(as_string(*volume.read(s, 5)), "4");
  EXPECT_EQ(volume.first_index(s), 5u);
  EXPECT_EQ(volume.next_index(s), 11u);
  // Chopping past the end clamps.
  volume.chop(s, 100);
  EXPECT_EQ(volume.first_index(s), 11u);
  // New appends continue the index space.
  EXPECT_EQ(volume.append(s, payload("new")), 11u);
}

TEST_F(VolumeFixture, SyncMakesRecordsDurable) {
  const auto s = volume.open_stream("a");
  volume.append(s, payload("one"));
  volume.append(s, payload("two"));
  EXPECT_EQ(volume.durable_index(s), kNoIndex);
  bool synced = false;
  volume.sync([&] { synced = true; });
  sim.run_until_idle();
  EXPECT_TRUE(synced);
  EXPECT_EQ(volume.durable_index(s), 2u);
}

TEST_F(VolumeFixture, GroupCommitCoalescesBarriers) {
  const auto s = volume.open_stream("a");
  int completions = 0;
  for (int i = 0; i < 20; ++i) {
    volume.append(s, payload("x"));
    volume.sync([&] { ++completions; });
  }
  sim.run_until_idle();
  EXPECT_EQ(completions, 20);
  // 20 sync requests but far fewer disk barriers (first starts immediately,
  // the rest coalesce into the second).
  EXPECT_LE(disk.total_syncs(), 3u);
}

TEST_F(VolumeFixture, CrashRollsBackToDurablePrefix) {
  const auto s = volume.open_stream("a");
  volume.append(s, payload("durable"));
  volume.sync([] {});
  sim.run_until_idle();
  volume.append(s, payload("lost1"));
  volume.append(s, payload("lost2"));
  volume.crash();
  EXPECT_EQ(volume.durable_index(s), 1u);
  EXPECT_EQ(volume.next_index(s), 2u);
  EXPECT_EQ(as_string(*volume.read(s, 1)), "durable");
  EXPECT_EQ(volume.read(s, 2), std::nullopt);
  // Indices continue densely after recovery.
  EXPECT_EQ(volume.append(s, payload("after")), 2u);
}

TEST_F(VolumeFixture, CrashDropsPendingSyncWaiters) {
  const auto s = volume.open_stream("a");
  volume.append(s, payload("x"));
  bool fired = false;
  volume.sync([&] { fired = true; });
  volume.crash();
  disk.crash();
  sim.run_until_idle();
  EXPECT_FALSE(fired);
}

TEST_F(VolumeFixture, TornSyncRacingChopReissuesOnlyLiveRecords) {
  // A release-protocol chop lands between a torn sync and its retry: the
  // re-issued barrier must cover only the still-live dirty records, and a
  // crash afterwards must recover exactly the post-chop suffix from bytes.
  const auto s = volume.open_stream("a");
  for (int i = 1; i <= 5; ++i) volume.append(s, payload("r" + std::to_string(i)));
  volume.sync([] {});
  sim.run_until_idle();
  ASSERT_EQ(volume.durable_index(s), 5u);

  for (int i = 6; i <= 10; ++i) volume.append(s, payload("r" + std::to_string(i)));
  bool synced = false;
  volume.sync([&] { synced = true; });  // barrier in flight covering 6..10

  disk.drop_unsynced();  // the covering barrier tears...
  volume.chop(s, 7);     // ...and the release protocol chops into the window
  volume.on_torn_sync();
  sim.run_until_idle();

  EXPECT_TRUE(synced);  // the waiter still got its durability, via the retry
  EXPECT_EQ(volume.durable_index(s), 10u);
  EXPECT_EQ(volume.first_index(s), 8u);

  // Recovery from bytes: appends 1..10 replay, the durable chop frame drops
  // 1..7 again, leaving exactly 8..10.
  volume.crash();
  EXPECT_EQ(volume.first_index(s), 8u);
  EXPECT_EQ(volume.next_index(s), 11u);
  EXPECT_EQ(volume.durable_index(s), 10u);
  EXPECT_EQ(volume.read(s, 7), std::nullopt);
  EXPECT_EQ(as_string(*volume.read(s, 8)), "r8");
  EXPECT_EQ(as_string(*volume.read(s, 10)), "r10");
  EXPECT_EQ(volume.append(s, payload("r11")), 11u);
}

TEST_F(VolumeFixture, RetainedBytesTracksChops) {
  const auto s = volume.open_stream("a");
  volume.append(s, payload("aaaa"));
  volume.append(s, payload("bbbb"));
  const auto per_record = 4 + kLogRecordHeaderBytes;
  EXPECT_EQ(volume.retained_bytes(), 2 * per_record);
  volume.chop(s, 1);
  EXPECT_EQ(volume.retained_bytes(), per_record);
}

// --------------------------------------------------------------- Database

struct DbFixture : ::testing::Test {
  sim::Simulator sim;
  SimDisk disk{sim, "d", {msec(2), 1e9, 1e9, msec(1)}};
  Database db{disk, 2};
};

TEST_F(DbFixture, CommitVisibleOnlyAfterBarrier) {
  db.commit(0, {{"t", "k", payload("v")}});
  EXPECT_FALSE(db.get("t", "k").has_value());
  sim.run_until_idle();
  ASSERT_TRUE(db.get("t", "k").has_value());
  EXPECT_EQ(as_string(*db.get("t", "k")), "v");
}

TEST_F(DbFixture, ConnectionBatchingCoalescesCommits) {
  for (int i = 0; i < 10; ++i) {
    db.commit(0, {{"t", "k" + std::to_string(i), payload("v")}});
  }
  sim.run_until_idle();
  EXPECT_EQ(db.committed_transactions(), 10u);
  // One barrier in flight + one covering the batched rest.
  EXPECT_LE(db.commit_barriers(), 2u);
}

TEST_F(DbFixture, ConnectionsCommitIndependently) {
  int done0 = 0;
  int done1 = 0;
  db.commit(0, {{"t", "a", payload("1")}}, [&] { ++done0; });
  db.commit(1, {{"t", "b", payload("2")}}, [&] { ++done1; });
  sim.run_until_idle();
  EXPECT_EQ(done0, 1);
  EXPECT_EQ(done1, 1);
}

TEST_F(DbFixture, CrashLosesUncommittedOnly) {
  db.commit(0, {{"t", "stable", payload("v")}});
  sim.run_until_idle();
  db.commit(0, {{"t", "doomed", payload("v")}});
  db.crash();
  disk.crash();
  sim.run_until_idle();
  EXPECT_TRUE(db.get("t", "stable").has_value());
  EXPECT_FALSE(db.get("t", "doomed").has_value());
}

TEST_F(DbFixture, EmptyValueDeletesRow) {
  db.commit(0, {{"t", "k", payload("v")}});
  sim.run_until_idle();
  db.commit(0, {{"t", "k", {}}});
  sim.run_until_idle();
  EXPECT_FALSE(db.get("t", "k").has_value());
}

TEST_F(DbFixture, ScanReturnsRowsInKeyOrder) {
  db.commit(0, {{"t", "b", payload("2")}, {"t", "a", payload("1")}, {"t", "c", payload("3")}});
  sim.run_until_idle();
  const auto rows = db.scan("t");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].first, "a");
  EXPECT_EQ(rows[2].first, "c");
  EXPECT_TRUE(db.scan("missing").empty());
}

TEST_F(DbFixture, ScanPrefixSelectsContiguousKeyRange) {
  db.commit(0, {{"t", "7:a", payload("1")},
                {"t", "7:b", payload("2")},
                {"t", "70:a", payload("3")},
                {"t", "8:a", payload("4")},
                {"t", "6:z", payload("5")}});
  sim.run_until_idle();
  // A terminated prefix ("7:") must not capture "70:..." or neighbours.
  const auto rows = db.scan_prefix("t", "7:");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, "7:a");
  EXPECT_EQ(rows[1].first, "7:b");
  EXPECT_EQ(db.scan_prefix("t", "70:").size(), 1u);
  EXPECT_TRUE(db.scan_prefix("t", "9:").empty());
  EXPECT_TRUE(db.scan_prefix("missing", "7:").empty());
  // Empty prefix degenerates to the full ordered scan.
  EXPECT_EQ(db.scan_prefix("t", "").size(), db.scan("t").size());
}

TEST_F(DbFixture, LastWriteInBatchWins) {
  db.commit(0, {{"t", "k", payload("first")}});
  db.commit(0, {{"t", "k", payload("second")}});
  sim.run_until_idle();
  EXPECT_EQ(as_string(*db.get("t", "k")), "second");
}

TEST_F(DbFixture, PerTxnOverheadSlowsCommits) {
  sim::Simulator sim2;
  SimDisk disk2{sim2, "d2", {msec(1), 1e9, 1e9, msec(1)}};
  Database slow{disk2, 1};
  slow.set_per_txn_overhead(msec(5));
  SimTime done = 0;
  slow.commit(0, {{"t", "k", payload("v")}}, [&] { done = sim2.now(); });
  sim2.run_until_idle();
  EXPECT_GE(done, msec(6));  // 5ms engine work + 1ms barrier
}

}  // namespace
}  // namespace gryphon::storage
