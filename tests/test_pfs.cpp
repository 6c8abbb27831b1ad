// Unit tests for the Persistent Filtering Subsystem: record format and byte
// accounting, back-pointer batch reads, buffer limits, chop interaction,
// metadata durability and crash recovery.
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/simulator.hpp"
#include "core/pfs.hpp"
#include "core/sharding.hpp"

namespace gryphon::core {
namespace {

struct PfsFixture : ::testing::Test {
  sim::Simulator sim;
  sim::LinkNetwork net{sim};
  BrokerConfig config{};
  NodeResources node{sim, net, "shb", config,
                     storage::DiskConfig{msec(2), 1e9, 1e9, msec(1)}};
  CostModel costs{};
  PersistentFilteringSubsystem pfs{node, costs};
  const PubendId p1{1};
  const PubendId p2{2};

  void SetUp() override { pfs.open({p1, p2}); }

  static std::vector<Tick> ticks(const PersistentFilteringSubsystem::ReadResult& r) {
    std::vector<Tick> out;
    for (const TickRange& range : r.q_ranges) {
      for (Tick t = range.from; t <= range.to; ++t) out.push_back(t);
    }
    return out;
  }

  PersistentFilteringSubsystem::ReadResult read_sync(PubendId p, SubscriberId s,
                                                     Tick from, std::size_t max_q) {
    PersistentFilteringSubsystem::ReadResult out;
    bool done = false;
    pfs.read(p, s, from, max_q, [&](PersistentFilteringSubsystem::ReadResult r) {
      out = std::move(r);
      done = true;
    });
    sim.run_until_idle();
    EXPECT_TRUE(done);
    return out;
  }
};

TEST_F(PfsFixture, RecordBytesMatchPaperFormula) {
  EXPECT_EQ(PersistentFilteringSubsystem::record_bytes(1), 24u);
  EXPECT_EQ(PersistentFilteringSubsystem::record_bytes(25), 8u + 16 * 25);
}

TEST(PfsRecordFormat, PaperAccountingConstants) {
  // §4.2's "8 + 16·n bytes" split into its named constants; the wire encoder
  // is static-asserted against these in pfs.cpp, so drift fails the build.
  using P = PersistentFilteringSubsystem;
  EXPECT_EQ(P::kRecordFixedBytes, 8u);
  EXPECT_EQ(P::kRangeRecordFixedBytes, 16u);
  EXPECT_EQ(P::kPerSubscriberBytes, 16u);
  EXPECT_EQ(P::record_bytes(200), 8u + 16u * 200u);
  EXPECT_EQ(P::range_record_bytes(3, /*ranged=*/true), 16u + 16u * 3u);
  EXPECT_EQ(P::range_record_bytes(3, /*ranged=*/false), P::record_bytes(3));
}

TEST_F(PfsFixture, AppendTracksLastTimestampAndBytes) {
  pfs.append(p1, 10, {SubscriberId{1}, SubscriberId{2}});
  pfs.append(p1, 12, {SubscriberId{2}});
  EXPECT_EQ(pfs.last_timestamp(p1), 12);
  EXPECT_EQ(pfs.last_timestamp(p2), kTickZero);
  EXPECT_EQ(pfs.records_written(), 2u);
  EXPECT_EQ(pfs.payload_bytes_written(), (8 + 32) + (8 + 16));
}

TEST_F(PfsFixture, NonMonotonicAppendThrows) {
  pfs.append(p1, 10, {SubscriberId{1}});
  EXPECT_THROW(pfs.append(p1, 10, {SubscriberId{1}}), InvariantViolation);
  EXPECT_THROW(pfs.append(p1, 9, {SubscriberId{1}}), InvariantViolation);
  EXPECT_THROW(pfs.append(p1, 11, {}), InvariantViolation);
}

TEST_F(PfsFixture, ReadReturnsOnlySubscribersQTicks) {
  pfs.append(p1, 10, {SubscriberId{1}, SubscriberId{2}});
  pfs.append(p1, 20, {SubscriberId{2}});
  pfs.append(p1, 30, {SubscriberId{1}});
  pfs.append(p1, 40, {SubscriberId{3}});

  const auto r = read_sync(p1, SubscriberId{1}, 0, 100);
  EXPECT_EQ(ticks(r), (std::vector<Tick>{10, 30}));
  EXPECT_EQ(r.covered_upto, 40);
  EXPECT_EQ(r.complete_from, 0);
  EXPECT_TRUE(r.reached_last);
  // Walks only the records containing subscriber 1.
  EXPECT_EQ(r.records_traversed, 2u);
}

TEST_F(PfsFixture, ReadFromMidStream) {
  for (Tick t = 10; t <= 100; t += 10) pfs.append(p1, t, {SubscriberId{1}});
  const auto r = read_sync(p1, SubscriberId{1}, 45, 100);
  EXPECT_EQ(ticks(r), (std::vector<Tick>{50, 60, 70, 80, 90, 100}));
  EXPECT_EQ(r.complete_from, 45);
}

TEST_F(PfsFixture, ReadBufferLimitReturnsOldestFirst) {
  for (Tick t = 1; t <= 50; ++t) pfs.append(p1, t * 10, {SubscriberId{1}});
  const auto r = read_sync(p1, SubscriberId{1}, 0, 10);
  ASSERT_EQ(ticks(r).size(), 10u);
  EXPECT_EQ(ticks(r).front(), 10);
  EXPECT_EQ(ticks(r).back(), 100);
  EXPECT_EQ(r.covered_upto, 100);
  EXPECT_FALSE(r.reached_last);
  // Next read resumes where coverage stopped.
  const auto r2 = read_sync(p1, SubscriberId{1}, r.covered_upto, 100);
  EXPECT_EQ(ticks(r2).size(), 40u);
  EXPECT_TRUE(r2.reached_last);
}

TEST_F(PfsFixture, ReadForUnknownSubscriberIsAllSilence) {
  pfs.append(p1, 10, {SubscriberId{1}});
  const auto r = read_sync(p1, SubscriberId{99}, 0, 10);
  EXPECT_TRUE(r.q_ranges.empty());
  EXPECT_EQ(r.covered_upto, 10);
  EXPECT_TRUE(r.reached_last);
}

TEST_F(PfsFixture, StreamsArePerPubend) {
  pfs.append(p1, 10, {SubscriberId{1}});
  pfs.append(p2, 11, {SubscriberId{1}});
  const auto r1 = read_sync(p1, SubscriberId{1}, 0, 10);
  const auto r2 = read_sync(p2, SubscriberId{1}, 0, 10);
  EXPECT_EQ(ticks(r1), (std::vector<Tick>{10}));
  EXPECT_EQ(ticks(r2), (std::vector<Tick>{11}));
}

TEST_F(PfsFixture, ChopTruncatesWalkWithCompleteFrom) {
  for (Tick t = 10; t <= 100; t += 10) pfs.append(p1, t, {SubscriberId{1}});
  pfs.chop_upto(p1, 50);
  const auto r = read_sync(p1, SubscriberId{1}, 0, 100);
  EXPECT_EQ(ticks(r), (std::vector<Tick>{60, 70, 80, 90, 100}));
  EXPECT_EQ(r.complete_from, 50);  // (0, 50] unknown: chopped
  // Reads above the chop are untruncated.
  const auto r2 = read_sync(p1, SubscriberId{1}, 55, 100);
  EXPECT_EQ(r2.complete_from, 55);
}

TEST_F(PfsFixture, SyncAdvancesDurableTimestamp) {
  pfs.append(p1, 10, {SubscriberId{1}});
  EXPECT_EQ(pfs.durable_timestamp(p1), kTickZero);
  bool synced = false;
  pfs.sync([&] { synced = true; });
  sim.run_until_idle();
  EXPECT_TRUE(synced);
  EXPECT_EQ(pfs.durable_timestamp(p1), 10);
}

TEST_F(PfsFixture, DirtyMetadataOnlyAfterDurability) {
  pfs.append(p1, 10, {SubscriberId{1}});
  // Dirty rows reflect only durable state; nothing synced yet beyond the
  // initial open() snapshot.
  auto puts0 = pfs.dirty_metadata();
  pfs.sync([] {});
  sim.run_until_idle();
  const auto puts = pfs.dirty_metadata();
  EXPECT_FALSE(puts.empty());
  EXPECT_TRUE(pfs.dirty_metadata().empty());  // clean after harvest
}

TEST_F(PfsFixture, RecoveryRepairsMetadataByForwardScan) {
  // Write + sync records, but never commit the metadata rows to the DB —
  // recovery must rebuild lastTimestamp/lastIndex by scanning the log.
  pfs.append(p1, 10, {SubscriberId{1}, SubscriberId{2}});
  pfs.append(p1, 20, {SubscriberId{2}});
  pfs.sync([] {});
  sim.run_until_idle();
  pfs.append(p1, 30, {SubscriberId{1}});  // never synced: lost in the crash

  node.crash();
  node.restart();
  PersistentFilteringSubsystem pfs2(node, costs);
  pfs2.open({p1, p2});
  EXPECT_EQ(pfs2.last_timestamp(p1), 20);

  bool done = false;
  pfs2.read(p1, SubscriberId{1}, 0, 10,
            [&](PersistentFilteringSubsystem::ReadResult r) {
              EXPECT_EQ(ticks(r), (std::vector<Tick>{10}));
              done = true;
            });
  sim.run_until_idle();
  EXPECT_TRUE(done);
  // Appends continue monotonically past the durable suffix.
  pfs2.append(p1, 25, {SubscriberId{1}});
  EXPECT_EQ(pfs2.last_timestamp(p1), 25);
}

TEST_F(PfsFixture, RecoveryUsesCommittedMetadataSnapshot) {
  for (Tick t = 10; t <= 200; t += 10) pfs.append(p1, t, {SubscriberId{1}});
  pfs.sync([] {});
  sim.run_until_idle();
  // Commit the metadata snapshot like the SHB's periodic commit does.
  node.database.commit(0, pfs.dirty_metadata());
  sim.run_until_idle();

  node.crash();
  node.restart();
  PersistentFilteringSubsystem pfs2(node, costs);
  pfs2.open({p1, p2});
  EXPECT_EQ(pfs2.last_timestamp(p1), 200);
  const auto stats_before = pfs2.reads_issued();
  bool done = false;
  pfs2.read(p1, SubscriberId{1}, 150, 100,
            [&](PersistentFilteringSubsystem::ReadResult r) {
              EXPECT_EQ(ticks(r), (std::vector<Tick>{160, 170, 180, 190, 200}));
              done = true;
            });
  sim.run_until_idle();
  EXPECT_TRUE(done);
  EXPECT_EQ(pfs2.reads_issued(), stats_before + 1);
}

TEST_F(PfsFixture, ReadsReachedLastStatistic) {
  for (Tick t = 10; t <= 100; t += 10) pfs.append(p1, t, {SubscriberId{1}});
  (void)read_sync(p1, SubscriberId{1}, 0, 100);  // reaches last
  (void)read_sync(p1, SubscriberId{1}, 0, 3);    // truncated by buffer
  EXPECT_EQ(pfs.reads_issued(), 2u);
  EXPECT_EQ(pfs.reads_reached_last(), 1u);
}

// ------------------------------------------------- sharding (DESIGN.md §4.8)

struct ShardedPfsFixture : ::testing::Test {
  static constexpr std::size_t kShards = 4;

  sim::Simulator sim;
  sim::LinkNetwork net{sim};
  BrokerConfig config{};
  NodeResources node{sim, net, "shb", config,
                     storage::DiskConfig{msec(2), 1e9, 1e9, msec(1)}};
  CostModel costs{};
  PersistentFilteringSubsystem pfs{node, costs, kShards};
  const PubendId p1{1};

  void SetUp() override { pfs.open({p1}); }

  /// First subscriber id >= lo that hashes to `shard`.
  static SubscriberId id_in_shard(std::uint32_t lo, std::size_t shard) {
    for (std::uint32_t v = lo;; ++v) {
      if (subscriber_shard(SubscriberId{v}, kShards) == shard) return SubscriberId{v};
    }
  }

  static std::vector<Tick> ticks(const PersistentFilteringSubsystem::ReadResult& r) {
    std::vector<Tick> out;
    for (const TickRange& range : r.q_ranges) {
      for (Tick t = range.from; t <= range.to; ++t) out.push_back(t);
    }
    return out;
  }

  PersistentFilteringSubsystem::ReadResult read_sync(PersistentFilteringSubsystem& p,
                                                     SubscriberId s, Tick from,
                                                     std::size_t max_q) {
    PersistentFilteringSubsystem::ReadResult out;
    bool done = false;
    p.read(p1, s, from, max_q, [&](PersistentFilteringSubsystem::ReadResult r) {
      out = std::move(r);
      done = true;
    });
    sim.run_until_idle();
    EXPECT_TRUE(done);
    return out;
  }
};

TEST_F(ShardedPfsFixture, AppendSplitsOneRecordPerNonEmptyShard) {
  const SubscriberId a = id_in_shard(1, 0);
  const SubscriberId b = id_in_shard(a.value() + 1, 1);
  const SubscriberId c = id_in_shard(b.value() + 1, 1);  // same shard as b
  std::vector<SubscriberId> matching{a, b, c};
  std::sort(matching.begin(), matching.end());
  pfs.append(p1, 10, matching);
  // Two non-empty shards => two records; entry bytes unchanged by the split.
  EXPECT_EQ(pfs.records_written(), 2u);
  EXPECT_EQ(pfs.payload_bytes_written(),
            2 * PersistentFilteringSubsystem::kRecordFixedBytes +
                3 * PersistentFilteringSubsystem::kPerSubscriberBytes);
  EXPECT_EQ(pfs.last_timestamp(p1), 10);
}

TEST_F(ShardedPfsFixture, ReadWalksOnlyTheOwningShardChain) {
  const SubscriberId a = id_in_shard(1, 0);
  const SubscriberId b = id_in_shard(a.value() + 1, 3);
  for (Tick t = 10; t <= 100; t += 10) {
    std::vector<SubscriberId> matching =
        (t % 20 == 0) ? std::vector<SubscriberId>{a, b} : std::vector<SubscriberId>{b};
    std::sort(matching.begin(), matching.end());
    pfs.append(p1, t, matching);
  }
  const auto ra = read_sync(pfs, a, 0, 100);
  EXPECT_EQ(ticks(ra), (std::vector<Tick>{20, 40, 60, 80, 100}));
  EXPECT_TRUE(ra.reached_last);
  const auto rb = read_sync(pfs, b, 0, 100);
  EXPECT_EQ(ticks(rb).size(), 10u);
  // a's walk must only traverse records in a's shard (5 records, not 10).
  EXPECT_EQ(ra.records_traversed, 5u);
}

TEST_F(ShardedPfsFixture, RecoveryRepairsEveryShardByForwardScan) {
  const SubscriberId a = id_in_shard(1, 0);
  const SubscriberId b = id_in_shard(a.value() + 1, 2);
  std::vector<SubscriberId> both{a, b};
  std::sort(both.begin(), both.end());
  pfs.append(p1, 10, both);
  pfs.append(p1, 20, {b});
  pfs.sync([] {});
  sim.run_until_idle();
  pfs.append(p1, 30, {a});  // never synced: lost in the crash

  node.crash();
  node.restart();
  PersistentFilteringSubsystem pfs2(node, costs, kShards);
  pfs2.open({p1});
  EXPECT_EQ(pfs2.last_timestamp(p1), 20);
  EXPECT_EQ(ticks(read_sync(pfs2, a, 0, 10)), (std::vector<Tick>{10}));
  EXPECT_EQ(ticks(read_sync(pfs2, b, 0, 10)), (std::vector<Tick>{10, 20}));
  pfs2.append(p1, 25, both);
  EXPECT_EQ(pfs2.last_timestamp(p1), 25);
}

TEST_F(ShardedPfsFixture, ChopAppliesAcrossShards) {
  const SubscriberId a = id_in_shard(1, 1);
  const SubscriberId b = id_in_shard(a.value() + 1, 2);
  std::vector<SubscriberId> both{a, b};
  std::sort(both.begin(), both.end());
  for (Tick t = 10; t <= 100; t += 10) pfs.append(p1, t, both);
  pfs.chop_upto(p1, 50);
  const auto ra = read_sync(pfs, a, 0, 100);
  EXPECT_EQ(ticks(ra), (std::vector<Tick>{60, 70, 80, 90, 100}));
  EXPECT_EQ(ra.complete_from, 50);
  const auto rb = read_sync(pfs, b, 0, 100);
  EXPECT_EQ(ticks(rb), (std::vector<Tick>{60, 70, 80, 90, 100}));
}

}  // namespace
}  // namespace gryphon::core
