// Imprecise PFS (paper §4.2): coalescing matched timestamps into range
// records trades write volume for refiltering work on reads — "which does
// not affect correctness of the delivery protocols".
#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "core/pfs.hpp"
#include "harness/system.hpp"
#include "harness/workload.hpp"

namespace gryphon::core {
namespace {

struct ImprecisePfsFixture : ::testing::Test {
  sim::Simulator sim;
  sim::LinkNetwork net{sim};
  BrokerConfig config{};
  NodeResources node{sim, net, "shb", config,
                     storage::DiskConfig{msec(2), 1e9, 1e9, msec(1)}};
  CostModel costs = [] {
    CostModel c;
    c.pfs_imprecise_batch = 4;
    return c;
  }();
  PersistentFilteringSubsystem pfs{node, costs};
  const PubendId p1{1};

  void SetUp() override { pfs.open({p1}); }
};

TEST_F(ImprecisePfsFixture, BatchesFlushAsRangeRecords) {
  pfs.append(p1, 10, {SubscriberId{1}});
  pfs.append(p1, 12, {SubscriberId{2}});
  pfs.append(p1, 17, {SubscriberId{1}});
  EXPECT_EQ(pfs.records_written(), 0u);  // still buffered
  EXPECT_EQ(pfs.last_timestamp(p1), kTickZero);
  EXPECT_EQ(pfs.last_accepted(p1), 17);
  EXPECT_EQ(pfs.read_coverage_limit(p1), 9);  // claims stop before the batch

  pfs.append(p1, 20, {SubscriberId{2}});  // fourth fact: flush
  EXPECT_EQ(pfs.records_written(), 1u);
  EXPECT_EQ(pfs.last_timestamp(p1), 20);
  EXPECT_EQ(pfs.read_coverage_limit(p1), kTickInfinity);
}

TEST_F(ImprecisePfsFixture, RangeRecordCoversUnionOfSubscribers) {
  pfs.append(p1, 10, {SubscriberId{1}});
  pfs.append(p1, 12, {SubscriberId{2}});
  pfs.append(p1, 17, {SubscriberId{1}});
  pfs.append(p1, 20, {SubscriberId{3}});

  // Every batched subscriber sees the WHOLE range as Q (imprecision), so
  // subscriber 2 must also inspect ticks it did not match.
  for (std::uint32_t sid = 1; sid <= 3; ++sid) {
    bool done = false;
    pfs.read(p1, SubscriberId{sid}, 0, 1000,
             [&](PersistentFilteringSubsystem::ReadResult r) {
               ASSERT_EQ(r.q_ranges.size(), 1u);
               EXPECT_EQ(r.q_ranges[0], (TickRange{10, 20}));
               done = true;
             });
    sim.run_until_idle();
    EXPECT_TRUE(done);
  }
}

TEST_F(ImprecisePfsFixture, SyncFlushesPartialBatch) {
  pfs.append(p1, 10, {SubscriberId{1}});
  pfs.append(p1, 12, {SubscriberId{1}});
  bool synced = false;
  pfs.sync([&] { synced = true; });
  sim.run_until_idle();
  EXPECT_TRUE(synced);
  EXPECT_EQ(pfs.records_written(), 1u);
  EXPECT_EQ(pfs.durable_timestamp(p1), 12);
  EXPECT_EQ(pfs.read_coverage_limit(p1), kTickInfinity);
}

TEST_F(ImprecisePfsFixture, WritesFarFewerBytesThanPrecise) {
  for (Tick t = 1; t <= 400; ++t) pfs.append(p1, t * 2, {SubscriberId{1}});
  pfs.sync([] {});
  sim.run_until_idle();
  // 400 facts at batch 4 -> 100 range records of 1 subscriber each.
  EXPECT_EQ(pfs.records_written(), 100u);
  EXPECT_EQ(pfs.payload_bytes_written(), 100u * (16 + 16));
  // A precise PFS would have written 400 * (8 + 16) = 9600 bytes.
  EXPECT_LT(pfs.payload_bytes_written() * 2, 400u * 24u);
}

TEST(ImprecisePfsIntegration, CatchupRefiltersAndContractHolds) {
  harness::SystemConfig config;
  config.num_pubends = 2;
  config.broker.costs.pfs_imprecise_batch = 8;
  harness::System system(config);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 4, 4, 1);
  system.run_for(sec(4));

  subs[0]->disconnect();
  system.run_for(sec(5));
  subs[0]->connect();
  system.run_for(sec(10));

  EXPECT_EQ(subs[0]->gaps_received(), 0u);
  EXPECT_EQ(system.shb().catchup_stream_count(), 0u);
  // The coarse Q ranges made the subscriber inspect more positions than it
  // had missed events; correctness is untouched.
  system.verify_exactly_once();
}

TEST(ImprecisePfsIntegration, SurvivesShbCrash) {
  harness::SystemConfig config;
  config.num_pubends = 2;
  config.broker.costs.pfs_imprecise_batch = 8;
  harness::System system(config);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 4, 4, 1);
  system.run_for(sec(4));

  system.crash_shb(0);
  system.run_for(sec(3));
  system.restart_shb(0);
  system.run_for(sec(20));

  for (auto* sub : subs) {
    EXPECT_TRUE(sub->connected());
    EXPECT_EQ(sub->gaps_received(), 0u);
  }
  system.verify_exactly_once();
}

}  // namespace
}  // namespace gryphon::core
