// The experiment harness itself: System wiring/guards, workload generators,
// and the sampler — the instruments the evidence is collected with.
#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "harness/sampler.hpp"
#include "harness/system.hpp"
#include "harness/workload.hpp"

namespace gryphon::harness {
namespace {

TEST(SystemHarness, RejectsInvalidTopologies) {
  SystemConfig bad;
  bad.num_pubends = 0;
  EXPECT_THROW(System{bad}, InvariantViolation);
  SystemConfig bad2;
  bad2.num_shbs = 0;
  EXPECT_THROW(System{bad2}, InvariantViolation);
}

TEST(SystemHarness, CrashGuards) {
  SystemConfig config;
  System system(config);
  EXPECT_TRUE(system.shb_alive(0));
  system.crash_shb(0);
  EXPECT_FALSE(system.shb_alive(0));
  EXPECT_THROW(system.crash_shb(0), InvariantViolation);  // already down
  EXPECT_THROW(static_cast<void>(system.shb(0)), InvariantViolation);  // no live broker
  system.restart_shb(0);
  EXPECT_TRUE(system.shb_alive(0));
  EXPECT_THROW(system.restart_shb(0), InvariantViolation);  // not crashed
}

TEST(SystemHarness, PubendIdsAreStableAndOneBased) {
  SystemConfig config;
  config.num_pubends = 3;
  System system(config);
  const auto ids = system.pubends();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], PubendId{1});
  EXPECT_EQ(ids[2], PubendId{3});
}

TEST(Workload, GroupFactoryCyclesDeterministically) {
  auto factory = group_event_factory(4, 250);
  for (std::uint64_t seq = 0; seq < 16; ++seq) {
    const auto event = factory(seq);
    ASSERT_NE(event->attribute("g"), nullptr);
    EXPECT_EQ(*event->attribute("g"),
              matching::Value(static_cast<std::int64_t>(seq % 4)));
    EXPECT_EQ(event->payload_size(), 250u);
  }
  EXPECT_EQ(group_predicate(2), "g == 2");
}

TEST(Workload, PaperPublishersHitTheAggregateRate) {
  SystemConfig config;
  config.num_pubends = 4;
  System system(config);
  PaperWorkloadConfig wl;
  wl.input_rate_eps = 800;
  start_paper_publishers(system, wl);
  system.run_for(sec(10));
  // 4 publishers at 200 ev/s each for 10s.
  EXPECT_NEAR(static_cast<double>(system.oracle().published_count()), 8000.0, 50.0);
}

TEST(Workload, ChurnDriverStaggersAndStops) {
  SystemConfig config;
  config.num_pubends = 2;
  System system(config);
  PaperWorkloadConfig wl;
  wl.input_rate_eps = 100;
  start_paper_publishers(system, wl);
  auto subs = add_group_subscribers(system, 0, 6, 4, 1);
  system.run_for(sec(1));

  ChurnDriver churn(system, subs, sec(4), msec(500));
  system.run_for(sec(9));
  // Two full periods for six subscribers.
  EXPECT_GE(churn.disconnects(), 10u);
  EXPECT_LE(churn.disconnects(), 14u);
  const auto frozen = churn.disconnects();
  churn.stop();
  system.run_for(sec(8));
  EXPECT_EQ(churn.disconnects(), frozen);
  system.verify_exactly_once();
}

TEST(Sampler, PollsAtThePeriodAndTracksGetters) {
  sim::Simulator sim;
  Sampler sampler(sim, msec(100));
  double value = 1.0;
  auto& series = sampler.add("v", [&] { return value; });
  sim.run_until(msec(450));
  value = 2.0;
  sim.run_until(sec(1));
  ASSERT_GE(series.points().size(), 10u);
  EXPECT_EQ(series.points().front().value, 1.0);
  EXPECT_EQ(series.points().back().value, 2.0);
  // 100ms cadence.
  EXPECT_EQ(series.points()[1].time - series.points()[0].time, msec(100));
}

TEST(Sampler, StopCancelsPollingAndDrainsTheHeap) {
  sim::Simulator sim;
  Sampler sampler(sim, msec(100));
  double value = 1.0;
  auto& series = sampler.add("v", [&] { return value; });
  sim.run_until(msec(450));
  const auto frozen = series.points().size();
  sampler.stop();
  // No further samples: the pending poll tasks were cancelled, so the sim
  // goes quiescent instead of polling forever.
  sim.run_until(sec(60));
  EXPECT_EQ(series.points().size(), frozen);
  EXPECT_THROW(sampler.add("late", [] { return 0.0; }), InvariantViolation);
  sampler.stop();  // idempotent
}

TEST(Sampler, GaugeSeriesTracksRegistrySlot) {
  sim::Simulator sim;
  Sampler sampler(sim, msec(100));
  MetricsRegistry reg("node");
  auto* gauge = reg.gauge("depth");
  gauge->set(3.0);
  auto& series = sampler.add_gauge("depth", gauge);
  sim.run_until(msec(250));
  gauge->set(8.0);
  sim.run_until(msec(550));
  sampler.stop();
  ASSERT_GE(series.points().size(), 4u);
  EXPECT_EQ(series.points().front().value, 3.0);
  EXPECT_EQ(series.points().back().value, 8.0);
}

TEST(SystemHarness, MigrateGuards) {
  SystemConfig config;
  config.num_shbs = 2;
  System system(config);
  PaperWorkloadConfig wl;
  wl.input_rate_eps = 100;
  start_paper_publishers(system, wl);
  auto subs = add_group_subscribers(system, 0, 1, 4, 1);
  system.run_for(sec(1));
  EXPECT_THROW(system.migrate_subscriber(*subs[0], 7), InvariantViolation);
  system.migrate_subscriber(*subs[0], 1);  // creates the missing client link
  system.migrate_subscriber(*subs[0], 1);  // idempotent: already home
  system.run_for(sec(5));
  EXPECT_TRUE(subs[0]->connected());
  system.verify_exactly_once();
}

}  // namespace
}  // namespace gryphon::harness
