// Failure injection: SHB crash/recovery (the paper's §5.3 experiment in
// miniature), PHB crash, intermediate crash, and double faults. Every test
// ends with the exactly-once oracle.
#include <gtest/gtest.h>

#include "harness/system.hpp"
#include "harness/workload.hpp"
#include "matching/event.hpp"

namespace gryphon {
namespace {

using harness::System;
using harness::SystemConfig;

SystemConfig config_with(int shbs = 1, int intermediates = 0) {
  SystemConfig config;
  config.num_pubends = 2;
  config.num_shbs = shbs;
  config.num_intermediates = intermediates;
  return config;
}

TEST(Failures, ShbCrashRecoveryDeliversEverything) {
  System system(config_with());
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 4, 4, 1);
  system.run_for(sec(5));

  system.crash_shb(0);
  system.run_for(sec(5));  // broker down; publishers keep going
  system.restart_shb(0);
  system.run_for(sec(20));  // recover + subscriber catchup

  for (auto* sub : subs) {
    EXPECT_TRUE(sub->connected());
    EXPECT_EQ(sub->gaps_received(), 0u);
    // ~50 ev/s for ~30s minus edges.
    EXPECT_GT(sub->events_received(), 1200u);
  }
  EXPECT_EQ(system.shb().catchup_stream_count(), 0u);
  system.verify_exactly_once();
}

TEST(Failures, ShbRecoveryResumesFromPersistedLatestDelivered) {
  System system(config_with());
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 2, 4, 1);
  system.run_for(sec(5));
  const Tick ld_before = system.shb().latest_delivered(system.pubends()[0]);
  EXPECT_GT(ld_before, 3000);

  system.crash_shb(0);
  system.run_for(sec(2));
  system.restart_shb(0);
  // Immediately after recovery, latestDelivered resumes from the durable
  // value (within one commit interval of the pre-crash value), never ahead.
  const Tick ld_after = system.shb().latest_delivered(system.pubends()[0]);
  EXPECT_LE(ld_after, ld_before);
  EXPECT_GE(ld_after, ld_before - 2000);

  system.run_for(sec(15));
  system.verify_exactly_once();
}

TEST(Failures, ShbRecoveryConstreamNacksMissedSpan) {
  System system(config_with());
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 2, 4, 1);
  system.run_for(sec(5));

  system.crash_shb(0);
  system.run_for(sec(4));
  system.restart_shb(0);
  system.run_for(sec(15));

  // Recovery had to pull the missed span from upstream via nacks.
  EXPECT_GT(system.shb().stats().nacks_sent_upstream, 0u);
  // And the constream caught back up to ~realtime.
  for (PubendId p : system.pubends()) {
    EXPECT_GT(system.shb().latest_delivered(p),
              tick_of_simtime(system.simulator().now()) - 2500);
  }
  system.verify_exactly_once();
}

TEST(Failures, SubscribersHeldBackReconnectAfterConstreamRecovery) {
  // The §5.3 protocol: after SHB recovery, delay subscriber reconnection
  // until the constream has re-nacked everything, then reconnect all 8.
  System system(config_with());
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 8, 4, 1);
  system.run_for(sec(5));

  for (auto* sub : subs) sub->set_reconnect_hold(true);
  system.crash_shb(0);
  system.run_for(sec(3));
  system.restart_shb(0);
  system.run_for(sec(6));  // constream-only recovery window

  // No subscribers yet, but the constream is already back near realtime.
  EXPECT_EQ(system.shb().connected_subscribers(), 0u);
  for (PubendId p : system.pubends()) {
    EXPECT_GT(system.shb().latest_delivered(p),
              tick_of_simtime(system.simulator().now()) - 2500);
  }

  std::size_t completions = 0;
  system.on_shb_ready(0, [&](core::SubscriberHostingBroker& shb) {
    shb.on_catchup_complete = [&](SubscriberId, SimTime, SimTime) { ++completions; };
  });
  for (auto* sub : subs) sub->set_reconnect_hold(false);
  system.run_for(sec(25));

  EXPECT_EQ(system.shb().connected_subscribers(), 8u);
  EXPECT_EQ(completions, 8u);
  EXPECT_EQ(system.shb().catchup_stream_count(), 0u);
  system.verify_exactly_once();
}

TEST(Failures, PhbCrashRecoveryKeepsOnlyOnceLogging) {
  System system(config_with());
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 2, 4, 1);
  system.run_for(sec(5));

  system.crash_phb();
  system.run_for(sec(3));  // publishers retry into the void
  system.restart_phb();
  system.run_for(sec(20));

  for (auto* sub : subs) {
    EXPECT_GT(sub->events_received(), 0u);
    EXPECT_EQ(sub->gaps_received(), 0u);
  }
  system.verify_exactly_once();
}

TEST(Failures, IntermediateCrashIsTransparent) {
  System system(config_with(/*shbs=*/1, /*intermediates=*/1));
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 2, 4, 1);
  system.run_for(sec(5));

  system.crash_intermediate(0);
  system.run_for(sec(2));
  system.restart_intermediate(0);
  system.run_for(sec(20));

  for (auto* sub : subs) {
    EXPECT_EQ(sub->gaps_received(), 0u);
    EXPECT_GT(sub->events_received(), 900u);  // ~50/s * ~27s minus the outage
  }
  system.verify_exactly_once();
}

TEST(Failures, RepeatedShbCrashes) {
  System system(config_with());
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 4, 4, 1);

  for (int round = 0; round < 3; ++round) {
    system.run_for(sec(5));
    system.crash_shb(0);
    system.run_for(sec(2));
    system.restart_shb(0);
  }
  system.run_for(sec(20));

  for (auto* sub : subs) {
    EXPECT_TRUE(sub->connected());
    EXPECT_EQ(sub->gaps_received(), 0u);
  }
  EXPECT_EQ(system.shb().catchup_stream_count(), 0u);
  system.verify_exactly_once();
}

TEST(Failures, CrashDuringSubscriberCatchup) {
  // A subscriber is mid-catchup when the SHB dies: its catchup stream is
  // volatile, but the CT protocol makes the retry exact.
  System system(config_with());
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 2, 4, 1);
  system.run_for(sec(3));

  subs[0]->disconnect();
  system.run_for(sec(8));
  subs[0]->connect();
  // 8ms in, the first PFS batch read (disk seek alone is ~6ms) cannot have
  // completed: the crash lands mid-catchup.
  system.run_for(msec(8));
  EXPECT_GT(system.shb().catchup_stream_count(), 0u);

  system.crash_shb(0);
  system.run_for(sec(2));
  system.restart_shb(0);
  system.run_for(sec(25));

  EXPECT_EQ(system.shb().catchup_stream_count(), 0u);
  for (auto* sub : subs) EXPECT_EQ(sub->gaps_received(), 0u);
  system.verify_exactly_once();
}

TEST(Failures, DoubleFaultShbCrashWhileUplinkPartitioned) {
  // Double fault (chaos kDoubleFault in miniature): the SHB's uplink is
  // severed, the SHB then crashes and restarts *behind the partition*. Its
  // one-shot BrokerResumeMsg and subscription re-announce are refused, so
  // recovery must ride the periodic nack retries until the heal.
  System system(config_with(/*shbs=*/1, /*intermediates=*/1));
  system.enable_invariants();
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 4, 4, 1);
  system.run_for(sec(5));

  const auto up = system.shb_uplink_endpoint(0);
  const auto down = system.shb_endpoint(0);
  system.network().partition(up, down);
  system.run_for(sec(1));
  system.crash_shb(0);
  system.run_for(sec(2));
  system.restart_shb(0);            // recovers behind the severed uplink
  system.run_for(sec(2));
  EXPECT_GT(system.network().refused_sends(), 0u);
  system.network().heal(up, down);
  system.run_for(sec(25));

  for (auto* sub : subs) {
    EXPECT_TRUE(sub->connected());
    EXPECT_EQ(sub->gaps_received(), 0u);
  }
  system.verify_quiescent();  // exactly-once + zero residual catchup streams
}

TEST(Failures, DoubleFaultHealBeforeRestart) {
  // Same double fault, other interleaving: the partition heals while the
  // SHB is still down, so the restart sees a healthy uplink but a hole in
  // the constream spanning both the partition and the outage.
  System system(config_with(/*shbs=*/1, /*intermediates=*/1));
  system.enable_invariants();
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 4, 4, 1);
  system.run_for(sec(5));

  const auto up = system.shb_uplink_endpoint(0);
  const auto down = system.shb_endpoint(0);
  system.network().partition(up, down);
  system.run_for(sec(2));
  system.crash_shb(0);
  system.run_for(sec(1));
  system.network().heal(up, down);  // heal lands while the broker is down
  system.run_for(sec(1));
  system.restart_shb(0);
  system.run_for(sec(25));

  for (auto* sub : subs) {
    EXPECT_TRUE(sub->connected());
    EXPECT_EQ(sub->gaps_received(), 0u);
  }
  system.verify_quiescent();
}

TEST(Failures, ReleasedHeldWhileSubscribersDown) {
  // Fig. 7's released(p) shape: frozen while all subscribers are down,
  // advancing again only after they reconnect and ack.
  System system(config_with());
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 2, 4, 1);
  system.run_for(sec(5));

  const PubendId p0 = system.pubends()[0];
  for (auto* sub : subs) {
    sub->set_reconnect_hold(true);
    sub->disconnect();
  }
  system.run_for(sec(1));
  const Tick frozen = system.shb().released(p0);
  system.run_for(sec(6));
  EXPECT_LE(system.shb().released(p0), frozen + 1500);  // essentially pinned

  for (auto* sub : subs) sub->set_reconnect_hold(false);
  for (auto* sub : subs) sub->connect();
  system.run_for(sec(15));
  EXPECT_GT(system.shb().released(p0), frozen + 10'000);
  system.verify_exactly_once();
}

TEST(Failures, RestartedParentsRecoverOnlyTheLiveChildFilters) {
  // PHB <- intermediate <- SHB with two subscribers on disjoint predicates.
  // Once one unsubscribes, both parents must come back from a crash with
  // the other's filter only: the PHB from its persisted child rows, the
  // intermediate from its own (which it also re-announces to the PHB).
  // A removed-group event is padded far above everything else on the links,
  // so a single one reaching the intermediate or the SHB as data shows in
  // their delivered bytes; as silence it costs a few bytes.
  constexpr std::size_t kRemovedPayload = 64 * 1024;
  SystemConfig config;
  config.num_pubends = 1;
  config.num_shbs = 1;
  config.num_intermediates = 1;
  System system(config);
  auto& pub = system.add_publisher(
      system.pubends()[0], msec(20), [](std::uint64_t seq) {
        const std::int64_t g = static_cast<std::int64_t>(seq % 2);
        return std::make_shared<matching::EventData>(
            matching::EventData::AttributeList{{"g", matching::Value(g)}}, std::string{},
            g == 1 ? kRemovedPayload : 64);
      });
  pub.start();
  auto subs = harness::add_group_subscribers(system, 0, 2, 2, 1);  // g == 0, g == 1
  system.run_for(sec(3));
  ASSERT_GT(subs[1]->events_received(), 0u);

  subs[1]->unsubscribe();
  system.run_for(sec(2));
  system.crash_phb();
  system.run_for(sec(1));
  system.restart_phb();
  system.run_for(sec(3));
  system.crash_intermediate(0);
  system.run_for(sec(1));
  system.restart_intermediate(0);
  system.run_for(sec(5));  // the SHB re-nacks the outage; responses settle

  auto& net = system.network();
  const auto imb_bytes = net.delivered_bytes_to(system.intermediate_endpoint(0));
  const auto shb_bytes = net.delivered_bytes_to(system.shb_endpoint(0));
  const auto kept_before = subs[0]->events_received();
  system.run_for(sec(5));  // ~125 events of each group
  EXPECT_LT(net.delivered_bytes_to(system.intermediate_endpoint(0)) - imb_bytes,
            kRemovedPayload);
  EXPECT_LT(net.delivered_bytes_to(system.shb_endpoint(0)) - shb_bytes, kRemovedPayload);
  EXPECT_GT(subs[0]->events_received(), kept_before + 100);
  EXPECT_EQ(subs[0]->gaps_received(), 0u);
  system.verify_exactly_once();
}

}  // namespace
}  // namespace gryphon
