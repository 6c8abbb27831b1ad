// Flow control and congestion control: catchup token pacing, nack windows,
// backpressure under CPU saturation, and the subscribe-propagation
// handshake that closes the new-subscription window.
#include <gtest/gtest.h>

#include "harness/system.hpp"
#include "harness/workload.hpp"

namespace gryphon {
namespace {

using harness::System;
using harness::SystemConfig;

TEST(FlowControl, CatchupRateHonorsClientLimit) {
  SystemConfig config;
  config.num_pubends = 2;
  config.broker.costs.catchup_rate_limit_eps = 100.0;  // tight limit
  System system(config);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;  // subscriber matches 50 ev/s live
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 2, 4, 1);
  system.run_for(sec(3));

  subs[0]->disconnect();
  system.run_for(sec(8));  // misses ~400 events
  const auto before = subs[0]->events_received();
  subs[0]->connect();

  // At 100 ev/s recovery against 50 ev/s live, the 400-event backlog needs
  // ~8s; after 2s the subscriber must NOT have received the whole backlog.
  system.run_for(sec(2));
  EXPECT_LT(subs[0]->events_received(), before + 250);

  system.run_for(sec(15));
  EXPECT_EQ(system.shb().catchup_stream_count(), 0u);
  system.verify_exactly_once();
}

TEST(FlowControl, FasterLimitCatchesUpFaster) {
  auto run = [](double limit) {
    SystemConfig config;
    config.num_pubends = 2;
    config.broker.costs.catchup_rate_limit_eps = limit;
    System system(config);
    harness::PaperWorkloadConfig wl;
    wl.input_rate_eps = 200;
    harness::start_paper_publishers(system, wl);
    auto subs = harness::add_group_subscribers(system, 0, 1, 4, 1);
    double duration = 0;
    system.on_shb_ready(0, [&](core::SubscriberHostingBroker& shb) {
      shb.on_catchup_complete = [&](SubscriberId, SimTime from, SimTime to) {
        duration = to_seconds(to - from);
      };
    });
    system.run_for(sec(3));
    subs[0]->disconnect();
    system.run_for(sec(6));
    subs[0]->connect();
    system.run_for(sec(40));
    system.verify_exactly_once();
    return duration;
  };
  const double slow = run(80.0);
  const double fast = run(800.0);
  EXPECT_GT(slow, 2 * fast);
  EXPECT_GT(slow, 3.0);  // 300 events at +30 ev/s surplus: ~10s
  EXPECT_GT(fast, 0.0);
}

TEST(FlowControl, IstreamRecoveryWindowBoundsSlope) {
  // Constream recovery speed = istream_nack_window / nack_timeout.
  auto recovery_time = [](Tick window) {
    SystemConfig config;
    config.num_pubends = 1;
    config.broker.costs.istream_nack_window = window;
    System system(config);
    harness::PaperWorkloadConfig wl;
    wl.input_rate_eps = 100;
    harness::start_paper_publishers(system, wl);
    auto subs = harness::add_group_subscribers(system, 0, 1, 4, 1);
    for (auto* sub : subs) sub->set_reconnect_hold(true);
    system.run_for(sec(3));
    system.crash_shb(0);
    system.run_for(sec(5));
    system.restart_shb(0);
    const PubendId p = system.pubends()[0];
    const SimTime start = system.simulator().now();
    while (system.shb().latest_delivered(p) <
           tick_of_simtime(system.simulator().now()) - 1500) {
      system.run_for(msec(200));
      if (system.simulator().now() - start > sec(60)) break;
    }
    return to_seconds(system.simulator().now() - start);
  };
  const double narrow = recovery_time(250);   // ~2.5x realtime
  const double wide = recovery_time(2000);    // ~20x realtime
  EXPECT_GT(narrow, 2 * wide);
}

TEST(FlowControl, BackpressureYieldsToSaturatedCpu) {
  // With the SHB near capacity, catchup must not explode the CPU backlog.
  SystemConfig config;
  config.num_pubends = 4;
  System system(config);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 800;
  harness::start_paper_publishers(system, wl);
  // 90 subscribers ~= 18K deliveries/s: close to the 20K capacity.
  auto subs = harness::add_group_subscribers(system, 0, 90, 4, 1, 5);
  system.run_for(sec(5));

  subs[0]->disconnect();
  system.run_for(sec(5));
  subs[0]->connect();
  system.run_for(sec(3));
  // Congestion control keeps the backlog bounded near the threshold.
  EXPECT_LT(system.shb_cpu(0).backlog(), msec(600));
  system.run_for(sec(25));
  EXPECT_EQ(system.shb().catchup_stream_count(), 0u);
  system.verify_exactly_once();
}

TEST(FlowControl, UniquePredicateFirstConnectHasNoPropagationHole) {
  // A subscription whose predicate matches nothing anyone else wants: the
  // PHB filters those events out entirely until the subscription
  // propagates. The subscribe handshake must close that window.
  SystemConfig config;
  config.num_pubends = 2;
  config.broker_link = {msec(25), 1e9};  // slow links widen the window
  System system(config);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 400;
  harness::start_paper_publishers(system, wl);
  system.run_for(sec(2));

  core::DurableSubscriber::Options options;
  options.id = SubscriberId{1};
  options.predicate = "g == 2";  // unique: nobody else subscribed
  auto& sub = system.add_subscriber(options);
  sub.connect();
  system.run_for(sec(6));

  EXPECT_GT(sub.events_received(), 300u);  // ~100 ev/s once live
  system.verify_exactly_once();            // and nothing missed at the seam
}

TEST(FlowControl, NackWindowCapsOutstandingCuriosity) {
  SystemConfig config;
  config.num_pubends = 1;
  config.broker.costs.catchup_nack_window = 100;
  // Force upstream traffic: no local cache to serve from.
  config.broker.costs.cache_span_ticks = 500;
  System system(config);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  wl.groups = 1;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 1, 1, 1);
  system.run_for(sec(2));
  subs[0]->disconnect();
  system.run_for(sec(10));
  subs[0]->connect();
  system.run_for(sec(30));
  EXPECT_EQ(system.shb().catchup_stream_count(), 0u);
  EXPECT_EQ(subs[0]->gaps_received(), 0u);
  system.verify_exactly_once();
}

// --------------------------------------------------- catchup admission gate

std::uint64_t shb_counter(System& system, const char* name) {
  return system.shb_node(0).metrics.counter(name)->get();
}

TEST(FlowControl, UnsubscribeNeverAdmitsItsOwnQueuedStream) {
  // One admission slot, two pubends: a reconnecting subscriber's stream on
  // one pubend is admitted while its stream on the other waits in the queue.
  SystemConfig config;
  config.num_pubends = 2;
  config.broker.costs.catchup_admission_limit = 1;
  config.broker.costs.catchup_rate_limit_eps = 20.0;  // a long catchup
  System system(config);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 1, 4, 1);
  system.run_for(sec(2));
  subs[0]->disconnect();
  system.run_for(sec(6));
  subs[0]->connect();
  system.run_for(msec(300));
  ASSERT_EQ(system.shb().catchup_active_count(), 1u);
  ASSERT_EQ(system.shb().catchup_queue_depth(), 1u);

  // Unsubscribing frees the active slot; the queued stream belongs to the
  // subscription being deleted and must not be admitted into it.
  const auto admitted = shb_counter(system, "shb.catchup_admitted");
  const auto reads = shb_counter(system, "pfs.reads_issued");
  subs[0]->unsubscribe();
  system.run_for(sec(2));
  EXPECT_EQ(shb_counter(system, "shb.catchup_admitted"), admitted);
  EXPECT_EQ(shb_counter(system, "pfs.reads_issued"), reads);
  EXPECT_EQ(system.shb().catchup_stream_count(), 0u);
  EXPECT_EQ(system.shb().catchup_active_count(), 0u);
  EXPECT_EQ(system.shb().catchup_queue_depth(), 0u);
}

TEST(FlowControl, HerdRoutingVisitsOnlyAwaitingStreams) {
  // A few hundred subscribers reconnect at once through an 8-wide gate.
  // Routing stream data to catchup streams may only probe streams awaiting
  // nack responses, and only admitted streams can await any: a return to
  // scanning every catching-up session would probe hundreds per message.
  constexpr std::size_t kLimit = 8;
  SystemConfig config;
  config.num_pubends = 1;
  config.num_intermediates = 1;
  config.broker.cores = 32;
  config.shb_disk.read_seek_latency = usec(100);
  config.broker.costs.catchup_admission_limit = kLimit;
  config.broker.costs.cache_span_ticks = 500;  // most catchup nacks upstream
  config.broker.costs.catchup_rate_limit_eps = 5000.0;
  System system(config);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 300, 4, 1, /*machines=*/4,
                                             /*ack_interval=*/sec(1));
  system.run_for(sec(2));

  harness::StormDriver::Options so;
  so.waves = 1;
  so.wave_interval = sec(1);
  so.down_time = sec(3);
  harness::StormDriver storm(system, subs, so);
  system.run_for(sec(30));
  system.verify_quiescent();

  EXPECT_EQ(storm.reconnects(), subs.size());
  EXPECT_GT(shb_counter(system, "shb.catchup_queued"), 200u);  // a real herd
  const auto& stats = system.shb().stats();
  EXPECT_GT(stats.catchup_route_visits, 0u);
  EXPECT_LE(stats.catchup_route_visits_peak, kLimit);
}

}  // namespace
}  // namespace gryphon
