// Two meta-suites that keep the rest of the evidence honest:
//  * determinism: identical configurations produce bit-identical histories
//    (the whole experimental method depends on it);
//  * the oracle itself: verify() actually flags misses, and the wire-level
//    client checks actually reject duplicates/reordering; its rare paths
//    (early, rewound, gapped, reset and pre-subscription deliveries) give
//    the same verdicts as a delivered-set oracle, and verification costs
//    O(owed), not O(subscribers x events).
#include <gtest/gtest.h>

#include <chrono>
#include <functional>

#include "sim/simulator.hpp"
#include "harness/system.hpp"
#include "harness/workload.hpp"
#include "util/logging.hpp"
#include "util/trace.hpp"

namespace gryphon {
namespace {

using harness::System;
using harness::SystemConfig;

// Fingerprint of a run's observability output streams (hash + length so a
// mismatch stays readable instead of dumping megabytes).
struct Streams {
  std::size_t trace_hash;
  std::size_t trace_size;
  std::size_t log_hash;
  std::size_t log_size;
};

struct RunFingerprint {
  std::uint64_t published;
  std::uint64_t delivered;
  std::uint64_t catchup_delivered;
  std::uint64_t tasks;
  std::vector<std::uint64_t> per_sub;
  Tick ld0;

  friend bool operator==(const RunFingerprint&, const RunFingerprint&) = default;
};

RunFingerprint run_scenario() {
  SystemConfig config;
  config.num_pubends = 2;
  config.num_shbs = 2;
  config.num_intermediates = 1;
  System system(config);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 300;
  harness::start_paper_publishers(system, wl);
  auto subs0 = harness::add_group_subscribers(system, 0, 4, 4, 1);
  auto subs1 = harness::add_group_subscribers(system, 1, 4, 4, 100);
  system.run_for(sec(4));
  subs0[0]->disconnect();
  system.run_for(sec(2));
  system.crash_shb(1);
  system.run_for(sec(2));
  system.restart_shb(1);
  subs0[0]->connect();
  system.run_for(sec(12));
  system.verify_exactly_once();

  RunFingerprint fp;
  fp.published = system.oracle().published_count();
  fp.delivered = system.oracle().delivered_count();
  fp.catchup_delivered = system.oracle().catchup_delivered_count();
  fp.tasks = system.simulator().executed_tasks();
  for (auto* sub : subs0) fp.per_sub.push_back(sub->events_received());
  for (auto* sub : subs1) fp.per_sub.push_back(sub->events_received());
  fp.ld0 = system.shb(0).latest_delivered(system.pubends()[0]);
  return fp;
}

TEST(Determinism, IdenticalRunsProduceIdenticalHistories) {
  const auto a = run_scenario();
  const auto b = run_scenario();
  EXPECT_EQ(a, b);
  EXPECT_GT(a.delivered, 1000u);
  EXPECT_GT(a.tasks, 10'000u);
}

TEST(Determinism, TraceAndLogStreamsAreBitIdenticalAcrossSameSeedRuns) {
  // The observability layer must not perturb or depend on anything
  // nondeterministic: with full-rate tracing and a captured log sink, two
  // identical runs produce byte-identical merged flight records and log
  // streams. Compare hashes (plus lengths) so a failure stays readable.
  auto run = [] {
    std::string log_stream;
    Logger::instance().set_level(LogLevel::kInfo);
    Logger::instance().set_sink([&log_stream](LogLevel, const std::string& component,
                                              const std::string& message, SimTime t) {
      log_stream += std::to_string(t);
      log_stream += ' ';
      log_stream += component;
      log_stream += ": ";
      log_stream += message;
      log_stream += '\n';
    });

    SystemConfig config;
    config.num_pubends = 2;
    config.num_shbs = 2;
    config.trace_sample_every = 1;  // trace every tick
    config.trace_ring_capacity = 1 << 12;
    System system(config);
    harness::PaperWorkloadConfig wl;
    wl.input_rate_eps = 200;
    harness::start_paper_publishers(system, wl);
    auto subs = harness::add_group_subscribers(system, 0, 4, 4, 1);
    system.run_for(sec(3));
    subs[0]->disconnect();
    system.run_for(sec(2));
    subs[0]->connect();
    system.run_for(sec(8));
    system.verify_exactly_once();

    std::vector<const Tracer*> tracers;
    for (auto* node : system.nodes()) tracers.push_back(&node->tracer);
    const std::string trace = merged_flight_record(tracers);

    Logger::instance().set_sink(nullptr);
    Logger::instance().set_level(LogLevel::kOff);
    const std::hash<std::string> h;
    return Streams{h(trace), trace.size(), h(log_stream), log_stream.size()};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.trace_size, b.trace_size);
  EXPECT_EQ(a.log_hash, b.log_hash);
  EXPECT_EQ(a.log_size, b.log_size);
  // Both streams actually carried content (guards against comparing two
  // empty strings and calling it determinism).
  EXPECT_GT(a.trace_size, 1000u);
  EXPECT_GT(a.log_size, 100u);
}

TEST(Determinism, TraceExportAndLatencyHistogramsAreBitIdentical) {
  // The new observability artifacts inherit the same invariant: same seed +
  // full-rate sampling => a byte-identical Chrome trace JSON and identical
  // latency histogram buckets (not just matching percentiles — the raw
  // bucket counts per stage).
  struct Artifacts {
    std::size_t trace_hash;
    std::size_t trace_size;
    std::vector<std::vector<std::uint64_t>> buckets;
    std::string latency_json;

    bool operator==(const Artifacts&) const = default;
  };
  auto run = [] {
    SystemConfig config;
    config.num_pubends = 2;
    config.num_shbs = 2;
    config.trace_sample_every = 1;
    config.trace_export = true;
    System system(config);
    harness::PaperWorkloadConfig wl;
    wl.input_rate_eps = 200;
    harness::start_paper_publishers(system, wl);
    auto subs = harness::add_group_subscribers(system, 0, 4, 4, 1);
    system.run_for(sec(3));
    subs[0]->disconnect();
    system.run_for(sec(2));
    subs[0]->connect();
    system.run_for(sec(8));
    system.verify_exactly_once();

    Artifacts art;
    const std::string trace = system.trace_exporter()->to_json();
    art.trace_hash = std::hash<std::string>{}(trace);
    art.trace_size = trace.size();
    for (std::size_t i = 0; i < kNumLatencyStages; ++i) {
      art.buckets.push_back(
          system.latency().stage(static_cast<LatencyStage>(i)).buckets());
    }
    JsonWriter w(art.latency_json);
    system.latency().append_json(w);
    return art;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  EXPECT_GT(a.trace_size, 10'000u);  // the export actually captured the run
  // The steady pipeline produced real samples end to end.
  std::uint64_t e2e = 0;
  for (auto count : a.buckets[static_cast<std::size_t>(LatencyStage::kEndToEnd)]) {
    e2e += count;
  }
  EXPECT_GT(e2e, 100u);
}

TEST(Oracle, FlagsAMissedEventInsideTheHorizon) {
  // Feed the oracle a consistent history, then advance the subscriber's CT
  // past an undelivered matching event: verify() must flag exactly it.
  sim::Simulator sim;
  sim::LinkNetwork net(sim);
  harness::DeliveryOracle oracle(sim);

  core::DurableSubscriber::Options options;
  options.id = SubscriberId{1};
  options.predicate = "g == 1";
  core::DurableSubscriber client(sim, net, options, /*shb=*/net.add_endpoint(
                                     "fake-shb", [](sim::EndpointId, sim::MessagePtr) {}),
                                 nullptr);
  oracle.register_subscriber(&client,
                             matching::parse_predicate(options.predicate), 0);

  auto event1 = std::make_shared<matching::EventData>(
      std::map<std::string, matching::Value>{{"g", matching::Value(1)}}, "");
  oracle.on_connected(SubscriberId{1}, 0);
  oracle.on_published(PublisherId{1}, PubendId{1}, 100, event1, 0, 0);
  oracle.on_published(PublisherId{1}, PubendId{1}, 200, event1, 0, 0);
  oracle.on_event(SubscriberId{1}, PubendId{1}, 100, event1, false, 0);
  client.set_checkpoint([] {
    core::CheckpointToken ct;
    ct.set(PubendId{1}, 250);  // claims to have consumed past tick 200...
    return ct;
  }());

  const auto violations = oracle.verify(SubscriberId{1});
  ASSERT_EQ(violations.size(), 1u);  // ...but tick 200 was never delivered
  EXPECT_NE(violations[0].find("1:200"), std::string::npos);
}

TEST(Oracle, GapNotificationExcusesAMiss) {
  sim::Simulator sim;
  sim::LinkNetwork net(sim);
  harness::DeliveryOracle oracle(sim);
  core::DurableSubscriber::Options options;
  options.id = SubscriberId{1};
  options.predicate = "true";
  core::DurableSubscriber client(sim, net, options, net.add_endpoint(
                                     "fake-shb", [](sim::EndpointId, sim::MessagePtr) {}),
                                 nullptr);
  oracle.register_subscriber(&client, matching::parse_predicate("true"), 0);
  auto event1 = std::make_shared<matching::EventData>(
      std::map<std::string, matching::Value>{{"g", matching::Value(1)}}, "");
  oracle.on_connected(SubscriberId{1}, 0);
  oracle.on_published(PublisherId{1}, PubendId{1}, 100, event1, 0, 0);
  client.set_checkpoint([] {
    core::CheckpointToken ct;
    ct.set(PubendId{1}, 150);
    return ct;
  }());
  EXPECT_EQ(oracle.verify(SubscriberId{1}).size(), 1u);

  oracle.on_gap(SubscriberId{1}, PubendId{1}, {90, 120}, 0);
  EXPECT_TRUE(oracle.verify(SubscriberId{1}).empty());
}

TEST(Oracle, RejectsDuplicateAndSpuriousDeliveries) {
  sim::Simulator sim;
  sim::LinkNetwork net(sim);
  harness::DeliveryOracle oracle(sim);
  core::DurableSubscriber::Options options;
  options.id = SubscriberId{1};
  options.predicate = "g == 1";
  core::DurableSubscriber client(sim, net, options, net.add_endpoint(
                                     "fake-shb", [](sim::EndpointId, sim::MessagePtr) {}),
                                 nullptr);
  oracle.register_subscriber(&client, matching::parse_predicate("g == 1"), 0);
  auto match = std::make_shared<matching::EventData>(
      std::map<std::string, matching::Value>{{"g", matching::Value(1)}}, "");
  auto nomatch = std::make_shared<matching::EventData>(
      std::map<std::string, matching::Value>{{"g", matching::Value(2)}}, "");
  oracle.on_event(SubscriberId{1}, PubendId{1}, 100, match, false, 0);
  EXPECT_THROW(oracle.on_event(SubscriberId{1}, PubendId{1}, 100, match, false, 0),
               InvariantViolation);
  EXPECT_THROW(oracle.on_event(SubscriberId{1}, PubendId{1}, 101, nomatch, false, 0),
               InvariantViolation);
}

TEST(Oracle, ClientRejectsNonMonotonicDeliveryOnTheWire) {
  sim::Simulator sim;
  sim::LinkNetwork net(sim);
  sim::EndpointId client_ep = 0;
  const auto shb = net.add_endpoint("fake-shb", [](sim::EndpointId, sim::MessagePtr) {});
  core::DurableSubscriber::Options options;
  options.id = SubscriberId{1};
  options.predicate = "true";
  core::DurableSubscriber client(sim, net, options, shb, nullptr);
  client_ep = client.endpoint();
  net.connect(client_ep, shb);

  client.connect();
  sim.run_until(msec(50));  // bounded: the client retries forever otherwise
  // Fake the broker side: confirm the session, then deliver out of order.
  auto event1 = std::make_shared<matching::EventData>(
      std::map<std::string, matching::Value>{{"g", matching::Value(1)}}, "");
  net.send(shb, client_ep,
           std::make_shared<core::ConnectedMsg>(SubscriberId{1}, core::CheckpointToken{}));
  net.send(shb, client_ep,
           std::make_shared<core::EventDeliveryMsg>(SubscriberId{1}, PubendId{1}, 100,
                                                    event1, false));
  net.send(shb, client_ep,
           std::make_shared<core::EventDeliveryMsg>(SubscriberId{1}, PubendId{1}, 100,
                                                    event1, false));
  EXPECT_THROW(sim.run_until(msec(200)), InvariantViolation);
}

/// One oracle and "g == 1" subscribers whose clients only serve as
/// checkpoint sources (a fake SHB never answers them).
struct OracleBench {
  sim::Simulator sim;
  sim::LinkNetwork net{sim};
  harness::DeliveryOracle oracle{sim};
  sim::EndpointId fake_shb =
      net.add_endpoint("fake-shb", [](sim::EndpointId, sim::MessagePtr) {});
  std::vector<std::unique_ptr<core::DurableSubscriber>> clients;
  matching::EventDataPtr match = event_with_g(1);
  matching::EventDataPtr nomatch = event_with_g(2);

  static matching::EventDataPtr event_with_g(int g) {
    return std::make_shared<matching::EventData>(
        std::map<std::string, matching::Value>{{"g", matching::Value(g)}}, "");
  }

  core::DurableSubscriber& add(std::uint32_t id) {
    core::DurableSubscriber::Options options;
    options.id = SubscriberId{id};
    options.predicate = "g == 1";
    clients.push_back(
        std::make_unique<core::DurableSubscriber>(sim, net, options, fake_shb, nullptr));
    oracle.register_subscriber(clients.back().get(), matching::parse_predicate("g == 1"));
    return *clients.back();
  }
  void publish(Tick t, const matching::EventDataPtr& e) {
    oracle.on_published(PublisherId{1}, kP, t, e, 0, 0);
  }
  void deliver(std::uint32_t id, Tick t, bool catchup = false) {
    oracle.on_event(SubscriberId{id}, kP, t, match, catchup, 0);
  }
  static void set_ct(core::DurableSubscriber& client, Tick t) {
    core::CheckpointToken ct;
    ct.set(kP, t);
    client.set_checkpoint(ct);
  }

  static constexpr PubendId kP{1};
};

/// The "pubend:tick" of each violation, in report order.
std::vector<std::string> violation_ticks(const std::vector<std::string>& violations) {
  std::vector<std::string> out;
  for (const std::string& v : violations) {
    const auto colon = v.find(':');
    const auto from = v.rfind(' ', colon) + 1;
    out.push_back(v.substr(from, v.find_first_of(" ", colon) - from));
  }
  return out;
}

TEST(Oracle, DeliveryBeforeThePublishAckThenADuplicate) {
  OracleBench b;
  auto& client = b.add(1);
  b.oracle.on_connected(SubscriberId{1}, 0);
  // Delivered before the publisher saw its ack: not yet owed, not unknown.
  b.deliver(1, 100);
  EXPECT_THROW(b.deliver(1, 100), InvariantViolation) << "duplicate before the ack";
  b.publish(100, b.match);
  EXPECT_THROW(b.deliver(1, 100), InvariantViolation) << "duplicate after the ack";
  b.publish(200, b.match);
  b.deliver(1, 200);
  OracleBench::set_ct(client, 200);
  EXPECT_TRUE(b.oracle.verify(SubscriberId{1}).empty());
  // An early delivery whose ack never comes is an unknown event.
  b.deliver(1, 300);
  OracleBench::set_ct(client, 300);
  EXPECT_EQ(violation_ticks(b.oracle.verify(SubscriberId{1})),
            std::vector<std::string>{"1:300"});
}

TEST(Oracle, CheckpointRewindMakesTheSuffixOwedAgain) {
  OracleBench b;
  auto& client = b.add(1);
  b.oracle.on_connected(SubscriberId{1}, 0);
  for (Tick t : {100, 200, 300}) b.publish(t, b.match);
  for (Tick t : {100, 200, 300}) b.deliver(1, t);
  OracleBench::set_ct(client, 300);
  EXPECT_TRUE(b.oracle.verify_all_incremental().empty());

  // The reconnect presents CT 100: 200 and 300 are owed again.
  OracleBench::set_ct(client, 100);
  b.oracle.on_connected(SubscriberId{1}, 0);
  EXPECT_THROW(b.deliver(1, 100), InvariantViolation) << "100 stays delivered";
  OracleBench::set_ct(client, 300);
  EXPECT_EQ(violation_ticks(b.oracle.verify(SubscriberId{1})),
            (std::vector<std::string>{"1:200", "1:300"}));
  EXPECT_EQ(b.oracle.verify_all_incremental().size(), 2u) << "horizon clamped to the CT";

  b.deliver(1, 200, /*catchup=*/true);
  b.deliver(1, 300, /*catchup=*/true);
  EXPECT_TRUE(b.oracle.verify(SubscriberId{1}).empty());
  EXPECT_THROW(b.deliver(1, 300), InvariantViolation);

  // A reconnect at the CT that was delivered rewinds nothing.
  b.oracle.on_connected(SubscriberId{1}, 0);
  EXPECT_THROW(b.deliver(1, 300), InvariantViolation);
}

TEST(Oracle, DeliveryOfAGappedTick) {
  OracleBench b;
  auto& client = b.add(1);
  b.oracle.on_connected(SubscriberId{1}, 0);
  for (Tick t : {100, 200, 300}) b.publish(t, b.match);
  // No gap may cover a delivered tick, owed or not.
  b.deliver(1, 100, /*catchup=*/true);
  EXPECT_THROW(b.oracle.on_gap(SubscriberId{1}, OracleBench::kP, {90, 110}, 0),
               InvariantViolation);
  EXPECT_EQ(b.oracle.last_violation().tick, 100);
  b.oracle.on_gap(SubscriberId{1}, OracleBench::kP, {150, 250}, 0);
  // A gapped tick may still arrive once ...
  b.deliver(1, 200, /*catchup=*/true);
  EXPECT_THROW(b.deliver(1, 200, true), InvariantViolation);
  // ... after which no gap may cover it either.
  EXPECT_THROW(b.oracle.on_gap(SubscriberId{1}, OracleBench::kP, {180, 220}, 0),
               InvariantViolation);
  EXPECT_EQ(b.oracle.last_violation().tick, 200);
  OracleBench::set_ct(client, 300);
  EXPECT_EQ(violation_ticks(b.oracle.verify(SubscriberId{1})),
            std::vector<std::string>{"1:300"});
  // Rewinding below the gap makes its ticks owed again.
  OracleBench::set_ct(client, 120);
  b.oracle.on_connected(SubscriberId{1}, 0);
  OracleBench::set_ct(client, 300);
  EXPECT_EQ(violation_ticks(b.oracle.verify(SubscriberId{1})),
            (std::vector<std::string>{"1:200", "1:300"}));
  b.deliver(1, 200, true);
  EXPECT_EQ(violation_ticks(b.oracle.verify(SubscriberId{1})),
            std::vector<std::string>{"1:300"});
}

TEST(Oracle, ResetSubscriberForgetsDeliveriesAndStartPoint) {
  OracleBench b;
  auto& client = b.add(1);
  OracleBench::set_ct(client, 50);
  b.oracle.on_connected(SubscriberId{1}, 0);
  for (Tick t : {100, 200}) b.publish(t, b.match);
  for (Tick t : {100, 200}) b.deliver(1, t);

  // The client lost its state and resumes from CT 0.
  b.oracle.reset_subscriber(SubscriberId{1});
  OracleBench::set_ct(client, 0);
  b.oracle.on_connected(SubscriberId{1}, 0);
  b.deliver(1, 100, /*catchup=*/true);
  b.publish(300, b.match);
  OracleBench::set_ct(client, 300);
  EXPECT_EQ(violation_ticks(b.oracle.verify(SubscriberId{1})),
            (std::vector<std::string>{"1:200", "1:300"}));
  b.deliver(1, 200, true);
  b.deliver(1, 300);
  EXPECT_TRUE(b.oracle.verify(SubscriberId{1}).empty());
}

TEST(Oracle, DeliveriesAtOrBelowTheStartCheckpoint) {
  OracleBench b;
  auto& client = b.add(1);
  for (Tick t : {100, 200}) b.publish(t, b.match);
  // Subscribed at 150: 100 predates the subscription.
  OracleBench::set_ct(client, 150);
  b.oracle.on_connected(SubscriberId{1}, 0);
  OracleBench::set_ct(client, 200);
  EXPECT_EQ(violation_ticks(b.oracle.verify(SubscriberId{1})),
            std::vector<std::string>{"1:200"});
  // A delivery of it is legitimate once, and must be a known event.
  b.deliver(1, 100);
  EXPECT_THROW(b.deliver(1, 100), InvariantViolation);
  b.deliver(1, 120);
  EXPECT_THROW(b.oracle.on_event(SubscriberId{1}, OracleBench::kP, 130, b.nomatch, false, 0),
               InvariantViolation)
      << "spurious";
  b.deliver(1, 200);
  EXPECT_EQ(violation_ticks(b.oracle.verify(SubscriberId{1})),
            std::vector<std::string>{"1:120"})
      << "unknown event below the start";
}

TEST(Oracle, SampledIndexCrossCheckRuns) {
  OracleBench b;
  for (std::uint32_t id = 1; id <= 3; ++id) b.add(id);
  constexpr int kEvents = 4000;
  for (int i = 1; i <= kEvents; ++i) b.publish(i, i % 2 == 0 ? b.match : b.nomatch);
  const std::uint64_t checks = b.oracle.index_cross_checks();
  EXPECT_GT(checks, 0u);
  EXPECT_LT(checks, kEvents / 32) << "a sparse sample, not every event";
  EXPECT_EQ(b.oracle.predicate_evaluations(), checks * 3) << "3 predicates per check";
}

TEST(Oracle, VerifyAllCostsOwedEntriesNotSubscribersTimesEvents) {
  OracleBench b;
  constexpr std::uint32_t kSubs = 200;
  constexpr Tick kEvents = 1000;
  for (std::uint32_t id = 1; id <= kSubs; ++id) b.add(id);
  for (std::uint32_t id = 1; id <= kSubs; ++id) b.oracle.on_connected(SubscriberId{id}, 0);
  for (Tick t = 1; t <= kEvents; ++t) {
    b.publish(t, t % 2 == 0 ? b.match : b.nomatch);
    // Everyone gets every match except subscriber 7, which misses tick 500.
    for (std::uint32_t id = 1; t % 2 == 0 && id <= kSubs; ++id) {
      if (id != 7 || t != 500) b.deliver(id, t);
    }
  }
  for (auto& client : b.clients) OracleBench::set_ct(*client, kEvents);

  const std::uint64_t before = b.oracle.predicate_evaluations();
  EXPECT_EQ(violation_ticks(b.oracle.verify_all()), std::vector<std::string>{"1:500"});
  EXPECT_EQ(violation_ticks(b.oracle.verify_all_incremental()),
            std::vector<std::string>{"1:500"});
  EXPECT_EQ(b.oracle.predicate_evaluations(), before) << "verification evaluates nothing";
  // The run itself evaluated the sampled cross-checks and subscriber 7's
  // one delivery past its miss, not one predicate per delivery.
  EXPECT_LT(b.oracle.predicate_evaluations(),
            b.oracle.index_cross_checks() * kSubs + 10);
}

TEST(Oracle, TenThousandSubscribersOnOneShbWithTheOracleOn) {
  const auto t0 = std::chrono::steady_clock::now();
  System system(harness::herd_config(/*admission_limit=*/256));
  const auto subs = harness::start_herd_load(system, /*subscribers=*/10000);
  system.run_for(sec(8));
  system.verify_quiescent();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(subs.size(), 10000u);
  EXPECT_GT(system.oracle().delivered_count(), 150000u);
  EXPECT_GT(system.oracle().index_cross_checks(), 0u);
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  EXPECT_LE(wall_s, 3.0) << "oracle-on run at 10^4 subscribers";
#endif
  std::printf("10^4 subscribers: %.2f s wall, %llu deliveries\n", wall_s,
              static_cast<unsigned long long>(system.oracle().delivered_count()));
}

}  // namespace
}  // namespace gryphon
