// Two meta-suites that keep the rest of the evidence honest:
//  * determinism: identical configurations produce bit-identical histories
//    (the whole experimental method depends on it);
//  * the oracle itself: verify() actually flags misses, and the wire-level
//    client checks actually reject duplicates/reordering.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace gryphon
