// The flat per-delivery state on the constream path (DESIGN.md §6): the
// SHB's hashed session table and slot-indexed per-(subscriber, pubend)
// entries, LinkNetwork's out-link table, the DeliveryOracle's per-pubend
// streams, and the Logger clock every System installs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/messages.hpp"
#include "core/sharding.hpp"
#include "harness/oracle.hpp"
#include "harness/system.hpp"
#include "harness/workload.hpp"
#include "matching/parser.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/logging.hpp"

namespace gryphon {
namespace {

using harness::System;
using harness::SystemConfig;

/// Pass-through transport that records the subscriber of every
/// SubscribeMsg one endpoint sends.
class SubscribeRecorder final : public sim::Transport {
 public:
  explicit SubscribeRecorder(sim::EndpointId from) : from_(from) {}

  [[nodiscard]] const char* name() const override { return "recorder"; }
  [[nodiscard]] sim::MessagePtr to_wire(sim::EndpointId from, sim::EndpointId,
                                        sim::MessagePtr msg) override {
    const auto& m = static_cast<const core::Msg&>(*msg);
    if (from == from_ && m.kind() == core::MsgKind::kSubscribe) {
      announced.push_back(static_cast<const core::SubscribeMsg&>(m).subscriber);
    }
    return msg;
  }
  [[nodiscard]] sim::MessagePtr from_wire(sim::EndpointId, sim::EndpointId,
                                          sim::MessagePtr msg) override {
    return msg;
  }

  std::vector<SubscriberId> announced;

 private:
  sim::EndpointId from_;
};

class RecoverOrder : public ::testing::TestWithParam<std::size_t> {};

// recover() re-announces every durable subscription upstream sorted by
// (PFS shard, id) — plain id order with one shard — whatever order the
// hashed session table holds them in.
TEST_P(RecoverOrder, ReannouncesByShardThenId) {
  const std::size_t shards = GetParam();
  SystemConfig config;
  config.num_pubends = 2;
  config.broker.pfs_shards = static_cast<int>(shards);
  System system(config);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 100;
  harness::start_paper_publishers(system, wl);
  // Ids out of insertion order and spread over several id blocks.
  harness::add_group_subscribers(system, 0, 6, 4, 40);
  harness::add_group_subscribers(system, 0, 6, 4, 3);
  harness::add_group_subscribers(system, 0, 6, 4, 1000);
  system.run_for(sec(2));

  std::vector<SubscriberId> expected;
  for (core::DurableSubscriber* sub : system.subscribers()) expected.push_back(sub->id());
  std::sort(expected.begin(), expected.end(), [shards](SubscriberId a, SubscriberId b) {
    const std::size_t ka = core::subscriber_shard(a, shards);
    const std::size_t kb = core::subscriber_shard(b, shards);
    return ka != kb ? ka < kb : a < b;
  });
  if (shards > 1) {
    // The test data must tell shard order from id order.
    ASSERT_FALSE(std::is_sorted(expected.begin(), expected.end()));
  }

  system.crash_shb(0);
  system.run_for(msec(100));
  SubscribeRecorder recorder(system.shb_endpoint(0));
  system.network().set_transport(&recorder);
  system.restart_shb(0);
  system.network().set_transport(nullptr);
  EXPECT_EQ(recorder.announced, expected);

  system.run_for(sec(5));
  system.verify_exactly_once();
}

INSTANTIATE_TEST_SUITE_P(Shards, RecoverOrder, ::testing::Values(1u, 4u),
                         [](const auto& info) {
                           return "shards" + std::to_string(info.param);
                         });

// advance_constream matches an event and defers its sends behind the CPU
// queue. An unsubscribe admitted after the stream data but before those
// sends run erases the session entry in between: the sends must find no
// subscriber and drop, not deliver or touch freed state.
TEST(ConstreamSends, UnsubscribeBetweenMatchAndSendDropsTheSend) {
  SystemConfig config;
  config.num_pubends = 1;
  System system(config);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  harness::start_paper_publishers(system, wl);
  core::DurableSubscriber::Options options;
  options.id = SubscriberId{7};
  options.predicate = "true";
  core::DurableSubscriber& sub = system.add_subscriber(options);
  sub.connect();
  system.run_for(sec(2));
  while (system.shb_cpu(0).backlog() > 0) system.run_for(usec(100));
  // Let any same-instant completion run too: nothing of the SHB's is queued.
  system.run_for(usec(1));

  const auto& stats = system.shb().stats();
  const std::uint64_t delivered_before = stats.constream_deliveries;
  const std::uint64_t matched_before = stats.pfs_records;
  ASSERT_GT(delivered_before, 0u);

  // Stream data queues up behind a stall; the unsubscribe lands behind it,
  // so every queued message is matched before the session is erased and
  // its deferred sends run after.
  system.shb_cpu(0).inject_stall(msec(100));
  system.run_for(msec(50));
  sub.unsubscribe();
  system.run_for(sec(1));

  EXPECT_GT(stats.pfs_records, matched_before) << "no event was matched meanwhile";
  EXPECT_EQ(stats.constream_deliveries, delivered_before);
  EXPECT_EQ(system.shb().connected_subscribers(), 0u);
  system.verify_exactly_once();
}

struct TestMsg final : sim::Message {
  [[nodiscard]] std::size_t wire_size() const override { return 100; }
};

// A send captures its Link by address. Links connected later grow the
// out-link table rows; a partition issued afterwards must still reach the
// link the in-flight message captured and drop it.
TEST(LinkTable, PartitionAfterLaterConnectsDropsInFlight) {
  sim::Simulator sim;
  sim::LinkNetwork net(sim);
  int received = 0;
  const auto a = net.add_endpoint("a", [](sim::EndpointId, sim::MessagePtr) {});
  const auto b =
      net.add_endpoint("b", [&](sim::EndpointId, sim::MessagePtr) { ++received; });
  net.connect(a, b, {msec(10), 1e9});
  ASSERT_TRUE(net.send(a, b, std::make_shared<TestMsg>()));

  std::vector<sim::EndpointId> later;
  for (int i = 0; i < 64; ++i) {
    later.push_back(net.add_endpoint("c" + std::to_string(i),
                                     [](sim::EndpointId, sim::MessagePtr) {}));
    net.connect(a, later.back());
    net.connect(later.back(), b);
  }
  sim.run_until(msec(5));
  net.partition(a, b);
  net.heal(a, b);
  sim.run_until(msec(50));
  EXPECT_EQ(received, 0) << "the in-flight message survived the partition";

  // The healed link carries new sends; its neighbours were never touched.
  ASSERT_TRUE(net.send(a, b, std::make_shared<TestMsg>()));
  ASSERT_TRUE(net.send(a, later[3], std::make_shared<TestMsg>()));
  sim.run_until_idle();
  EXPECT_EQ(received, 1);
  EXPECT_FALSE(net.is_partitioned(a, later[3]));
}

matching::EventDataPtr event_with_g(int g) {
  return std::make_shared<matching::EventData>(
      std::map<std::string, matching::Value>{{"g", matching::Value(g)}}, "");
}

/// A DurableSubscriber that only serves as the oracle's checkpoint source.
struct OracleFixture {
  sim::Simulator sim;
  sim::LinkNetwork net{sim};
  harness::DeliveryOracle oracle{sim};
  sim::EndpointId fake_shb =
      net.add_endpoint("fake-shb", [](sim::EndpointId, sim::MessagePtr) {});
  std::vector<std::unique_ptr<core::DurableSubscriber>> clients;

  core::DurableSubscriber& add(std::uint32_t id) {
    core::DurableSubscriber::Options options;
    options.id = SubscriberId{id};
    options.predicate = "true";
    clients.push_back(
        std::make_unique<core::DurableSubscriber>(sim, net, options, fake_shb, nullptr));
    oracle.register_subscriber(clients.back().get(), matching::parse_predicate("true"));
    return *clients.back();
  }
};

// Each (subscriber, pubend) stream keeps its own delivered set, gaps and
// constream floor: facts about one pubend never excuse or block another.
TEST(OracleStreams, PubendsAreCheckedIndependently) {
  OracleFixture f;
  core::DurableSubscriber& client = f.add(1);
  const PubendId p1{1};
  const PubendId p3{3};
  f.oracle.on_connected(SubscriberId{1}, 0);
  for (Tick t : {100, 200, 300}) {
    f.oracle.on_published(PublisherId{1}, p1, t, event_with_g(1), 0, 0);
    f.oracle.on_published(PublisherId{1}, p3, t, event_with_g(1), 0, 0);
  }
  // Live delivery of p3:200 sets p3's constream floor only.
  f.oracle.on_event(SubscriberId{1}, p3, 100, event_with_g(1), false, 0);
  f.oracle.on_event(SubscriberId{1}, p3, 200, event_with_g(1), false, 0);
  // A gap opening behind p3's floor is illegal; on p1 it is not.
  EXPECT_THROW(f.oracle.on_gap(SubscriberId{1}, p3, {150, 199}, 0), InvariantViolation);
  f.oracle.on_gap(SubscriberId{1}, p1, {90, 250}, 0);
  // The same tick may be delivered once per pubend.
  f.oracle.on_event(SubscriberId{1}, p1, 300, event_with_g(1), true, 0);
  EXPECT_THROW(f.oracle.on_event(SubscriberId{1}, p1, 300, event_with_g(1), true, 0),
               InvariantViolation);

  core::CheckpointToken ct;
  ct.set(p1, 300);
  ct.set(p3, 300);
  client.set_checkpoint(ct);
  // p1: 100 and 200 gapped, 300 delivered. p3: 300 missing.
  const auto violations = f.oracle.verify(SubscriberId{1});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("3:300"), std::string::npos) << violations[0];

  // A CT rewind on p3 forgets only p3's suffix: 200 may come again there.
  ct.set(p3, 100);
  client.set_checkpoint(ct);
  f.oracle.on_connected(SubscriberId{1}, 0);
  f.oracle.on_event(SubscriberId{1}, p3, 200, event_with_g(1), true, 0);
  EXPECT_THROW(f.oracle.on_event(SubscriberId{1}, p1, 300, event_with_g(1), true, 0),
               InvariantViolation);
}

// verify_all and verify_all_incremental report subscribers in id order,
// whatever order they were registered in.
TEST(OracleStreams, VerifyAllWalksSubscribersInIdOrder) {
  OracleFixture f;
  const std::vector<std::uint32_t> ids = {42, 7, 1000, 3, 19};
  for (std::uint32_t id : ids) {
    f.add(id);
    f.oracle.on_connected(SubscriberId{id}, 0);
  }
  f.oracle.on_published(PublisherId{1}, PubendId{1}, 100, event_with_g(1), 0, 0);
  core::CheckpointToken ct;
  ct.set(PubendId{1}, 150);
  for (auto& client : f.clients) client->set_checkpoint(ct);

  const auto first_ids = [](const std::vector<std::string>& violations) {
    std::vector<std::string> out;
    for (const std::string& v : violations) {
      out.push_back(v.substr(0, v.find(" missed")));
    }
    return out;
  };
  const std::vector<std::string> expected = {"subscriber 3", "subscriber 7",
                                             "subscriber 19", "subscriber 42",
                                             "subscriber 1000"};
  EXPECT_EQ(first_ids(f.oracle.verify_all()), expected);
  EXPECT_EQ(first_ids(f.oracle.verify_all_incremental()), expected);
  EXPECT_TRUE(f.oracle.verify_all_incremental().empty()) << "horizons advanced";
}

struct LogCapture {
  std::vector<SimTime> times;
  LogCapture() {
    Logger::instance().set_sink(
        [this](LogLevel, const std::string&, const std::string&, SimTime t) {
          times.push_back(t);
        });
    Logger::instance().set_level(LogLevel::kInfo);
  }
  ~LogCapture() {
    Logger::instance().set_level(LogLevel::kOff);
    Logger::instance().set_sink(nullptr);
  }
};

// A System stamps log entries with its simulated time and takes that clock
// away when it dies. Logging afterwards must not read the freed Simulator
// (ASan reports the heap-use-after-free this once was).
TEST(LoggerClock, DestroyedSystemRestoresTheDefaultClock) {
  auto system = std::make_unique<System>(SystemConfig{});
  system->run_for(sec(1));
  {
    LogCapture capture;
    GRYPHON_LOG(kInfo, "test", "while the system lives");
    ASSERT_EQ(capture.times.size(), 1u);
    EXPECT_EQ(capture.times[0], sec(1));
  }
  system.reset();
  LogCapture capture;
  GRYPHON_LOG(kInfo, "test", "after the system died");
  ASSERT_EQ(capture.times.size(), 1u);
  EXPECT_EQ(capture.times[0], 0);
}

// Only the clock's own installer may take it away: a System that dies while
// a newer System's clock is installed leaves that clock in place.
TEST(LoggerClock, OlderSystemLeavesANewerClockInstalled) {
  auto older = std::make_unique<System>(SystemConfig{});
  auto newer = std::make_unique<System>(SystemConfig{});
  newer->run_for(msec(250));
  older.reset();
  {
    LogCapture capture;
    GRYPHON_LOG(kInfo, "test", "newer clock");
    ASSERT_EQ(capture.times.size(), 1u);
    EXPECT_EQ(capture.times[0], msec(250));
  }
  newer.reset();
  LogCapture capture;
  GRYPHON_LOG(kInfo, "test", "default clock");
  ASSERT_EQ(capture.times.size(), 1u);
  EXPECT_EQ(capture.times[0], 0);
}

}  // namespace
}  // namespace gryphon
