// Power-loss durability of the real host.
//
// PHB + SHB + publisher + subscriber run as net::BrokerProcesses in one
// net::LocalCluster (one EventLoop, loopback TCP), every broker on a
// FileDisk. At seeded points after publisher acks the loop stops and a
// seeded victim — the PHB, the SHB, or the whole machine (both) — loses
// power: FileDisk::power_loss() truncates every segment to the length its
// last completed fdatasync covered and deletes segments whose directory
// entry was never synced. The victims are destroyed and restarted over the
// same WAL directories, where they adopt what survived. The run must still
// deliver every published event to the subscriber exactly once, in order,
// with no gap: an ack is a promise that an fdatasync returned.
//
// The syncers are slowed to a few milliseconds per batch (a slow device),
// so an ack that ran ahead of its fdatasync sits in the window a power
// loss lands in. When the machine dies, the SHB loses the unsynced events
// it had not yet delivered, the PHB cannot serve them again, and the
// subscriber misses an acked event.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/client_observer.hpp"
#include "net/local_cluster.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace gryphon {
namespace {

constexpr std::uint64_t kEvents = 600;
constexpr int kPowerLosses = 4;
constexpr SimDuration kSlowSync = msec(3);
constexpr int kPubends = 2;

/// Counts every delivered event by its publisher sequence number.
class SeqRecorder final : public core::SubscriberObserver {
 public:
  void on_event(SubscriberId, PubendId, Tick, const matching::EventDataPtr& event, bool,
                SimTime) override {
    const matching::Value* seq = event->attribute("seq");
    ASSERT_NE(seq, nullptr);
    ++deliveries[static_cast<std::uint64_t>(seq->as_double())];
  }
  void on_gap(SubscriberId, PubendId, TickRange, SimTime) override { ++gaps; }

  std::map<std::uint64_t, int> deliveries;
  int gaps = 0;
};

class PowerLoss : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override { Logger::instance().set_level(LogLevel::kOff); }
};

net::BrokerProcess& slow_syncer(net::BrokerProcess& broker) {
  broker.node()->file_disk()->set_sync_delay(kSlowSync);
  return broker;
}

/// Starts the publisher under the PHB: kEvents events, one per millisecond.
core::Publisher& start_publisher(net::LocalCluster& cluster) {
  net::BrokerProcess& pub = cluster.start({.name = "pub1",
                                           .role = "pub",
                                           .num_pubends = kPubends,
                                           .publish_count = kEvents,
                                           .publish_interval = msec(1)},
                                          "phb");
  return *pub.publisher();
}

/// Lets retries and catchup settle for 300 ms, so a duplicate would arrive
/// now. Unlike run_for() this ignores stop(), which the publisher calls as
/// soon as its last event is acked.
void settle(net::EventLoop& loop) { loop.run_until([] { return false; }, msec(300)); }

TEST_P(PowerLoss, EveryAckedPublishIsDeliveredExactlyOnce) {
  SeqRecorder recorder;
  net::LocalCluster cluster;
  net::EventLoop& loop = cluster.loop();
  slow_syncer(cluster.start(
      {.name = "phb", .role = "phb", .expected_children = 1, .num_pubends = kPubends}));
  slow_syncer(cluster.start({.name = "shb0", .role = "shb", .num_pubends = kPubends}, "phb"));
  net::BrokerProcess& subscriber = cluster.start(
      {.name = "sub1", .role = "sub", .num_pubends = kPubends, .observer = &recorder}, "shb0");
  ASSERT_TRUE(loop.run_until([&] { return subscriber.subscriber()->connected(); }, sec(20)));
  core::Publisher& publisher = start_publisher(cluster);

  // Seeded power-loss points: ascending ack counts, each with a victim.
  Rng rng(GetParam());
  std::vector<std::uint64_t> points;
  for (int i = 0; i < kPowerLosses; ++i) points.push_back(20 + rng.next_below(kEvents - 40));
  std::sort(points.begin(), points.end());
  const std::vector<std::vector<std::string>> victims = {{"phb"}, {"shb0"}, {"phb", "shb0"}};
  for (const std::uint64_t point : points) {
    ASSERT_TRUE(loop.run_until([&] { return publisher.acked() >= point; }, sec(60)))
        << "stalled before " << point << " acks";
    const auto& lost = victims[rng.next_below(victims.size())];
    cluster.crash(lost);
    for (const std::string& name : lost) {
      EXPECT_TRUE(slow_syncer(cluster.restart(name)).adopted()) << name;
    }
  }

  const bool complete = loop.run_until(
      [&] {
        return (publisher.acked() >= kEvents && recorder.deliveries.size() >= kEvents) ||
               recorder.gaps > 0;
      },
      sec(60));
  EXPECT_EQ(recorder.gaps, 0);
  ASSERT_TRUE(complete) << "acked " << publisher.acked() << ", delivered "
                        << recorder.deliveries.size();
  settle(loop);

  EXPECT_EQ(publisher.published(), kEvents);
  ASSERT_EQ(recorder.deliveries.size(), kEvents);
  for (const auto& [seq, count] : recorder.deliveries) {
    EXPECT_GE(seq, 1u);
    EXPECT_LE(seq, kEvents);
    EXPECT_EQ(count, 1) << "seq " << seq;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PowerLoss, ::testing::Values(1, 2, 3));

// PHB <- IMB <- two SHBs, one subscriber on each. The intermediate holds
// its hello until both SHBs are in, so the tree boots root-first through
// it. One SHB loses power mid-stream and comes back over its WAL; both
// subscribers must still see every event exactly once, with no gap.
TEST(IntermediateChain, ShbPowerLossMidStreamKeepsBothSubscribersExactlyOnce) {
  Logger::instance().set_level(LogLevel::kOff);
  SeqRecorder recorders[2];
  net::LocalCluster cluster;
  net::EventLoop& loop = cluster.loop();
  cluster.start({.name = "phb", .role = "phb", .expected_children = 1, .num_pubends = kPubends});
  cluster.start({.name = "imb0", .role = "imb", .expected_children = 2, .num_pubends = kPubends},
                "phb");
  std::vector<net::BrokerProcess*> subscribers;
  for (int i = 0; i < 2; ++i) {
    const std::string shb = "shb" + std::to_string(i);
    cluster.start({.name = shb, .role = "shb", .num_pubends = kPubends}, "imb0");
    subscribers.push_back(&cluster.start({.name = "sub" + std::to_string(i),
                                          .role = "sub",
                                          .num_pubends = kPubends,
                                          .client_id = static_cast<std::uint32_t>(i + 1),
                                          .observer = &recorders[i]},
                                         shb));
  }
  ASSERT_TRUE(loop.run_until(
      [&] {
        return subscribers[0]->subscriber()->connected() &&
               subscribers[1]->subscriber()->connected();
      },
      sec(20)));
  core::Publisher& publisher = start_publisher(cluster);
  ASSERT_TRUE(loop.run_until([&] { return publisher.acked() >= kEvents / 3; }, sec(60)));
  cluster.crash("shb1");
  EXPECT_TRUE(cluster.restart("shb1").adopted());

  auto delivered = [&](const SeqRecorder& r) { return r.deliveries.size() >= kEvents; };
  const bool complete = loop.run_until(
      [&] {
        return (publisher.acked() >= kEvents && delivered(recorders[0]) &&
                delivered(recorders[1])) ||
               recorders[0].gaps + recorders[1].gaps > 0;
      },
      sec(60));
  ASSERT_TRUE(complete) << "acked " << publisher.acked() << ", delivered "
                        << recorders[0].deliveries.size() << " and "
                        << recorders[1].deliveries.size();
  settle(loop);

  EXPECT_EQ(cluster.frame_rejects(), 0u);
  for (const SeqRecorder& r : recorders) {
    EXPECT_EQ(r.gaps, 0);
    ASSERT_EQ(r.deliveries.size(), kEvents);
    for (const auto& [seq, count] : r.deliveries) {
      EXPECT_GE(seq, 1u);
      EXPECT_LE(seq, kEvents);
      EXPECT_EQ(count, 1) << "seq " << seq;
    }
  }
}

}  // namespace
}  // namespace gryphon
