// Power-loss durability of the real host.
//
// PHB + SHB + publisher + subscriber run as net::BrokerProcesses on one
// in-process EventLoop over loopback TCP, every broker on a FileDisk. At
// seeded points after publisher acks the loop stops and a seeded victim —
// the PHB, the SHB, or the whole machine (both) — loses power:
// FileDisk::power_loss() truncates every segment to the length its last
// completed fdatasync covered and deletes segments whose directory entry
// was never synced. The victims are destroyed and restarted over the same
// WAL directories, where they adopt what survived. The run must still
// deliver every published event to the subscriber exactly once, in order,
// with no gap: an ack is a promise that an fdatasync returned.
//
// The syncers are slowed to a few milliseconds per batch (a slow device),
// so an ack that ran ahead of its fdatasync sits in the window a power
// loss lands in. When the machine dies, the SHB loses the unsynced events
// it had not yet delivered, the PHB cannot serve them again, and the
// subscriber misses an acked event.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/client_observer.hpp"
#include "net/broker_process.hpp"
#include "net/event_loop.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace gryphon {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kEvents = 600;
constexpr int kPowerLosses = 4;
constexpr SimDuration kSlowSync = msec(3);

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
  void SetUp() override {
    Logger::instance().set_level(LogLevel::kOff);
    dir_ = fs::temp_directory_path() /
           ("gryphon_power_loss." + std::to_string(::getpid()) + "." +
            std::to_string(GetParam()));
    fs::remove_all(dir_);
  }
  void TearDown() override {
    for (auto& [name, proc] : procs_) proc.reset();
    fs::remove_all(dir_);
  }

  std::unique_ptr<net::BrokerProcess>& start(const net::ProcessOptions& options) {
    auto& slot = procs_[options.name];
    slot = std::make_unique<net::BrokerProcess>(loop_, options);
    if (slot->node() != nullptr) slot->node()->file_disk()->set_sync_delay(kSlowSync);
    return slot;
  }

  /// Ticks the loop until `done` holds; false after `timeout_s`.
  template <typename Done>
  bool run_until(Done done, double timeout_s) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (!done()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      loop_.tick(msec(2));
    }
    return true;
  }

  net::EventLoop loop_;
  fs::path dir_;
  std::map<std::string, std::unique_ptr<net::BrokerProcess>> procs_;
};

TEST_P(PowerLoss, EveryAckedPublishIsDeliveredExactlyOnce) {
  SeqRecorder recorder;
  std::map<std::string, net::ProcessOptions> options;
  auto& phb = options["phb"];
  phb.name = "phb";
  phb.role = "phb";
  phb.expected_children = 1;
  phb.num_pubends = 2;
  phb.storage.file_dir = (dir_ / "phb").string();
  start(phb);
  phb.listen_port = procs_["phb"]->port();  // restarts come back on it

  auto& shb = options["shb0"];
  shb.name = "shb0";
  shb.role = "shb";
  shb.num_pubends = 2;
  shb.parent_port = phb.listen_port;
  shb.storage.file_dir = (dir_ / "shb").string();
  start(shb);
  shb.listen_port = procs_["shb0"]->port();

  net::ProcessOptions sub;
  sub.name = "sub1";
  sub.role = "sub";
  sub.num_pubends = 2;
  sub.parent_port = shb.listen_port;
  sub.observer = &recorder;
  net::BrokerProcess* subscriber = start(sub).get();
  ASSERT_TRUE(run_until([&] { return subscriber->subscriber()->connected(); }, 20));

  net::ProcessOptions pub;
  pub.name = "pub1";
  pub.role = "pub";
  pub.num_pubends = 2;
  pub.parent_port = phb.listen_port;
  pub.publish_count = kEvents;
  pub.publish_interval = msec(1);
  net::BrokerProcess* publisher = start(pub).get();

  // Seeded power-loss points: ascending ack counts, each with a victim.
  Rng rng(GetParam());
  std::vector<std::uint64_t> points;
  for (int i = 0; i < kPowerLosses; ++i) points.push_back(20 + rng.next_below(kEvents - 40));
  std::sort(points.begin(), points.end());
  const std::vector<std::vector<std::string>> victims = {{"phb"}, {"shb0"}, {"phb", "shb0"}};
  for (const std::uint64_t point : points) {
    ASSERT_TRUE(run_until([&] { return publisher->publisher()->acked() >= point; }, 60))
        << "stalled before " << point << " acks";
    const auto& lost = victims[rng.next_below(victims.size())];
    for (const std::string& name : lost) procs_[name]->node()->file_disk()->power_loss();
    for (const std::string& name : lost) procs_[name].reset();
    for (const std::string& name : lost) EXPECT_TRUE(start(options[name])->adopted()) << name;
  }

  const bool complete = run_until(
      [&] {
        return (publisher->publisher()->acked() >= kEvents &&
                recorder.deliveries.size() >= kEvents) ||
               recorder.gaps > 0;
      },
      60);
  EXPECT_EQ(recorder.gaps, 0);
  ASSERT_TRUE(complete) << "acked " << publisher->publisher()->acked() << ", delivered "
                        << recorder.deliveries.size();
  // Let retries and catchup settle: a duplicate would arrive now.
  const auto settle = std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  run_until([&] { return std::chrono::steady_clock::now() > settle; }, 5);

  EXPECT_EQ(publisher->publisher()->published(), kEvents);
  ASSERT_EQ(recorder.deliveries.size(), kEvents);
  for (const auto& [seq, count] : recorder.deliveries) {
    EXPECT_GE(seq, 1u);
    EXPECT_LE(seq, kEvents);
    EXPECT_EQ(count, 1) << "seq " << seq;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PowerLoss, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace gryphon
