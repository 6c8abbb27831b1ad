// Parameterized property sweeps: the exactly-once contract must hold across
// the cross-product of topology, workload, precision, policy and fault
// schedule — plus seeded randomized soak runs that mix every disturbance.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "harness/system.hpp"
#include "harness/workload.hpp"
#include "util/byte_buffer.hpp"
#include "util/rng.hpp"

namespace gryphon {
namespace {

using harness::System;
using harness::SystemConfig;

// ---------------------------------------------------------------- topology

struct TopologyParam {
  int pubends;
  int intermediates;
  int shbs;
  int subscribers_per_shb;
};

class TopologySweep : public ::testing::TestWithParam<TopologyParam> {};

TEST_P(TopologySweep, ChurnAndCrashKeepContract) {
  const auto param = GetParam();
  SystemConfig config;
  config.num_pubends = param.pubends;
  config.num_intermediates = param.intermediates;
  config.num_shbs = param.shbs;
  System system(config);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 100.0 * param.pubends;
  harness::start_paper_publishers(system, wl);

  std::vector<core::DurableSubscriber*> subs;
  for (int i = 0; i < param.shbs; ++i) {
    auto added = harness::add_group_subscribers(
        system, i, param.subscribers_per_shb, 4,
        static_cast<std::uint32_t>(1 + 100 * i));
    subs.insert(subs.end(), added.begin(), added.end());
  }
  system.run_for(sec(3));

  // One churn cycle...
  subs.front()->disconnect();
  system.run_for(sec(2));
  subs.front()->connect();
  // ...and one SHB crash mid-flight.
  system.run_for(sec(1));
  system.crash_shb(param.shbs - 1);
  system.run_for(sec(2));
  system.restart_shb(param.shbs - 1);
  system.run_for(sec(20));

  for (auto* sub : subs) {
    EXPECT_TRUE(sub->connected());
    EXPECT_EQ(sub->gaps_received(), 0u);
    EXPECT_GT(sub->events_received(), 0u);
  }
  std::size_t catchups = 0;
  for (int i = 0; i < param.shbs; ++i) catchups += system.shb(i).catchup_stream_count();
  EXPECT_EQ(catchups, 0u);
  system.verify_exactly_once();
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, TopologySweep,
    ::testing::Values(TopologyParam{1, 0, 1, 4},   //
                      TopologyParam{4, 0, 1, 8},   //
                      TopologyParam{2, 1, 1, 4},   //
                      TopologyParam{2, 3, 1, 4},   //
                      TopologyParam{2, 0, 2, 4},   //
                      TopologyParam{4, 1, 2, 6},   //
                      TopologyParam{2, 2, 3, 2}),
    [](const auto& info) {
      const auto& p = info.param;
      return "p" + std::to_string(p.pubends) + "_i" + std::to_string(p.intermediates) +
             "_s" + std::to_string(p.shbs) + "_n" + std::to_string(p.subscribers_per_shb);
    });

// -------------------------------------------------------- precision sweep

class PrecisionSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PrecisionSweep, CrashDuringCatchupKeepsContract) {
  SystemConfig config;
  config.num_pubends = 2;
  config.broker.costs.pfs_imprecise_batch = GetParam();
  System system(config);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 4, 4, 1);
  system.run_for(sec(3));

  subs[0]->disconnect();
  system.run_for(sec(5));
  subs[0]->connect();
  system.run_for(msec(8));  // mid-catchup (before the first PFS read lands)
  system.crash_shb(0);
  system.run_for(sec(2));
  system.restart_shb(0);
  system.run_for(sec(20));

  for (auto* sub : subs) EXPECT_EQ(sub->gaps_received(), 0u);
  system.verify_exactly_once();
}

INSTANTIATE_TEST_SUITE_P(Batches, PrecisionSweep,
                         ::testing::Values(std::size_t{1}, std::size_t{3},
                                           std::size_t{8}, std::size_t{32}),
                         [](const auto& info) {
                           return "batch" + std::to_string(info.param);
                         });

// ------------------------------------------------------ early-release sweep

class RetentionSweep : public ::testing::TestWithParam<Tick> {};

TEST_P(RetentionSweep, LaggardsAreGappedNeverSilentlyShorted) {
  SystemConfig config;
  config.num_pubends = 2;
  config.policy = std::make_shared<core::MaxRetainPolicy>(GetParam());
  config.broker.costs.cache_span_ticks = 1000;
  System system(config);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 2, 4, 1);
  system.run_for(sec(2));

  subs[0]->disconnect();
  system.run_for(sec(8));
  subs[0]->connect();
  system.run_for(sec(15));

  // Whatever the retention, the contract verifies: every matching event was
  // delivered or covered by an explicit gap.
  EXPECT_EQ(subs[1]->gaps_received(), 0u);  // well-behaved: never gapped
  system.verify_exactly_once();
}

INSTANTIATE_TEST_SUITE_P(MaxRetain, RetentionSweep,
                         ::testing::Values(Tick{1000}, Tick{3000}, Tick{6000},
                                           Tick{20'000}),
                         [](const auto& info) {
                           return "retain" + std::to_string(info.param) + "ms";
                         });

// ------------------------------------------------------- randomized soaks

class RandomSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomSoak, MixedDisturbancesKeepContract) {
  Rng rng(GetParam());
  SystemConfig config;
  config.num_pubends = 2;
  config.num_shbs = 2;
  config.num_intermediates = static_cast<int>(rng.next_below(2));
  System system(config);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  harness::start_paper_publishers(system, wl);
  auto subs0 = harness::add_group_subscribers(system, 0, 4, 4, 1);
  auto subs1 = harness::add_group_subscribers(system, 1, 4, 4, 100);
  std::vector<core::DurableSubscriber*> subs = subs0;
  subs.insert(subs.end(), subs1.begin(), subs1.end());
  system.run_for(sec(3));

  bool shb_down[2] = {false, false};
  for (int step = 0; step < 14; ++step) {
    switch (rng.next_below(5)) {
      case 0: {  // toggle a random subscriber
        auto* sub = subs[rng.next_below(subs.size())];
        if (sub->connected()) {
          sub->disconnect();
        } else {
          sub->connect();
        }
        break;
      }
      case 1: {  // crash/restart an SHB
        const int i = static_cast<int>(rng.next_below(2));
        if (shb_down[i]) {
          system.restart_shb(i);
          shb_down[i] = false;
        } else {
          system.crash_shb(i);
          shb_down[i] = true;
        }
        break;
      }
      case 2: {  // migrate a subscriber between SHBs (both must be up)
        if (!shb_down[0] && !shb_down[1]) {
          auto* sub = subs[rng.next_below(subs.size())];
          if (sub->connected()) {
            system.migrate_subscriber(*sub, static_cast<int>(rng.next_below(2)));
          }
        }
        break;
      }
      default:
        break;  // let it run
    }
    system.run_for(msec(500 + 500 * static_cast<SimDuration>(rng.next_below(4))));
  }

  // Heal everything and quiesce.
  for (int i = 0; i < 2; ++i) {
    if (shb_down[i]) system.restart_shb(i);
  }
  for (auto* sub : subs) {
    if (!sub->connected()) sub->connect();
  }
  system.run_for(sec(30));
  system.verify_exactly_once();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSoak,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u, 31337u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ------------------------------------- SHB counted indexes vs brute force

/// released(p) rebuilt from scratch: the minimum over every committed
/// shb_released row for pubend p, capped at latest_delivered(p).
Tick brute_force_released(System& system, PubendId p) {
  Tick rel = system.shb().latest_delivered(p);
  for (const auto& [key, value] : system.shb_node().database.scan("shb_released")) {
    const auto colon = key.find(':');
    if (std::stoul(key.substr(colon + 1)) != p.value()) continue;
    BufReader reader(value);
    rel = std::min(rel, reader.get_i64());
  }
  return rel;
}

/// Watches the istream trim from outside: once an open catchup stream has
/// reached the cache origin, no trim may move the origin past the stream's
/// delivered_upto while it stays open. Streams are keyed by (pubend,
/// subscriber); the test forgets a subscriber whenever it replaces its
/// session, since a fresh stream may legitimately start below the origin.
class TrimWatch {
 public:
  void sample(core::SubscriberHostingBroker& shb, const std::vector<PubendId>& pubends) {
    std::map<Key, Tick> reached;
    for (PubendId p : pubends) {
      const Tick origin = shb.istream_origin(p);
      for (const auto& [sid, delivered] : shb.catchup_positions(p)) {
        const Key key{p.value(), sid.value()};
        // A position behind the last one seen is a new stream: skip it.
        if (auto prev = reached_.find(key);
            prev != reached_.end() && delivered >= prev->second) {
          EXPECT_LE(origin, delivered) << "istream trimmed past open catchup stream "
                                       << sid << " on pubend " << p;
          ++checks_;
        }
        if (delivered >= origin) reached[key] = delivered;
      }
    }
    reached_ = std::move(reached);
  }
  void forget(SubscriberId sid) {
    std::erase_if(reached_, [sid](const auto& entry) {
      return entry.first.second == sid.value();
    });
  }
  void clear() { reached_.clear(); }
  [[nodiscard]] std::uint64_t checks() const { return checks_; }

 private:
  using Key = std::pair<std::uint32_t, std::uint32_t>;
  std::map<Key, Tick> reached_;  // streams at/above the origin -> position
  std::uint64_t checks_ = 0;
};

class CountedIndexSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(CountedIndexSweep, ReleasedAndTrimIndexesMatchBruteForce) {
  const auto [shards, seed] = GetParam();
  Rng rng(seed);
  SystemConfig config;
  config.num_pubends = 2;
  config.broker.pfs_shards = shards;
  config.broker.costs.catchup_admission_limit = 2;     // the queue engages
  config.broker.costs.catchup_rate_limit_eps = 100.0;  // catchups stay open
  config.broker.costs.cache_span_ticks = 1000;         // trims during catchup
  System system(config);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  harness::start_paper_publishers(system, wl);
  // Client-CT subscribers ack every 700 ms, so a reconnect usually presents
  // a CT newer than the SHB's released(s,p); JMS ones are acked per event.
  std::vector<core::DurableSubscriber*> subs = harness::add_group_subscribers(
      system, 0, 10, 4, 1, /*machines=*/1, /*ack_interval=*/msec(700));
  const std::size_t num_client_ct = subs.size();
  for (std::uint32_t i = 0; i < 4; ++i) {
    core::DurableSubscriber::Options options;
    options.id = SubscriberId{100 + i};
    options.predicate = harness::group_predicate(static_cast<int>(i));
    options.jms_auto_ack = true;
    auto& sub = system.add_subscriber(options);
    sub.connect();
    subs.push_back(&sub);
  }
  const std::vector<PubendId> pubends = system.pubends();

  TrimWatch watch;
  bool shb_up = true;
  std::function<void()> tick = [&] {
    if (shb_up) {
      watch.sample(system.shb(), pubends);
      for (PubendId p : pubends) {
        // Acks reach memory before their rows commit (never after), and a
        // deleted subscription's rows linger until its commit lands: the
        // committed rows can only lag the in-memory index, never lead it.
        EXPECT_LE(brute_force_released(system, p), system.shb().released(p));
      }
    }
    system.simulator().schedule_after(msec(10), tick);
  };
  system.simulator().schedule_after(msec(10), tick);
  system.run_for(sec(2));

  std::set<core::DurableSubscriber*> gone;  // unsubscribed
  std::map<core::DurableSubscriber*, core::CheckpointToken> older_ct;
  auto pick = [&](std::size_t from, std::size_t to) -> core::DurableSubscriber* {
    core::DurableSubscriber* sub = subs[from + rng.next_below(to - from)];
    return gone.contains(sub) ? nullptr : sub;
  };
  auto expect_exact = [&](const char* when) {
    for (PubendId p : pubends) {
      EXPECT_EQ(system.shb().released(p), brute_force_released(system, p))
          << when << ", pubend " << p;
    }
  };
  // With every session down, every ack has landed and been committed. The
  // whole population then reconnects, so laggards catch up and the minimum
  // keeps moving instead of sitting on one stale pin.
  auto quiesce_and_check = [&] {
    for (auto* sub : subs) {
      if (gone.contains(sub)) continue;
      sub->disconnect();
      watch.forget(sub->id());
    }
    system.run_for(sec(1));
    expect_exact("quiescent");
    for (auto* sub : subs) {
      if (!gone.contains(sub)) sub->connect();
    }
  };

  int crashes = 0;
  int unsubscribes = 0;
  for (int step = 0; step < 40; ++step) {
    if (auto* sub = pick(0, num_client_ct); sub != nullptr && rng.next_bool(0.3)) {
      older_ct[sub] = sub->checkpoint();
    }
    switch (rng.next_below(7)) {
      case 0:
      case 1: {  // toggle a client-CT subscriber (reconnects present a newer CT)
        auto* sub = pick(0, num_client_ct);
        if (sub == nullptr) break;
        watch.forget(sub->id());
        sub->connected() ? sub->disconnect() : sub->connect();
        break;
      }
      case 2: {  // reconnect with an older CT (a client that lost its state)
        auto* sub = pick(0, num_client_ct);
        if (sub == nullptr || !older_ct.contains(sub)) break;
        watch.forget(sub->id());
        sub->disconnect();
        sub->set_checkpoint(older_ct[sub]);
        system.oracle().reset_subscriber(sub->id());
        sub->connect();
        break;
      }
      case 3: {  // toggle a JMS auto-ack subscriber
        auto* sub = pick(num_client_ct, subs.size());
        if (sub == nullptr) break;
        watch.forget(sub->id());
        sub->connected() ? sub->disconnect() : sub->connect();
        break;
      }
      case 4: {  // unsubscribe a subscriber that is still catching up
        if (unsubscribes == 3 || !shb_up) break;
        for (PubendId p : pubends) {
          const auto open = system.shb().catchup_positions(p);
          if (open.empty()) continue;
          for (auto* sub : subs) {
            if (sub->id() == open.front().first && !gone.contains(sub)) {
              sub->unsubscribe();
              gone.insert(sub);
              ++unsubscribes;
              break;
            }
          }
          break;
        }
        break;
      }
      case 5: {  // SHB crash + recover()
        if (crashes == 2) break;
        ++crashes;
        system.crash_shb(0);
        shb_up = false;
        system.run_for(msec(300));
        system.restart_shb(0);
        shb_up = true;
        watch.clear();
        expect_exact("right after recover()");
        break;
      }
      default:
        break;  // let it run
    }
    system.run_for(msec(100 + 100 * static_cast<SimDuration>(rng.next_below(4))));
    if (step % 10 == 9) quiesce_and_check();
  }
  EXPECT_GT(watch.checks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndSeeds, CountedIndexSweep,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{4}),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})),
    [](const auto& info) {
      return "shards" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace gryphon
