// Unit tests: discrete-event simulator, network links, CPU model.
#include <gtest/gtest.h>

#include "sim/cpu.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace gryphon::sim {
namespace {

TEST(Simulator, RunsTasksInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(msec(30), [&] { order.push_back(3); });
  sim.schedule_at(msec(10), [&] { order.push_back(1); });
  sim.schedule_at(msec(20), [&] { order.push_back(2); });
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), msec(30));
}

TEST(Simulator, SameTimeRunsInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(msec(5), [&order, i] { order.push_back(i); });
  }
  sim.run_until_idle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const TaskId id = sim.schedule_at(msec(10), [&] { ran = true; });
  sim.cancel(id);
  sim.run_until_idle();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending_tasks(), 0u);
}

TEST(Simulator, CancelAfterRunIsNoop) {
  Simulator sim;
  const TaskId id = sim.schedule_at(msec(1), [] {});
  sim.run_until_idle();
  sim.cancel(id);  // must not throw
  sim.cancel(kInvalidTask);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(msec(10), [&] { ++count; });
  sim.schedule_at(msec(30), [&] { ++count; });
  sim.run_until(msec(20));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), msec(20));
  sim.run_until(msec(40));
  EXPECT_EQ(count, 2);
}

TEST(Simulator, TasksCanScheduleTasks) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recur = [&] {
    if (++depth < 5) sim.schedule_after(msec(1), recur);
  };
  sim.schedule_after(msec(1), recur);
  sim.run_until_idle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), msec(5));
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.schedule_at(msec(5), [] {});
  sim.run_until_idle();
  EXPECT_THROW(sim.schedule_at(msec(1), [] {}), InvariantViolation);
}

TEST(Simulator, CancelledIdDoesNotAffectSlotReuser) {
  Simulator sim;
  bool first_ran = false;
  bool second_ran = false;
  const TaskId a = sim.schedule_at(msec(10), [&] { first_ran = true; });
  sim.cancel(a);
  // The freed slot is reused immediately; the stale id must not reach it.
  const TaskId b = sim.schedule_at(msec(10), [&] { second_ran = true; });
  EXPECT_NE(a, b);
  sim.cancel(a);  // stale: generation mismatch, must be a no-op
  EXPECT_EQ(sim.pending_tasks(), 1u);
  sim.run_until_idle();
  EXPECT_FALSE(first_ran);
  EXPECT_TRUE(second_ran);
}

// Slab stress: a million schedule/cancel/run operations churning the free
// list. Checks (a) no cancelled task ever executes even when its slot and
// heap entry are recycled, (b) execution order stays (time, seq)-stable,
// (c) pending_tasks() is exact throughout, (d) ids never repeat while live.
TEST(Simulator, SlabReuseStressMillionOps) {
  Simulator sim;
  std::uint64_t executed = 0;
  std::uint64_t expected_executed = 0;
  SimTime last_time = 0;
  std::uint64_t last_stamp = 0;  // schedule order among live tasks
  std::uint64_t stamp = 0;
  std::vector<std::pair<TaskId, std::uint64_t>> live;  // (id, cancelled?) pool
  std::uint64_t x = 12345;  // xorshift: cheap deterministic choices
  auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 1'000'000; ++i) {
    const auto pick = rnd() % 10;
    if (pick < 6 || live.empty()) {
      // Schedule at now+1..now+16 with an increasing stamp; the callback
      // checks monotone (time, stamp) order and flags stale execution.
      const SimTime t = sim.now() + 1 + static_cast<SimTime>(rnd() % 16);
      const std::uint64_t my_stamp = ++stamp;
      const TaskId id = sim.schedule_at(t, [&, t, my_stamp] {
        ASSERT_EQ(sim.now(), t);
        ASSERT_GE(t, last_time);
        if (t == last_time) {
          ASSERT_GT(my_stamp, last_stamp);
        }
        last_time = t;
        last_stamp = my_stamp;
        ++executed;
      });
      live.emplace_back(id, my_stamp);
    } else if (pick < 8) {
      // Cancel a random live task (possibly already executed — then no-op).
      const std::size_t j = rnd() % live.size();
      sim.cancel(live[j].first);
      live[j] = live.back();
      live.pop_back();
    } else {
      // Run one task if any are pending.
      const std::uint64_t before = sim.pending_tasks();
      if (sim.run_one()) {
        ASSERT_EQ(sim.pending_tasks(), before - 1);
        ++expected_executed;
        ASSERT_EQ(executed, expected_executed);
      } else {
        ASSERT_EQ(before, 0u);
      }
    }
  }
  const std::uint64_t drained = sim.pending_tasks();
  sim.run_until_idle();
  EXPECT_EQ(sim.pending_tasks(), 0u);
  EXPECT_EQ(executed, expected_executed + drained);
}

// ---------------------------------------------------------------- network

struct TestMsg final : Message {
  explicit TestMsg(int v, std::size_t size = 100) : value(v), size_(size) {}
  int value;
  std::size_t size_;
  std::size_t wire_size() const override { return size_; }
};

TEST(Network, DeliversWithLatency) {
  Simulator sim;
  LinkNetwork net(sim);
  std::vector<std::pair<SimTime, int>> got;
  const auto a = net.add_endpoint("a", [](EndpointId, MessagePtr) {});
  const auto b = net.add_endpoint("b", [&](EndpointId, MessagePtr m) {
    got.emplace_back(sim.now(), static_cast<const TestMsg&>(*m).value);
  });
  net.connect(a, b, {msec(5), 1e9});
  net.send(a, b, std::make_shared<TestMsg>(42));
  sim.run_until_idle();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].second, 42);
  EXPECT_GE(got[0].first, msec(5));
}

TEST(Network, FifoPerLink) {
  Simulator sim;
  LinkNetwork net(sim);
  std::vector<int> got;
  const auto a = net.add_endpoint("a", [](EndpointId, MessagePtr) {});
  const auto b = net.add_endpoint("b", [&](EndpointId, MessagePtr m) {
    got.push_back(static_cast<const TestMsg&>(*m).value);
  });
  net.connect(a, b, {msec(1), 1e6});  // slow link: serialization matters
  for (int i = 0; i < 50; ++i) net.send(a, b, std::make_shared<TestMsg>(i, 2000));
  sim.run_until_idle();
  ASSERT_EQ(got.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST(Network, BandwidthSerializesBursts) {
  Simulator sim;
  LinkNetwork net(sim);
  SimTime last = 0;
  const auto a = net.add_endpoint("a", [](EndpointId, MessagePtr) {});
  const auto b = net.add_endpoint("b", [&](EndpointId, MessagePtr) { last = sim.now(); });
  net.connect(a, b, {msec(1), 1e6});  // 1 MB/s
  for (int i = 0; i < 10; ++i) net.send(a, b, std::make_shared<TestMsg>(i, 100'000));
  sim.run_until_idle();
  // 10 x 100KB at 1MB/s = 1s of serialization + 1ms latency.
  EXPECT_GE(last, sec(1));
}

TEST(Network, DownEndpointDropsInFlightAndFutureTraffic) {
  Simulator sim;
  LinkNetwork net(sim);
  int got = 0;
  const auto a = net.add_endpoint("a", [](EndpointId, MessagePtr) {});
  const auto b = net.add_endpoint("b", [&](EndpointId, MessagePtr) { ++got; });
  net.connect(a, b, {msec(10), 1e9});
  net.send(a, b, std::make_shared<TestMsg>(1));
  sim.run_until(msec(2));
  net.set_down(b, true);  // in-flight message dies with the connection
  sim.run_until(msec(20));
  EXPECT_EQ(got, 0);
  net.send(a, b, std::make_shared<TestMsg>(2));
  sim.run_until_idle();
  EXPECT_EQ(got, 0);
  net.set_down(b, false);
  net.send(a, b, std::make_shared<TestMsg>(3));
  sim.run_until_idle();
  EXPECT_EQ(got, 1);
}

TEST(Network, DownSenderCannotSend) {
  Simulator sim;
  LinkNetwork net(sim);
  int got = 0;
  const auto a = net.add_endpoint("a", [](EndpointId, MessagePtr) {});
  const auto b = net.add_endpoint("b", [&](EndpointId, MessagePtr) { ++got; });
  net.connect(a, b);
  net.set_down(a, true);
  net.send(a, b, std::make_shared<TestMsg>(1));
  sim.run_until_idle();
  EXPECT_EQ(got, 0);
}

TEST(Network, SendWithoutLinkThrows) {
  Simulator sim;
  LinkNetwork net(sim);
  const auto a = net.add_endpoint("a", [](EndpointId, MessagePtr) {});
  const auto b = net.add_endpoint("b", [](EndpointId, MessagePtr) {});
  EXPECT_THROW(net.send(a, b, std::make_shared<TestMsg>(1)), InvariantViolation);
}

TEST(Network, CountsDeliveredBytes) {
  Simulator sim;
  LinkNetwork net(sim);
  const auto a = net.add_endpoint("a", [](EndpointId, MessagePtr) {});
  const auto b = net.add_endpoint("b", [](EndpointId, MessagePtr) {});
  net.connect(a, b);
  net.send(a, b, std::make_shared<TestMsg>(1, 418));
  net.send(a, b, std::make_shared<TestMsg>(2, 418));
  sim.run_until_idle();
  EXPECT_EQ(net.delivered_messages_to(b), 2u);
  EXPECT_EQ(net.delivered_bytes_to(b), 836u);
}

// -------------------------------------------------------------------- cpu

TEST(Cpu, SerializesWorkAndTracksBusy) {
  Simulator sim;
  Cpu cpu(sim, "test", 1);
  std::vector<SimTime> done;
  for (int i = 0; i < 4; ++i) {
    cpu.execute(msec(10), [&] { done.push_back(sim.now()); });
  }
  sim.run_until_idle();
  ASSERT_EQ(done.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(done[static_cast<std::size_t>(i)], msec(10) * (i + 1));
  EXPECT_EQ(cpu.total_busy(), msec(40));
}

TEST(Cpu, MultiCoreDividesServiceTime) {
  Simulator sim;
  Cpu cpu(sim, "test", 6);
  SimTime done = 0;
  cpu.execute(msec(60), [&] { done = sim.now(); });
  sim.run_until_idle();
  EXPECT_EQ(done, msec(10));
}

TEST(Cpu, IdleFractionAccounting) {
  Simulator sim;
  Cpu cpu(sim, "test", 1, msec(100));
  // Busy 200ms of the first second.
  cpu.execute(msec(200), [] {});
  sim.run_until(sec(1));
  EXPECT_NEAR(cpu.idle_fraction(0, sec(1)), 0.8, 0.01);
  const auto series = cpu.idle_series();
  ASSERT_GE(series.size(), 2u);
  EXPECT_NEAR(series[0].idle, 0.0, 0.01);
  EXPECT_NEAR(series[1].idle, 0.0, 0.01);
}

TEST(Cpu, StallBlocksQueue) {
  Simulator sim;
  Cpu cpu(sim, "test", 1);
  SimTime done = 0;
  cpu.inject_stall(msec(50));
  cpu.execute(msec(10), [&] { done = sim.now(); });
  sim.run_until_idle();
  EXPECT_EQ(done, msec(60));
}

TEST(Cpu, ClearDropsQueuedWork) {
  Simulator sim;
  Cpu cpu(sim, "test", 1);
  bool ran = false;
  cpu.execute(msec(10), [&] { ran = true; });
  cpu.clear();
  sim.run_until_idle();
  EXPECT_FALSE(ran);
  EXPECT_EQ(cpu.backlog(), 0);
}

TEST(Cpu, BacklogReflectsQueueDepth) {
  Simulator sim;
  Cpu cpu(sim, "test", 1);
  cpu.execute(msec(30), [] {});
  cpu.execute(msec(30), [] {});
  EXPECT_EQ(cpu.backlog(), msec(60));
  sim.run_until(msec(30));
  EXPECT_EQ(cpu.backlog(), msec(30));
}

}  // namespace
}  // namespace gryphon::sim
