// InlineExecutor — the real runtime's CPU: handlers run to completion, FIFO,
// on the event loop thread.
//
// execute() appends the closure to a FIFO; the first append to an empty
// FIFO schedules one zero-delay loop task that drains it, including work
// the drained closures append. So a handler never runs inside the call
// that queued it, and a zero-cost follow-up (Broker::cpu_then) still runs
// behind everything queued before it, as under sim::Cpu. The cost argument
// is ignored: the machine's own speed is the cost.
//
// total_busy() is the loop thread's CPU time spent draining, read with
// CLOCK_THREAD_CPUTIME_ID once per drain rather than once per handler.
// backlog() is the age of the oldest queued closure, so the SHB's catchup
// backpressure still reacts to a loop that falls behind.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "sim/executor.hpp"
#include "sim/scheduler.hpp"

namespace gryphon::net {

class InlineExecutor final : public sim::Executor {
 public:
  explicit InlineExecutor(sim::Scheduler& loop) : loop_(loop) {}
  ~InlineExecutor() override { clear(); }

  void execute(SimDuration cost, std::function<void()> fn) override;
  void clear() override;
  [[nodiscard]] SimDuration backlog() const override;
  [[nodiscard]] SimDuration total_busy() const override { return busy_ns_ / 1000; }

 private:
  void drain();

  struct Item {
    SimTime queued_at;
    std::function<void()> fn;
  };

  sim::Scheduler& loop_;
  std::deque<Item> queue_;
  sim::TaskId drain_task_ = sim::kInvalidTask;
  std::int64_t busy_ns_ = 0;
};

}  // namespace gryphon::net
