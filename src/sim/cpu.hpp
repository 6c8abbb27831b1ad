// Per-broker CPU cost model.
//
// The paper's scalability results (Fig. 4) and CPU-idle plots (Fig. 8) are
// consequences of broker CPU saturation, so broker message processing runs
// through this model rather than executing for free. A Cpu is a fluid-flow
// multi-core server: work items queue FIFO and each item of cost `c` on `n`
// cores occupies the server for c/n microseconds. That approximation keeps
// per-item ordering (brokers are logically single event loops) while letting
// an F80-class 6-way machine process ~6x the work per second.
//
// inject_stall() models anything that blocks the whole process — the paper
// attributes the periodic dips in latestDelivered's advance rate (Fig. 6) to
// Java GC pauses, which we reproduce with a periodic stall injector.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/executor.hpp"
#include "sim/scheduler.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"

namespace gryphon::sim {

class Cpu final : public Executor {
 public:
  using Task = SmallTask;

  Cpu(Scheduler& scheduler, std::string name, int cores = 1,
      SimDuration accounting_window = msec(500));

  /// Queues a work item. `fn` runs (at the earliest) when all previously
  /// queued work has finished plus this item's service time. A zero-cost item
  /// still serializes behind the queue. Templated so the caller's closure is
  /// stored directly in the scheduled task (one SmallTask, no re-wrapping).
  template <typename F>
  void execute(SimDuration cost, F&& fn) {
    const SimTime end = admit(cost);
    sim_.schedule_at(end, [this, gen = generation_, fn = std::forward<F>(fn)]() mutable {
      if (gen != generation_) return;  // cleared by a crash
      ++tasks_executed_;
      fn();
    });
  }

  /// The Executor seam: the closure Broker::guarded already built is stored
  /// as-is in the scheduled task, exactly as the template overload does.
  void execute(SimDuration cost, std::function<void()> fn) override {
    execute<std::function<void()>>(cost, std::move(fn));
  }

  /// Blocks the whole server for `d` (e.g. a GC pause).
  void inject_stall(SimDuration d);

  /// Drops all queued-but-unstarted work (crash). Busy accounting of already
  /// "executed" service time is retained.
  void clear() override;

  /// How far behind the server currently is (0 when idle).
  [[nodiscard]] SimDuration backlog() const override;

  /// Fraction of [from, to) the server spent idle, in [0, 1].
  [[nodiscard]] double idle_fraction(SimTime from, SimTime to) const;

  /// Idle fraction per accounting window, for time-series plots.
  struct WindowIdle {
    SimTime start;
    double idle;
  };
  [[nodiscard]] std::vector<WindowIdle> idle_series() const;

  [[nodiscard]] std::uint64_t tasks_executed() const { return tasks_executed_; }
  [[nodiscard]] SimDuration total_busy() const override { return total_busy_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int cores() const { return cores_; }

 private:
  /// Books a work item of `cost` into the fluid-flow queue; returns its
  /// completion time.
  SimTime admit(SimDuration cost);

  /// Records that the server was busy over [start, end), spread across the
  /// accounting windows it overlaps.
  void account_busy(SimTime start, SimTime end);

  Scheduler& sim_;
  std::string name_;
  int cores_;
  SimDuration window_;
  SimTime busy_until_ = 0;
  std::uint64_t generation_ = 0;  // bumped by clear(); stale completions drop
  std::uint64_t tasks_executed_ = 0;
  SimDuration total_busy_ = 0;
  std::vector<SimDuration> busy_per_window_;
  SimTime horizon_ = 0;  // latest time busy accounting has reached
};

}  // namespace gryphon::sim
