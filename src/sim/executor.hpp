// Executor — the CPU seam between broker logic and whatever runs it.
//
// A broker hands every inbound message and every deferred step to its
// node's executor as a closure plus the CPU cost the 2003 model charges for
// it. Two implementations:
//
//  * `sim::Cpu` (cpu.hpp): the fluid-flow cost model. The closure runs once
//    the modeled service time has elapsed on the simulated clock.
//  * `net::InlineExecutor` (net/inline_executor.hpp): the real runtime. The
//    cost is ignored; closures run FIFO on the event loop as soon as it gets
//    to them, and busy time is the loop thread's measured CPU time.
//
// Both run closures in submission order and never inside execute() itself,
// so a handler is never re-entered by its own caller and a zero-cost item
// still runs behind the work queued before it.
#pragma once

#include <functional>

#include "util/time.hpp"

namespace gryphon::sim {

class Executor {
 public:
  Executor() = default;
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;
  virtual ~Executor() = default;

  /// Queues `fn`, charging `cost` of modeled CPU where a model exists.
  virtual void execute(SimDuration cost, std::function<void()> fn) = 0;

  /// Drops all queued-but-unstarted work (process crash).
  virtual void clear() = 0;

  /// How far behind the executor is: modeled queueing delay, or the age of
  /// the oldest queued closure. 0 when idle.
  [[nodiscard]] virtual SimDuration backlog() const = 0;

  /// Cumulative busy time: modeled service time, or measured CPU time.
  [[nodiscard]] virtual SimDuration total_busy() const = 0;
};

}  // namespace gryphon::sim
