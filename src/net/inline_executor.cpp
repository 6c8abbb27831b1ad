#include "net/inline_executor.hpp"

namespace gryphon::net {

void InlineExecutor::execute(SimDuration /*cost*/, std::function<void()> fn) {
  queue_.push_back(Item{loop_.now(), std::move(fn)});
  if (drain_task_ == sim::kInvalidTask) {
    drain_task_ = loop_.schedule_after(0, [this] { drain(); });
  }
}

void InlineExecutor::drain() {
  const std::int64_t cpu0 = thread_cpu_ns();
  while (!queue_.empty()) {
    std::function<void()> fn = std::move(queue_.front().fn);
    queue_.pop_front();
    fn();
  }
  drain_task_ = sim::kInvalidTask;
  busy_ns_ += thread_cpu_ns() - cpu0;
}

void InlineExecutor::clear() {
  queue_.clear();
  if (drain_task_ != sim::kInvalidTask) {
    loop_.cancel(drain_task_);
    drain_task_ = sim::kInvalidTask;
  }
}

SimDuration InlineExecutor::backlog() const {
  return queue_.empty() ? 0 : loop_.now() - queue_.front().queued_at;
}

}  // namespace gryphon::net
