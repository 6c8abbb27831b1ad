#include "net/event_loop.hpp"

#include <poll.h>

#include <algorithm>
#include <ctime>

#include "util/assert.hpp"

namespace gryphon::net {

EventLoop::EventLoop() : start_(std::chrono::steady_clock::now()) {}

EventLoop::~EventLoop() = default;

SimTime EventLoop::elapsed() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

sim::TaskId EventLoop::schedule_at(SimTime t, Task fn) {
  // Wall time moves between the caller's now() read and this call; a
  // nominally-past deadline just means "as soon as possible".
  return timers_.schedule_at(std::max(t, timers_.now()), std::move(fn));
}

void EventLoop::cancel(sim::TaskId id) { timers_.cancel(id); }

void EventLoop::watch_fd(int fd, bool want_read, bool want_write, IoCallback cb) {
  GRYPHON_CHECK(fd >= 0);
  GRYPHON_CHECK(cb != nullptr);
  Watcher& w = watchers_[fd];
  w.want_read = want_read;
  w.want_write = want_write;
  w.cb = std::move(cb);
  w.gen = ++watcher_gen_;
}

void EventLoop::update_fd(int fd, bool want_read, bool want_write) {
  auto it = watchers_.find(fd);
  GRYPHON_CHECK_MSG(it != watchers_.end(), "update of unwatched fd " << fd);
  it->second.want_read = want_read;
  it->second.want_write = want_write;
}

void EventLoop::unwatch_fd(int fd) { watchers_.erase(fd); }

void EventLoop::fire_due_timers() {
  const SimTime t = elapsed();
  now_ = t;
  // Tasks run with timer-store time advancing through their due instants;
  // now_ (what brokers read) is the wall clock at loop-dispatch time.
  timers_.run_until(t);
}

void EventLoop::tick(SimDuration max_wait) {
  fire_due_timers();

  // Poll timeout: exactly the microseconds to the next timer, so a timer
  // due in 200us is woken for after 200us (plus the kernel's timer slack).
  const SimTime due = timers_.next_due();
  SimDuration wait = max_wait;
  if (due != sim::Simulator::kNoTaskDue) {
    wait = std::clamp<SimDuration>(due - elapsed(), 0, max_wait);
  }
  const timespec timeout{static_cast<std::time_t>(wait / 1'000'000),
                         static_cast<long>(wait % 1'000'000) * 1000};

  pollfds_.clear();
  pollfds_.reserve(watchers_.size());
  for (const auto& [fd, w] : watchers_) {
    short events = 0;
    if (w.want_read) events |= POLLIN;
    if (w.want_write) events |= POLLOUT;
    pollfds_.push_back(pollfd{fd, events, 0});
  }

  const int n = ::ppoll(pollfds_.data(), pollfds_.size(), &timeout, nullptr);
  ++polls_;
  fire_due_timers();
  if (n <= 0) return;  // timeout or EINTR: timers already handled

  // Dispatch on a snapshot; a callback may mutate the watcher table, so
  // each entry is revalidated by (fd, generation) before its callback runs.
  for (const pollfd& p : pollfds_) {
    if (p.revents == 0) continue;
    auto it = watchers_.find(p.fd);
    if (it == watchers_.end()) continue;  // unwatched by an earlier callback
    std::uint32_t events = 0;
    if ((p.revents & (POLLIN | POLLHUP)) != 0) events |= kReadable;
    if ((p.revents & POLLOUT) != 0) events |= kWritable;
    if ((p.revents & (POLLERR | POLLNVAL)) != 0) events |= kError;
    if (events == 0) continue;
    // Copy the callback: the watcher may deregister itself mid-call.
    IoCallback cb = it->second.cb;
    cb(events);
  }
}

void EventLoop::run() {
  stopped_ = false;
  while (!stopped_) tick(msec(500));
}

void EventLoop::run_for(SimDuration duration) {
  stopped_ = false;
  const SimTime deadline = elapsed() + duration;
  while (!stopped_) {
    const SimTime left = deadline - elapsed();
    if (left <= 0) break;
    tick(std::min<SimDuration>(left, msec(500)));
  }
  fire_due_timers();
}

bool EventLoop::run_until(const std::function<bool()>& done, SimDuration timeout) {
  const SimTime deadline = elapsed() + timeout;
  while (!done()) {
    if (elapsed() > deadline) return false;
    tick(msec(2));
  }
  return true;
}

}  // namespace gryphon::net
