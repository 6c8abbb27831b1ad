// EventLoop — the real-time implementation of the sim::Scheduler seam.
//
// A single-threaded ppoll(2) loop: nonblocking fds are watched for
// read/write readiness, and timers are stored in an embedded sim::Simulator
// used purely as a deterministic timer wheel (same slab/heap/generation
// machinery, same TaskId contract — cancel tokens issued by brokers work
// identically in both worlds). now() is microseconds of wall-clock time
// since the loop was created, so every SimDuration constant in the broker
// configs (nack timeouts, commit intervals, disk sync latencies) means the
// same thing under the simulator and under this loop.
//
// Each iteration: advance now_ to the wall clock, fire every timer that is
// due, then ppoll() with a timeout of the exact microseconds to the next
// timer (or a bounded idle wait), then dispatch io callbacks. A timer fires
// within the kernel's timer slack (~50us) of its due time, not a whole
// millisecond late. Timer tasks scheduled for a past instant run on the
// next iteration — the loop never sleeps past a due timer, but real time
// may overshoot one; schedule_at clamps to now rather than asserting,
// because wall time, unlike sim time, moves on its own.
//
// Not thread-safe: everything — schedule, cancel, watch, dispatch — happens
// on the loop thread, exactly like the simulator it substitutes for.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"

struct pollfd;  // <poll.h>, included only by the .cpp

namespace gryphon::net {

class EventLoop final : public sim::Scheduler {
 public:
  /// Readiness bits handed to io callbacks (mirrors POLLIN/POLLOUT/POLLERR
  /// without leaking <poll.h> into every include site).
  static constexpr std::uint32_t kReadable = 1;
  static constexpr std::uint32_t kWritable = 2;
  static constexpr std::uint32_t kError = 4;

  using IoCallback = std::function<void(std::uint32_t events)>;

  EventLoop();
  ~EventLoop();  // out of line: pollfds_ element type is complete in the .cpp

  // --- sim::Scheduler ---
  sim::TaskId schedule_at(SimTime t, Task fn) override;
  void cancel(sim::TaskId id) override;

  // --- fd watchers ---
  /// Registers `fd` (must be nonblocking) with its readiness callback.
  /// The callback may watch/unwatch any fd, including its own.
  void watch_fd(int fd, bool want_read, bool want_write, IoCallback cb);

  /// Changes the readiness interest of a watched fd.
  void update_fd(int fd, bool want_read, bool want_write);

  /// Deregisters a watched fd (the caller closes it). Safe from inside its
  /// own callback. Unknown fds are a no-op.
  void unwatch_fd(int fd);

  // --- driving ---
  /// Runs until stop(). Idle iterations block in ppoll() up to the next
  /// timer (or 500ms when no timer is pending).
  void run();

  /// Runs until now() reaches the given elapsed time (bounded drivers,
  /// tests). Returns early on stop().
  void run_for(SimDuration duration);

  /// One poll + dispatch iteration with the given maximum wait.
  void tick(SimDuration max_wait);

  /// Makes run()/run_for() return after the current iteration. Signal-safe
  /// only in the sense of setting a flag; call it from a callback or timer.
  void stop() { stopped_ = true; }

  [[nodiscard]] bool stopped() const { return stopped_; }
  [[nodiscard]] std::size_t watched_fds() const { return watchers_.size(); }
  [[nodiscard]] std::uint64_t polls() const { return polls_; }
  [[nodiscard]] std::uint64_t timers_fired() const { return timers_.executed_tasks(); }

  /// Wall-clock microseconds since construction, read from the clock now
  /// (now() is the time the current iteration started). Safe from any
  /// thread: it touches only the immutable start point.
  [[nodiscard]] SimTime elapsed() const;

 private:

  /// Advances now_/timer time to the wall clock and fires due timers.
  void fire_due_timers();

  struct Watcher {
    bool want_read = false;
    bool want_write = false;
    IoCallback cb;
    std::uint64_t gen = 0;  // guards dispatch against unwatch-during-dispatch
  };

  std::chrono::steady_clock::time_point start_;
  sim::Simulator timers_;  // timer store only; never sees an fd
  std::unordered_map<int, Watcher> watchers_;
  std::uint64_t watcher_gen_ = 0;
  std::uint64_t polls_ = 0;
  bool stopped_ = false;
  std::vector<::pollfd> pollfds_;  // reused across iterations
};

}  // namespace gryphon::net
