// Structured component logging.
//
// Protocol-visible events (broker lifecycle, session changes, release
// application, recovery milestones) are logged through a process-wide
// Logger. Off by default so the simulator's hot loop pays one branch per
// suppressed call site; experiments and debugging sessions raise the level
// or install a capturing sink. A clock hook stamps entries: the harness
// binds it to *simulated* time, gryphon_broker to its event loop's wall
// clock. Whoever installs a clock holds a ScopedClock, which puts the
// default (every entry stamped 0) back when its owner dies, unless a later
// clock has replaced it — so an entry never reads a destroyed clock.
//
// Thread-safe: the level is atomic, and emitting, set_sink and the clock
// swaps are serialized, so threads sharing the process-wide Logger never
// interleave entries or race a sink swap. A sink must not log itself.
//
//   Logger::instance().set_level(LogLevel::kInfo);
//   GRYPHON_LOG(kInfo, "shb0", "subscriber " << id << " switched to constream");
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>

#include "util/time.hpp"

namespace gryphon {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

[[nodiscard]] const char* to_string(LogLevel level);

class Logger {
 public:
  /// (level, component, message, sim time) — installed sinks receive every
  /// emitted entry; the default sink writes to stderr.
  using Sink = std::function<void(LogLevel, const std::string&, const std::string&,
                                  SimTime)>;
  using Clock = std::function<SimTime()>;

  static Logger& instance();

  void set_level(LogLevel level) { level_.store(level, std::memory_order_relaxed); }
  [[nodiscard]] LogLevel level() const { return level_.load(std::memory_order_relaxed); }
  [[nodiscard]] bool enabled(LogLevel level) const { return level >= this->level(); }

  /// Replaces the sink (nullptr restores the stderr default).
  void set_sink(Sink sink);

  /// Installs `clock` for its lifetime; the destructor restores the
  /// default clock if this one is still installed.
  class ScopedClock {
   public:
    explicit ScopedClock(Clock clock);
    ~ScopedClock();
    ScopedClock(const ScopedClock&) = delete;
    ScopedClock& operator=(const ScopedClock&) = delete;

   private:
    std::uint64_t generation_;
  };

  void log(LogLevel level, const std::string& component, const std::string& message);

  [[nodiscard]] std::uint64_t emitted() const {
    return emitted_.load(std::memory_order_relaxed);
  }

 private:
  Logger();

  std::atomic<LogLevel> level_{LogLevel::kOff};
  std::mutex mu_;  // guards sink_, clock_ and clock_generation_; orders entries
  Sink sink_;
  Clock clock_;
  std::uint64_t clock_generation_ = 0;  // bumped by every ScopedClock install
  std::atomic<std::uint64_t> emitted_{0};
};

}  // namespace gryphon

/// Stream-style logging; evaluates its arguments only when the level is on.
#define GRYPHON_LOG(level, component, stream_expr)                              \
  do {                                                                          \
    auto& logger_ = ::gryphon::Logger::instance();                              \
    if (logger_.enabled(::gryphon::LogLevel::level)) {                          \
      std::ostringstream os_;                                                   \
      os_ << stream_expr; /* NOLINT */                                          \
      logger_.log(::gryphon::LogLevel::level, component, os_.str());            \
    }                                                                           \
  } while (false)
