#include "util/logging.hpp"

#include <cstdio>

namespace gryphon {

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

Logger::Logger() { set_sink(nullptr); }

void Logger::set_sink(Sink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sink) {
    sink_ = std::move(sink);
    return;
  }
  sink_ = [](LogLevel level, const std::string& component, const std::string& message,
             SimTime t) {
    std::fprintf(stderr, "[%10.3fs] %-5s %-10s %s\n", to_seconds(t), to_string(level),
                 component.c_str(), message.c_str());
  };
}

Logger::ScopedClock::ScopedClock(Clock clock) {
  Logger& logger = instance();
  std::lock_guard<std::mutex> lock(logger.mu_);
  logger.clock_ = std::move(clock);
  generation_ = ++logger.clock_generation_;
}

Logger::ScopedClock::~ScopedClock() {
  Logger& logger = instance();
  std::lock_guard<std::mutex> lock(logger.mu_);
  if (logger.clock_generation_ == generation_) logger.clock_ = nullptr;
}

void Logger::log(LogLevel level, const std::string& component,
                 const std::string& message) {
  if (!enabled(level)) return;
  emitted_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  sink_(level, component, message, clock_ ? clock_() : 0);
}

}  // namespace gryphon
