// Time representations.
//
// Two distinct clocks exist in the system and must never be confused:
//
//  * SimTime  — simulated wall-clock time, in microseconds, advanced by the
//               discrete-event simulator. All latencies, timers and rates are
//               expressed against it.
//  * Tick     — an event timestamp in a pubend's stream, in "tick
//               milliseconds" (the paper's unit). Ticks are assigned by the
//               pubend, are strictly monotonic per pubend, and index the
//               knowledge streams (Q/S/D/L ladders). A pubend derives Ticks
//               from SimTime but consumers must treat them as opaque stream
//               positions.
#pragma once

#include <time.h>

#include <cstdint>

namespace gryphon {

/// Simulated wall-clock time in microseconds since simulation start.
using SimTime = std::int64_t;

/// Duration in simulated microseconds.
using SimDuration = std::int64_t;

constexpr SimDuration usec(std::int64_t n) { return n; }
constexpr SimDuration msec(std::int64_t n) { return n * 1000; }
constexpr SimDuration sec(std::int64_t n) { return n * 1'000'000; }
constexpr double to_seconds(SimTime t) { return static_cast<double>(t) / 1e6; }
constexpr double to_millis(SimTime t) { return static_cast<double>(t) / 1e3; }

/// CPU time the calling thread has used, in nanoseconds — a real clock
/// (the real runtime's busy accounting), never simulated time.
inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Event-stream timestamp in tick-milliseconds (paper §2: fine-grained enough
/// that no two events of one pubend share a tick).
using Tick = std::int64_t;

/// Sentinel for "no tick yet" / stream origin. All real ticks are > kTickZero.
constexpr Tick kTickZero = 0;

/// Sentinel upper bound, never assigned to an event.
constexpr Tick kTickInfinity = INT64_MAX;

/// A pubend's tick for a given simulated time: 1 tick == 1 ms of sim time.
constexpr Tick tick_of_simtime(SimTime t) { return t / 1000; }

}  // namespace gryphon
