// MetricsRegistry — per-node named counters, gauges and histograms with a
// ~1-cycle hot path.
//
// The registry is the broker-internal observability surface the figure
// benches, `gryphon_sim --metrics-json` and the bench JSON `metrics` block
// all read from. Design constraints, in order:
//
//  * Hot-path cost: instruments are *slots* with stable addresses
//    (std::deque never reallocates elements); callers resolve a slot once at
//    registration time (broker construction) and keep the raw pointer. An
//    increment is then a single add through that pointer — no map lookup, no
//    branch, no allocation.
//  * Crash semantics: the registry lives in NodeResources, which survives a
//    broker *process* crash. counter()/gauge() are get-or-create, so a
//    restarted broker re-resolves the same cumulative per-node slot and the
//    counters keep counting across incarnations (what an operator's external
//    metrics store would see).
//  * Pull probes: objects that already keep their own totals (SimDisk,
//    LogVolume, Pubend windows) are read lazily via registered callbacks,
//    evaluated only at snapshot time — zero steady-state cost. A Probe is an
//    RAII token: broker-owned probes die with the broker, so a crashed
//    broker can never leave a dangling callback behind; the backing gauge
//    slot retains its last refreshed value.
//  * Determinism: slots are iterated in sorted name order; snapshots of two
//    same-seed runs are byte-identical.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.hpp"

namespace gryphon {

class JsonWriter;

class MetricsRegistry {
 public:
  /// Monotone event count. inc() is the hot-path operation.
  class Counter {
   public:
    void inc(std::uint64_t n = 1) { v_ += n; }
    [[nodiscard]] std::uint64_t get() const { return v_; }

   private:
    friend class MetricsRegistry;
    std::uint64_t v_ = 0;
  };

  /// Last-value instrument. set() is a plain store.
  class Gauge {
   public:
    void set(double v) { v_ = v; }
    [[nodiscard]] double get() const { return v_; }

   private:
    friend class MetricsRegistry;
    double v_ = 0;
  };

  /// RAII registration token for a pull probe (see probe()). Move-only;
  /// destruction (or release()) unregisters the callback. The registry must
  /// outlive the token — guaranteed for broker-owned probes, since
  /// NodeResources outlives every broker incarnation run on it.
  class Probe {
   public:
    Probe() = default;
    Probe(Probe&& o) noexcept : registry_(o.registry_), token_(o.token_) {
      o.registry_ = nullptr;
    }
    Probe& operator=(Probe&& o) noexcept;
    Probe(const Probe&) = delete;
    Probe& operator=(const Probe&) = delete;
    ~Probe() { release(); }

    void release();

   private:
    friend class MetricsRegistry;
    Probe(MetricsRegistry* registry, std::uint64_t token)
        : registry_(registry), token_(token) {}
    MetricsRegistry* registry_ = nullptr;
    std::uint64_t token_ = 0;
  };

  explicit MetricsRegistry(std::string node) : node_(std::move(node)) {}
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create; the returned pointer is stable for the registry's
  /// lifetime. Resolve once, keep the pointer.
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  /// Get-or-create; bounds are fixed by the first caller (later callers get
  /// the existing histogram regardless of the bounds they pass).
  Histogram* histogram(std::string_view name, double min_value, double max_value,
                       int buckets_per_decade = 10);

  /// Registers a pull probe writing into gauge(gauge_name) whenever
  /// refresh_probes() runs (i.e. at snapshot time). Keep the returned token
  /// alive exactly as long as whatever `fn` reads.
  [[nodiscard]] Probe probe(std::string_view gauge_name, std::function<double()> fn);

  /// Evaluates all live probes into their gauge slots.
  void refresh_probes();

  [[nodiscard]] const std::string& node() const { return node_; }

  /// Sorted-order iteration (after refresh_probes()).
  void for_each_counter(const std::function<void(const std::string&, std::uint64_t)>& f) const;
  void for_each_gauge(const std::function<void(const std::string&, double)>& f) const;

  /// Writes this node's snapshot as a JSON object value (callers emit the
  /// surrounding key). Refreshes probes first. Deterministic (sorted names).
  /// The end-of-run --metrics-json file uses the writer's pretty style, the
  /// periodic NDJSON scrape the compact one; only whitespace differs.
  void append_json(JsonWriter& w);

 private:
  struct ProbeEntry {
    std::uint64_t token = 0;
    Gauge* target = nullptr;
    std::function<double()> fn;
  };

  std::string node_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  // std::map keys the sorted iteration order; values index the deques.
  std::map<std::string, std::size_t, std::less<>> counter_index_;
  std::map<std::string, std::size_t, std::less<>> gauge_index_;
  std::map<std::string, std::size_t, std::less<>> histogram_index_;
  std::vector<ProbeEntry> probes_;
  std::uint64_t next_token_ = 1;
};

}  // namespace gryphon
