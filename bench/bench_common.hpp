// Shared scaffolding for the gryphon_bench workloads: the argument parser,
// the allocation counters, table printers and the BENCH_*.json reader and
// writer. The deployments they run live in harness/workload.hpp.
#pragma once

#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "harness/system.hpp"
#include "harness/workload.hpp"

namespace gryphon::bench {

/// A workload's arguments: everything after its name on the gryphon_bench
/// command line. A workload takes its flags (flag, value, number), then its
/// positional numbers in order, then calls finish(). A flag without its
/// value, a malformed number or an argument that nothing took exits 2
/// before the workload runs.
class Args {
 public:
  Args(std::string workload, std::vector<std::string> args)
      : workload_(std::move(workload)), args_(std::move(args)), taken_(args_.size()) {}

  /// True if `name` was given.
  bool flag(std::string_view name) {
    bool given = false;
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (!taken_[i] && args_[i] == name) given = taken_[i] = true;
    }
    return given;
  }

  /// The last value given for `name`: the argument after it or, for a name
  /// that ends in '=' (`--trace-out=`), the rest of the same argument.
  std::optional<std::string> value(std::string_view name) {
    std::optional<std::string> given;
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (taken_[i] || !args_[i].starts_with(name)) continue;
      if (name.ends_with('=')) {
        taken_[i] = true;
        given = args_[i].substr(name.size());
      } else if (args_[i] == name) {
        if (i + 1 == args_.size()) fail("missing value for " + args_[i]);
        taken_[i] = taken_[i + 1] = true;
        given = args_[++i];
      }
    }
    return given;
  }

  /// value(name) as a number in [lo, hi], or `fallback` if not given.
  template <typename T>
  T number(std::string_view name, std::type_identity_t<T> fallback,
           std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
           std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
    const auto text = value(name);
    return text ? parse_arg<T>(std::string(name), *text, lo, hi) : fallback;
  }

  /// The next argument that is not a flag and that no flag took, as a number
  /// named `what` of at least `lo`; `fallback` if none is left.
  template <typename T>
  T positional(const std::string& what, std::type_identity_t<T> fallback,
               std::type_identity_t<T> lo = std::numeric_limits<T>::lowest()) {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (taken_[i] || args_[i].starts_with("--")) continue;
      taken_[i] = true;
      return parse_arg<T>(what, args_[i], lo, std::numeric_limits<T>::max());
    }
    return fallback;
  }

  /// Exits 2 naming the first argument that nothing took.
  void finish() const {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (!taken_[i]) fail("unexpected argument '" + args_[i] + "'");
    }
  }

  /// Prints `message` for this workload and exits 2.
  [[noreturn]] void fail(const std::string& message) const {
    std::fprintf(stderr, "gryphon_bench %s: %s\n", workload_.c_str(), message.c_str());
    std::exit(2);
  }

 private:
  /// Parses all of `text` as a number in [lo, hi], or exits 2 naming the
  /// argument. (atoi would read "abc" as 0 and, say, run zero seeds and
  /// exit 0.)
  template <typename T>
  T parse_arg(const std::string& name, const std::string& text, T lo, T hi) const {
    T parsed{};
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, parsed);
    if (text.empty() || ec != std::errc{} || stop != end || !(parsed >= lo && parsed <= hi)) {
      std::ostringstream os;
      os << "bad " << name << " '" << text << "': expected a number in [" << lo << ", " << hi
         << "]";
      fail(os.str());
    }
    return parsed;
  }

  std::string workload_;
  std::vector<std::string> args_;
  std::vector<bool> taken_;
};

/// The workloads of bench/main.cpp's table, one per bench_<name>.cpp.
int run_ablation_cache_size(Args& args);
int run_ablation_consolidation(Args& args);
int run_ablation_early_release(Args& args);
int run_ablation_pfs_fanout(Args& args);
int run_ablation_pfs_precision(Args& args);
int run_chaos_soak(Args& args);
int run_churn_storm(Args& args);
int run_fig4_scalability(Args& args);
int run_fig5_catchup_duration(Args& args);
int run_fig6_delivered_released(Args& args);
int run_fig7_crash_recovery(Args& args);
int run_fig8_crash_throughput(Args& args);
int run_jms_autoack(Args& args);
int run_latency_5hop(Args& args);
int run_pfs_micro(Args& args);
int run_recovery_fuzz(Args& args);
int run_scale_1m(Args& args);
int run_sockets(Args& args);
int run_wallclock(Args& args);

/// Heap allocations so far, and the usable bytes the live ones hold, as
/// counted by the operator new/delete that bench/alloc_hook.hpp defines in
/// gryphon_bench's main.cpp.
extern std::atomic<std::uint64_t> g_alloc_count;
extern std::atomic<std::uint64_t> g_live_bytes;

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_row(const std::vector<std::string>& cells, int width = 18) {
  for (const auto& cell : cells) std::printf("%-*s", width, cell.c_str());
  std::printf("\n");
}

inline std::string fmt(double v, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

// --- wall-clock reporting (bench_wallclock / tools/run_bench.sh) ---------
//
// The bench artifacts (BENCH_*.json) are written with util/json's
// JsonWriter and read back with parse_json().

struct BenchMetric {
  std::string name;
  double value;
};

/// One measured workload under one build variant ("pre_pr_baseline",
/// "post_pr", ...). Variants let a single file carry the committed perf
/// trajectory: baseline and current numbers side by side.
struct WorkloadReport {
  std::string name;
  std::string variant;
  std::vector<BenchMetric> metrics;
  /// Broker-internal registry counters (summed across nodes), emitted as a
  /// nested "metrics" object so run_bench.sh can diff protocol-level
  /// behaviour (e.g. gaps_sent creeping above zero) alongside throughput.
  std::vector<BenchMetric> registry;
  /// Per-stage latency percentiles (LatencyRecorder), emitted as a nested
  /// "latency" object: <stage>.count / .p50_ms / .p99_ms / .p999_ms. Keeps
  /// every perf PR accountable to tail latency, not just throughput.
  std::vector<BenchMetric> latency;
};

/// The value of the metric called `name`, or 0 if `metrics` has none.
inline double metric_value(const std::vector<BenchMetric>& metrics, const std::string& name) {
  for (const auto& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0;
}

/// Sums every node's registry counters into the report's nested `registry`
/// block (probes refreshed first so storage totals are current). Counter
/// names are per-node-unique, so the sum over nodes is the system total.
inline void attach_registry_metrics(WorkloadReport& report, harness::System& system) {
  std::map<std::string, double> sums;
  for (auto* node : system.nodes()) {
    node->metrics.refresh_probes();
    node->metrics.for_each_counter(
        [&](const std::string& name, std::uint64_t v) {
          sums[name] += static_cast<double>(v);
        });
  }
  for (const auto& [name, v] : sums) report.registry.push_back({name, v});
}

/// Flattens the recorder's histograms into nested-"latency"-block metrics.
/// Every stage is emitted (zero-count stages included) so the committed
/// JSON's key set never shifts between runs.
inline std::vector<BenchMetric> latency_percentile_metrics(
    const LatencyRecorder& recorder) {
  std::vector<BenchMetric> out;
  out.reserve(kNumLatencyStages * 4);
  for (std::size_t i = 0; i < kNumLatencyStages; ++i) {
    const auto stage = static_cast<LatencyStage>(i);
    const Histogram& h = recorder.stage(stage);
    const std::string prefix = latency_stage_name(stage);
    out.push_back({prefix + ".count", static_cast<double>(h.count())});
    out.push_back({prefix + ".p50_ms", h.percentile(50.0)});
    out.push_back({prefix + ".p99_ms", h.percentile(99.0)});
    out.push_back({prefix + ".p999_ms", h.percentile(99.9)});
  }
  return out;
}

inline void write_bench_json(const std::string& path,
                             const std::vector<WorkloadReport>& reports) {
  std::string doc;
  JsonWriter w(doc);
  w.begin_object().field("schema", "gryphon-substrate-bench-v1").key("workloads").begin_array();
  const auto block = [&w](const char* name, const std::vector<BenchMetric>& metrics) {
    if (metrics.empty()) return;
    w.key(name).begin_object();
    for (const auto& m : metrics) w.field(m.name, m.value);
    w.end_object();
  };
  for (const auto& r : reports) {
    w.begin_object().field("name", r.name).field("variant", r.variant);
    for (const auto& m : r.metrics) w.field(m.name, m.value);
    block("metrics", r.registry);
    block("latency", r.latency);
    w.end_object();
  }
  w.end_array().end_object();
  doc += '\n';
  GRYPHON_CHECK_MSG(write_file(path, doc), "cannot write " << path);
}

/// A committed bench artifact, parsed; nullopt, with the reason on stderr,
/// if it cannot be read or is not JSON.
inline std::optional<JsonValue> read_bench_json(const std::string& path) {
  std::string text;
  std::string error = "cannot read it";
  std::optional<JsonValue> doc;
  if (read_file(path, text)) doc = parse_json(text, &error);
  if (!doc) std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
  return doc;
}

/// The workload object named (`workload`, `variant`) in a parsed
/// write_bench_json() document, or null.
inline const JsonValue* find_bench_workload(const JsonValue& doc, const std::string& workload,
                                            const std::string& variant) {
  const JsonValue* workloads = doc.find("workloads");
  if (workloads == nullptr) return nullptr;
  for (const JsonValue& w : workloads->array) {
    const std::string* name = w.string_at("name");
    const std::string* var = w.string_at("variant");
    if (name != nullptr && *name == workload && var != nullptr && *var == variant) return &w;
  }
  return nullptr;
}

}  // namespace gryphon::bench
