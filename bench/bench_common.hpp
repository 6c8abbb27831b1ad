// Shared scaffolding for the figure/table reproduction benchmarks: the
// paper-default system configuration (§5's testbed translated through the
// DESIGN.md §4 substitutions) and small table/series printers.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "harness/system.hpp"
#include "harness/workload.hpp"

namespace gryphon::bench {

/// Parses all of `text` as a number in [lo, hi], or exits with status 2
/// naming the argument, as gryphon_broker does for its flags. (atoi would
/// read "abc" as 0 and, say, run zero seeds and exit 0.)
template <typename T>
T parse_arg(const std::string& name, const std::string& text,
            std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
            std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  T parsed{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, parsed);
  if (text.empty() || ec != std::errc{} || stop != end || !(parsed >= lo && parsed <= hi)) {
    std::ostringstream os;
    os << "bad " << name << " '" << text << "': expected a number in [" << lo << ", "
       << hi << "]";
    std::fprintf(stderr, "%s\n", os.str().c_str());
    std::exit(2);
  }
  return parsed;
}

/// §5 defaults: RS/6000 F80-class brokers (6 cores), event logging at the
/// PHB dominating end-to-end latency at ~44 ms, SSA-class SHB disks, 1 ms
/// broker links, 4 pubends.
inline harness::SystemConfig paper_config() {
  harness::SystemConfig config;
  config.num_pubends = 4;
  config.broker.cores = 6;
  config.broker.costs.publish_base = usec(2000);
  config.phb_disk.sync_latency = msec(43);
  config.phb_disk.write_bandwidth_bytes_per_sec = 40e6;
  config.shb_disk.sync_latency = msec(4);
  config.shb_disk.read_seek_latency = msec(6);
  return config;
}

inline harness::PaperWorkloadConfig paper_workload() {
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 800.0;  // over 4 pubends
  wl.groups = 4;              // each subscriber matches 200 ev/s
  wl.payload_bytes = 250;     // 418 bytes with headers
  return wl;
}

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
// Minimal JSON emission for the substrate perf trajectory. The file format
// is deliberately flat (one key per line) so the matching reader below can
// stay a line scanner instead of a JSON parser: BENCH_substrate.json is our
// own artifact, produced only by write_bench_json().

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

  [[nodiscard]] const BenchMetric* find(const std::string& metric) const {
    for (const auto& m : metrics) {
      if (m.name == metric) return &m;
    }
    return nullptr;
  }
};

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
  std::ofstream out(path);
  GRYPHON_CHECK_MSG(out.good(), "cannot write " << path);
  out << "{\n  \"schema\": \"gryphon-substrate-bench-v1\",\n  \"workloads\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    out << "    {\n      \"name\": \"" << r.name << "\",\n      \"variant\": \""
        << r.variant << "\"";
    for (const auto& m : r.metrics) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.6g", m.value);
      out << ",\n      \"" << m.name << "\": " << buf;
    }
    if (!r.registry.empty()) {
      out << ",\n      \"metrics\": {";
      for (std::size_t j = 0; j < r.registry.size(); ++j) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", r.registry[j].value);
        out << (j == 0 ? "\n" : ",\n") << "        \"" << r.registry[j].name
            << "\": " << buf;
      }
      out << "\n      }";
    }
    if (!r.latency.empty()) {
      out << ",\n      \"latency\": {";
      for (std::size_t j = 0; j < r.latency.size(); ++j) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", r.latency[j].value);
        out << (j == 0 ? "\n" : ",\n") << "        \"" << r.latency[j].name
            << "\": " << buf;
      }
      out << "\n      }";
    }
    out << "\n    }" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

/// Reads one metric back out of a write_bench_json() file. Returns nullopt
/// when the (workload, variant, metric) triple is absent.
inline std::optional<double> read_bench_metric(const std::string& path,
                                               const std::string& workload,
                                               const std::string& variant,
                                               const std::string& metric) {
  std::ifstream in(path);
  if (!in.good()) return std::nullopt;
  auto quoted_value = [](const std::string& line) -> std::string {
    const auto colon = line.find(':');
    if (colon == std::string::npos) return {};
    const auto open = line.find('"', colon);
    if (open == std::string::npos) return {};
    const auto close = line.find('"', open + 1);
    if (close == std::string::npos) return {};
    return line.substr(open + 1, close - open - 1);
  };
  std::string line;
  std::string cur_name;
  std::string cur_variant;
  while (std::getline(in, line)) {
    // A bare "{" opens a new workload object. Keyed opens (e.g. the nested
    // "metrics": { block) stay inside the current workload.
    if (line.find('{') != std::string::npos &&
        line.find('"') == std::string::npos) {
      cur_name.clear();
      cur_variant.clear();
      continue;
    }
    if (line.find("\"name\"") != std::string::npos) cur_name = quoted_value(line);
    if (line.find("\"variant\"") != std::string::npos) cur_variant = quoted_value(line);
    const std::string key = '"' + metric + '"';
    const auto pos = line.find(key);
    if (pos == std::string::npos) continue;
    if (cur_name != workload || cur_variant != variant) continue;
    const auto colon = line.find(':', pos);
    if (colon == std::string::npos) continue;
    return std::strtod(line.c_str() + colon + 1, nullptr);
  }
  return std::nullopt;
}

/// Prints a (time, value) series as aligned columns.
inline void print_series(const std::string& name,
                         const std::vector<TimeSeries::Point>& points,
                         double scale = 1.0, int precision = 1) {
  std::printf("\n-- %s --\n%-12s%s\n", name.c_str(), "t(s)", "value");
  for (const auto& p : points) {
    std::printf("%-12.1f%.*f\n", to_seconds(p.time), precision, p.value * scale);
  }
}

}  // namespace gryphon::bench
