// gryphon_report — offline analyzer for the observability artifacts.
//
// Two modes:
//
//   gryphon_report SCRAPE.ndjson
//     Reads a --metrics-interval NDJSON scrape (one snapshot per line) and
//     prints per-counter totals and rates ((last - first) / elapsed) plus
//     the per-stage latency percentile table from the final snapshot.
//
//   gryphon_report --validate-trace trace.json [--expect-fault-track]
//     Minimal Chrome trace-event validation: the file must parse as JSON,
//     have a traceEvents array, and its event timestamps must be
//     non-decreasing (metadata "M" events are exempt — they carry no ts).
//     --expect-fault-track additionally requires the dedicated faults
//     process plus at least one fault event (what a chaos export promises).
//
// Exit code 0 on success, 1 on validation/analysis failure, 2 on usage.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace {

using gryphon::JsonValue;
using Kind = JsonValue::Kind;

// ------------------------------------------------------- trace validation
int validate_trace(const char* path, bool expect_fault_track) {
  std::string text;
  if (!gryphon::read_file(path, text)) {
    std::fprintf(stderr, "gryphon_report: cannot read %s\n", path);
    return 1;
  }
  std::string error;
  const std::optional<JsonValue> root = gryphon::parse_json(text, &error);
  if (!root) {
    std::fprintf(stderr, "gryphon_report: %s is not valid JSON: %s\n", path,
                 error.c_str());
    return 1;
  }
  const JsonValue* events = root->find("traceEvents");
  if (events == nullptr || events->kind != Kind::kArray) {
    std::fprintf(stderr, "gryphon_report: %s has no traceEvents array\n", path);
    return 1;
  }

  double last_ts = -1.0;
  std::size_t timed_events = 0;
  bool fault_track_named = false;
  std::size_t fault_events = 0;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& e = events->array[i];
    if (e.kind != Kind::kObject) {
      std::fprintf(stderr, "gryphon_report: event %zu is not an object\n", i);
      return 1;
    }
    const std::string* ph = e.string_at("ph");
    if (ph == nullptr) {
      std::fprintf(stderr, "gryphon_report: event %zu has no ph\n", i);
      return 1;
    }
    if (*ph == "M") {
      const std::string* name = e.string_at("name");
      const JsonValue* args = e.find("args");
      const std::string* aname = args != nullptr ? args->string_at("name") : nullptr;
      if (name != nullptr && *name == "process_name" && aname != nullptr &&
          *aname == "faults") {
        fault_track_named = true;
      }
      continue;  // metadata carries no timeline position
    }
    const std::optional<double> ts = e.number_at("ts");
    if (!ts) {
      std::fprintf(stderr, "gryphon_report: event %zu has no numeric ts\n", i);
      return 1;
    }
    if (*ts < last_ts) {
      std::fprintf(stderr,
                   "gryphon_report: event %zu goes backwards in time "
                   "(ts %.0f after %.0f)\n",
                   i, *ts, last_ts);
      return 1;
    }
    last_ts = *ts;
    ++timed_events;
    const std::string* cat = e.string_at("cat");
    if (cat != nullptr && *cat == "fault") ++fault_events;
  }

  if (expect_fault_track && (!fault_track_named || fault_events == 0)) {
    std::fprintf(stderr,
                 "gryphon_report: %s lacks a faults track (named: %s, fault "
                 "events: %zu)\n",
                 path, fault_track_named ? "yes" : "no", fault_events);
    return 1;
  }
  std::printf("%s: OK — %zu timed events, monotonic timestamps, %zu fault events\n",
              path, timed_events, fault_events);
  return 0;
}

// --------------------------------------------------------- scrape report
int report_scrape(const char* path) {
  std::string text;
  if (!gryphon::read_file(path, text)) {
    std::fprintf(stderr, "gryphon_report: cannot read %s\n", path);
    return 1;
  }
  std::vector<JsonValue> snapshots;
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    ++line_no;
    if (end > start) {
      std::string error;
      std::optional<JsonValue> v =
          gryphon::parse_json(std::string_view(text).substr(start, end - start), &error);
      if (!v) {
        std::fprintf(stderr, "gryphon_report: %s line %zu: %s\n", path, line_no,
                     error.c_str());
        return 1;
      }
      snapshots.push_back(std::move(*v));
    }
    start = end + 1;
  }
  if (snapshots.empty()) {
    std::fprintf(stderr, "gryphon_report: %s has no snapshots\n", path);
    return 1;
  }

  const JsonValue& first = snapshots.front();
  const JsonValue& last = snapshots.back();
  const std::optional<double> t0 = first.number_at("t");
  const std::optional<double> t1 = last.number_at("t");
  if (!t0 || !t1) {
    std::fprintf(stderr, "gryphon_report: snapshots lack a numeric \"t\" field\n");
    return 1;
  }
  const double elapsed = *t1 - *t0;
  std::printf("scrape: %zu snapshots over %.1f sim-seconds (t=%.1f .. %.1f)\n\n",
              snapshots.size(), elapsed, *t0, *t1);

  // Per-counter totals and rates, node by node.
  const JsonValue* nodes1 = last.find("nodes");
  const JsonValue* nodes0 = first.find("nodes");
  if (nodes1 != nullptr && nodes1->kind == Kind::kObject) {
    std::printf("%-8s %-34s %14s %12s\n", "node", "counter", "total", "rate/s");
    for (const auto& [node_name, node1] : nodes1->object) {
      const JsonValue* counters1 = node1.find("counters");
      if (counters1 == nullptr) continue;
      const JsonValue* node0 =
          nodes0 != nullptr ? nodes0->find(node_name) : nullptr;
      const JsonValue* counters0 = node0 != nullptr ? node0->find("counters") : nullptr;
      for (const auto& [name, v1] : counters1->object) {
        if (v1.number == 0) continue;
        const JsonValue* v0 =
            counters0 != nullptr ? counters0->find(name) : nullptr;
        const double delta = v1.number - (v0 != nullptr ? v0->number : 0.0);
        if (elapsed > 0) {
          std::printf("%-8s %-34s %14.0f %12.1f\n", node_name.c_str(), name.c_str(),
                      v1.number, delta / elapsed);
        } else {
          std::printf("%-8s %-34s %14.0f %12s\n", node_name.c_str(), name.c_str(),
                      v1.number, "-");
        }
      }
    }
    std::printf("\n");
  }

  // Latency percentile table from the final snapshot.
  const JsonValue* latency = last.find("latency");
  const JsonValue* stages = latency != nullptr ? latency->find("stages") : nullptr;
  if (stages != nullptr && stages->kind == Kind::kObject) {
    std::printf("%-22s %10s %10s %10s %10s %10s\n", "latency stage (ms)", "count",
                "p50", "p90", "p99", "p999");
    for (const auto& [stage_name, s] : stages->object) {
      const auto p = [&s](const char* key) { return s.number_at(key).value_or(0.0); };
      if (p("count") == 0) continue;
      std::printf("%-22s %10.0f %10.2f %10.2f %10.2f %10.2f\n", stage_name.c_str(),
                  p("count"), p("p50"), p("p90"), p("p99"), p("p999"));
    }
    std::printf("\nbookkeeping: orphan transitions %.0f, dropped keys %.0f\n",
                latency->number_at("orphan_transitions").value_or(0.0),
                latency->number_at("dropped_keys").value_or(0.0));
  } else {
    std::printf("(no latency block in final snapshot)\n");
  }
  return 0;
}

void usage() {
  std::fputs(
      "gryphon_report — analyze observability artifacts\n"
      "  gryphon_report SCRAPE.ndjson\n"
      "      per-counter totals/rates + latency percentile table from a\n"
      "      gryphon_sim --metrics-interval scrape\n"
      "  gryphon_report --validate-trace trace.json [--expect-fault-track]\n"
      "      JSON well-formedness + monotonic-timestamp check for a\n"
      "      --trace-out export\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--validate-trace") == 0) {
    bool expect_faults = false;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--expect-fault-track") == 0) {
        expect_faults = true;
      } else {
        usage();
        return 2;
      }
    }
    return validate_trace(argv[2], expect_faults);
  }
  if (argc == 2 && argv[1][0] != '-') {
    return report_scrape(argv[1]);
  }
  usage();
  return 2;
}
