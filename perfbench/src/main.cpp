// perfbench — the repository benchmark program.
//
//   perfbench --workload steady_fanout|catchup_herd|tcp_paced --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//
// Prints one human-readable line per metric (name, value, unit, sample
// counts), then, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {name: {value, unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when any correctness check failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "util/logging.hpp"

namespace {

using perfbench::Args;
using perfbench::Outcome;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload steady_fanout|catchup_herd|"
               "tcp_paced --seed N --seconds S --trace 0|1 --work-dir DIR\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* what) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage(what);
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = parse_u64(v, "bad --seed");
    } else if (arg == "--seconds") {
      char* end = nullptr;
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0)) usage("bad --seconds");
    } else if (arg == "--trace") {
      const std::uint64_t t = parse_u64(v, "bad --trace");
      if (t > 1) usage("bad --trace");
      a.trace = t == 1;
    } else if (arg == "--work-dir") {
      a.work_dir = v;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (a.workload.empty()) usage("missing --workload");
  if (a.work_dir.empty()) usage("missing --work-dir");
  return a;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  return buf;
}

void print(const Args& args, const Outcome& out) {
  std::printf("workload %s seed %llu seconds %g trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const auto& m : out.metrics) {
    std::printf("  %-36s %14.6g %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  std::printf("  correct %s, attempted %llu, failed %llu\n", out.correct ? "yes" : "NO",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (const auto& e : out.errors) std::printf("  FAILED: %s\n", e.c_str());

  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : out.metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  gryphon::Logger::instance().set_level(gryphon::LogLevel::kWarn);
  Outcome out;
  try {
    if (args.workload == "steady_fanout") {
      out = perfbench::run_steady_fanout(args);
    } else if (args.workload == "catchup_herd") {
      out = perfbench::run_catchup_herd(args);
    } else if (args.workload == "tcp_paced") {
      out = perfbench::run_tcp_paced(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    out.fail(std::string("exception: ") + e.what());
    out.attempted = std::max<std::uint64_t>(out.attempted, 1);
    out.failed = out.attempted;
  }
  if (out.attempted == 0) {
    out.fail("no deliveries were owed: the workload did not run");
    out.attempted = out.failed = 1;
  }
  print(args, out);
  return out.correct ? 0 : 1;
}
