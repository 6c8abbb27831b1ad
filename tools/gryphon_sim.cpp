// gryphon_sim — scenario driver CLI.
//
// Builds a broker deployment from command-line flags, runs a workload with
// optional churn and broker-failure injection, verifies the exactly-once
// contract, and prints a run report. Useful for exploring configurations
// beyond the canned benchmarks.
//
//   gryphon_sim --shbs 2 --subscribers 40 --rate 800 --duration 60
//               --churn-period 30 --churn-down 2
//               --crash-shb-at 20 --crash-down 5 --max-retain 10
//
// Run with --help for the full flag list.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "harness/sampler.hpp"
#include "harness/system.hpp"
#include "harness/workload.hpp"

namespace {

using namespace gryphon;

struct Flags {
  int pubends = 4;
  int intermediates = 0;
  int shbs = 1;
  int subscribers = 20;  // total, spread round-robin over SHBs
  int groups = 4;
  double rate = 800.0;
  double duration_s = 30.0;
  double churn_period_s = 0.0;  // 0 = no churn
  double churn_down_s = 2.0;
  double crash_shb_at_s = 0.0;  // 0 = no crash
  double crash_down_s = 5.0;
  double max_retain_s = 0.0;  // 0 = no early release
  int imprecise_batch = 1;
  int trace_sample = 64;
  std::string metrics_json;  // empty = no snapshot file
  double metrics_interval_s = 0.0;  // 0 = one end-of-run snapshot
  std::string trace_out;  // empty = no Chrome trace export
  std::string wire = "struct";
  int wire_verify = 0;  // 0 = SystemConfig default (sampled 1-in-64)
  double segment_kib = 0.0;     // 0 = StorageOptions default
  double db_compact_kib = 0.0;  // 0 = StorageOptions default
  std::string wal_dir;          // empty = in-memory WAL segments
  bool quiet = false;
};

void usage() {
  std::puts(
      "gryphon_sim — durable pub/sub scenario driver\n"
      "  --pubends N          publishing endpoints at the PHB     [4]\n"
      "  --intermediates N    chain length between PHB and SHBs   [0]\n"
      "  --shbs N             subscriber hosting brokers          [1]\n"
      "  --subscribers N      durable subscribers (round-robin)   [20]\n"
      "  --groups N           subscriber matches rate/groups      [4]\n"
      "  --rate EPS           aggregate publish rate              [800]\n"
      "  --duration S         measured run length (sim seconds)   [30]\n"
      "  --churn-period S     each subscriber bounces every S     [off]\n"
      "  --churn-down S       ...staying down for S               [2]\n"
      "  --crash-shb-at S     crash SHB 0 at this time            [off]\n"
      "  --crash-down S       ...restarting after S               [5]\n"
      "  --max-retain S       early-release retention window      [off]\n"
      "  --imprecise-batch N  PFS precision (1 = precise)         [1]\n"
      "  --trace-sample N     trace 1-in-N ticks (power of two)   [64]\n"
      "  --metrics-json PATH  write per-node registry snapshots\n"
      "  --metrics-interval S scrape every S sim-seconds: --metrics-json\n"
      "                       becomes NDJSON (one snapshot per line; feed\n"
      "                       it to gryphon_report)\n"
      "  --trace-out PATH     write a Chrome trace-event (Perfetto) JSON of\n"
      "                       all sampled tick milestones + fault windows\n"
      "  --wire MODE          link transport: struct | codec       [struct]\n"
      "  --wire-verify N      re-encode-check 1-in-N decodes; N=1 or\n"
      "                       'always' checks every frame           [64]\n"
      "  --segment-bytes KIB  WAL segment roll size (KiB)          [256]\n"
      "  --db-compact-bytes KIB  DB WAL compaction threshold (KiB) [1024]\n"
      "  --wal-dir PATH       file-backed WAL segments under PATH  [in-memory]\n"
      "  --quiet              suppress the per-second rate table\n");
}

bool parse_flags(int argc, char** argv, Flags& flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](double& out) {
      if (i + 1 >= argc) return false;
      out = std::atof(argv[++i]);
      return true;
    };
    double v = 0;
    if (arg == "--help" || arg == "-h") return false;
    // The observability flags also accept the --flag=value spelling.
    if (arg.rfind("--trace-out=", 0) == 0) {
      flags.trace_out = arg.substr(12);
    } else if (arg.rfind("--metrics-json=", 0) == 0) {
      flags.metrics_json = arg.substr(15);
    } else if (arg.rfind("--metrics-interval=", 0) == 0) {
      flags.metrics_interval_s = std::atof(arg.c_str() + 19);
    } else if (arg == "--quiet") {
      flags.quiet = true;
    } else if (arg == "--pubends" && next_value(v)) {
      flags.pubends = static_cast<int>(v);
    } else if (arg == "--intermediates" && next_value(v)) {
      flags.intermediates = static_cast<int>(v);
    } else if (arg == "--shbs" && next_value(v)) {
      flags.shbs = static_cast<int>(v);
    } else if (arg == "--subscribers" && next_value(v)) {
      flags.subscribers = static_cast<int>(v);
    } else if (arg == "--groups" && next_value(v)) {
      flags.groups = static_cast<int>(v);
    } else if (arg == "--rate" && next_value(v)) {
      flags.rate = v;
    } else if (arg == "--duration" && next_value(v)) {
      flags.duration_s = v;
    } else if (arg == "--churn-period" && next_value(v)) {
      flags.churn_period_s = v;
    } else if (arg == "--churn-down" && next_value(v)) {
      flags.churn_down_s = v;
    } else if (arg == "--crash-shb-at" && next_value(v)) {
      flags.crash_shb_at_s = v;
    } else if (arg == "--crash-down" && next_value(v)) {
      flags.crash_down_s = v;
    } else if (arg == "--max-retain" && next_value(v)) {
      flags.max_retain_s = v;
    } else if (arg == "--imprecise-batch" && next_value(v)) {
      flags.imprecise_batch = static_cast<int>(v);
    } else if (arg == "--trace-sample" && next_value(v)) {
      flags.trace_sample = static_cast<int>(v);
    } else if (arg == "--metrics-json" && i + 1 < argc) {
      flags.metrics_json = argv[++i];
    } else if (arg == "--metrics-interval" && next_value(v)) {
      flags.metrics_interval_s = v;
    } else if (arg == "--trace-out" && i + 1 < argc) {
      flags.trace_out = argv[++i];
    } else if (arg == "--wire" && i + 1 < argc) {
      flags.wire = argv[++i];
      if (flags.wire != "struct" && flags.wire != "codec") {
        std::fprintf(stderr, "--wire must be struct or codec, got %s\n",
                     flags.wire.c_str());
        return false;
      }
    } else if (arg == "--wire-verify" && i + 1 < argc) {
      const std::string n = argv[++i];
      flags.wire_verify = n == "always" ? 1 : std::atoi(n.c_str());
      if (flags.wire_verify < 1) {
        std::fprintf(stderr, "--wire-verify must be 'always' or N >= 1, got %s\n",
                     n.c_str());
        return false;
      }
    } else if (arg == "--segment-bytes" && next_value(v)) {
      flags.segment_kib = v;
    } else if (arg == "--db-compact-bytes" && next_value(v)) {
      flags.db_compact_kib = v;
    } else if (arg == "--wal-dir" && i + 1 < argc) {
      flags.wal_dir = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!parse_flags(argc, argv, flags)) {
    usage();
    return 2;
  }

  harness::SystemConfig config;
  config.num_pubends = flags.pubends;
  config.num_intermediates = flags.intermediates;
  config.num_shbs = flags.shbs;
  config.broker.costs.pfs_imprecise_batch =
      static_cast<std::size_t>(flags.imprecise_batch);
  if (flags.max_retain_s > 0) {
    config.policy = std::make_shared<core::MaxRetainPolicy>(
        static_cast<Tick>(flags.max_retain_s * 1000));
  }
  if (flags.trace_sample >= 1) {
    config.trace_sample_every = static_cast<std::uint32_t>(flags.trace_sample);
  }
  if (flags.wire == "codec") config.wire = harness::WireMode::kCodec;
  if (flags.wire_verify > 0) {
    config.wire_verify_every = static_cast<std::uint32_t>(flags.wire_verify);
  }
  if (flags.segment_kib > 0) {
    config.storage.segment_bytes = static_cast<std::size_t>(flags.segment_kib * 1024);
  }
  if (flags.db_compact_kib > 0) {
    config.storage.db_compact_bytes =
        static_cast<std::size_t>(flags.db_compact_kib * 1024);
  }
  config.storage.file_dir = flags.wal_dir;
  config.trace_export = !flags.trace_out.empty();
  if (flags.metrics_interval_s > 0 && flags.metrics_json.empty()) {
    std::fprintf(stderr, "--metrics-interval needs --metrics-json PATH for the scrape\n");
    return 2;
  }
  harness::System system(config);

  // Periodic NDJSON scrape: one deterministic snapshot line per interval,
  // plus a final line at exit (written in the report section below).
  std::FILE* scrape_file = nullptr;
  if (flags.metrics_interval_s > 0) {
    scrape_file = std::fopen(flags.metrics_json.c_str(), "w");
    if (scrape_file == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", flags.metrics_json.c_str());
      return 1;
    }
    const auto interval = static_cast<SimDuration>(flags.metrics_interval_s * 1e6);
    // Self-rescheduling tick; static so the reschedule lambda needs no
    // capture of a local that would go out of scope (main outlives the run,
    // but the function object must be addressable from inside itself).
    static std::function<void()> scrape_tick;
    scrape_tick = [&system, scrape_file, interval] {
      const std::string line = system.metrics_scrape_line();
      std::fwrite(line.data(), 1, line.size(), scrape_file);
      system.simulator().schedule_after(interval, [] { scrape_tick(); });
    };
    system.simulator().schedule_after(interval, [] { scrape_tick(); });
  }

  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = flags.rate;
  wl.groups = flags.groups;
  harness::start_paper_publishers(system, wl);

  std::vector<core::DurableSubscriber*> subs;
  for (int i = 0; i < flags.subscribers; ++i) {
    core::DurableSubscriber::Options options;
    options.id = SubscriberId{static_cast<std::uint32_t>(i + 1)};
    options.predicate = harness::group_predicate(i % flags.groups);
    auto& sub = system.add_subscriber(options, i % flags.shbs, i % 5);
    sub.connect();
    subs.push_back(&sub);
  }

  Summary catchup_durations;
  for (int i = 0; i < flags.shbs; ++i) {
    system.on_shb_ready(i, [&](core::SubscriberHostingBroker& shb) {
      shb.on_catchup_complete = [&](SubscriberId, SimTime from, SimTime to) {
        catchup_durations.add(to_seconds(to - from));
      };
    });
  }

  system.run_for(sec(3));  // connect + warm up
  std::unique_ptr<harness::ChurnDriver> churn;
  if (flags.churn_period_s > 0) {
    churn = std::make_unique<harness::ChurnDriver>(
        system, subs, static_cast<SimDuration>(flags.churn_period_s * 1e6),
        static_cast<SimDuration>(flags.churn_down_s * 1e6));
  }
  if (flags.crash_shb_at_s > 0) {
    const SimTime crash_at =
        system.simulator().now() + static_cast<SimDuration>(flags.crash_shb_at_s * 1e6);
    const SimTime back_at =
        crash_at + static_cast<SimDuration>(flags.crash_down_s * 1e6);
    system.simulator().schedule_at(crash_at, [&system] { system.crash_shb(0); });
    system.simulator().schedule_at(back_at, [&system] { system.restart_shb(0); });
    system.note_fault_span(crash_at, back_at, "crash shb0");
  }

  const SimTime measure_from = system.simulator().now();
  const auto delivered_before = system.oracle().delivered_count();
  system.run_for(static_cast<SimDuration>(flags.duration_s * 1e6));
  const SimTime measure_to = system.simulator().now();

  if (churn) churn->stop();
  system.run_for(sec(15));  // quiesce before verification
  system.verify_exactly_once();

  // ------------------------------------------------------------- report
  const auto delivered =
      system.oracle().delivered_count() - delivered_before;
  std::printf("== gryphon_sim report ==\n");
  std::printf(
      "topology: %d pubend(s), %d intermediate(s), %d SHB(s); %d subscribers; "
      "wire=%s\n",
      flags.pubends, flags.intermediates, flags.shbs, flags.subscribers,
      flags.wire.c_str());
  std::printf("published: %llu events at %.0f ev/s aggregate input\n",
              (unsigned long long)system.oracle().published_count(), flags.rate);
  std::printf("delivered: %llu in the %.0fs window (%.0f ev/s aggregate)\n",
              (unsigned long long)delivered, flags.duration_s,
              static_cast<double>(delivered) / flags.duration_s);
  std::printf("catchup deliveries: %llu; gap notifications: %llu\n",
              (unsigned long long)system.oracle().catchup_delivered_count(),
              (unsigned long long)system.oracle().gap_count());
  if (catchup_durations.count() > 0) {
    std::printf("catchup durations: n=%llu mean=%.2fs max=%.2fs\n",
                (unsigned long long)catchup_durations.count(),
                catchup_durations.mean(), catchup_durations.max());
  }
  std::printf("end-to-end latency (steady deliveries): mean %.1f ms\n",
              system.oracle().e2e_latency().mean());
  {
    const Histogram& e2e = system.latency().stage(LatencyStage::kEndToEnd);
    const Histogram& wait = system.latency().stage(LatencyStage::kCatchupWait);
    std::printf("sampled per-stage latency (1-in-%d ticks): e2e n=%llu "
                "p50=%.2fms p99=%.2fms",
                flags.trace_sample, (unsigned long long)e2e.count(),
                e2e.percentile(50.0), e2e.percentile(99.0));
    if (wait.count() > 0) {
      std::printf("; catchup wait n=%llu p99=%.2fms",
                  (unsigned long long)wait.count(), wait.percentile(99.0));
    }
    std::printf("\n");
  }
  std::printf("PHB idle %.0f%%", 100 * system.phb_cpu().idle_fraction(
                                           measure_from, measure_to));
  for (int i = 0; i < flags.shbs; ++i) {
    std::printf("  SHB%d idle %.0f%%", i,
                100 * system.shb_cpu(i).idle_fraction(measure_from, measure_to));
  }
  std::printf("\n");

  if (!flags.quiet) {
    std::printf("\nper-second aggregate delivery rate:\n");
    for (const auto& w : system.oracle().delivery_rate().windows()) {
      if (w.start < measure_from || w.start >= measure_to) continue;
      std::printf("  t=%-5.0f %8.0f ev/s\n", to_seconds(w.start), w.per_second);
    }
  }
  if (scrape_file != nullptr) {
    // Final scrape line so the file always covers the full run.
    const std::string line = system.metrics_scrape_line();
    std::fwrite(line.data(), 1, line.size(), scrape_file);
    const bool written = std::ferror(scrape_file) == 0;
    if (std::fclose(scrape_file) != 0 || !written) {
      std::fprintf(stderr, "cannot write %s\n", flags.metrics_json.c_str());
      return 1;
    }
    std::printf("wrote NDJSON metrics scrape to %s (interval %.1fs)\n",
                flags.metrics_json.c_str(), flags.metrics_interval_s);
  } else if (!flags.metrics_json.empty()) {
    if (system.write_metrics_json(flags.metrics_json)) {
      std::printf("wrote per-node metrics snapshot to %s\n",
                  flags.metrics_json.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", flags.metrics_json.c_str());
      return 1;
    }
  }
  if (!flags.trace_out.empty()) {
    if (system.write_trace_json(flags.trace_out)) {
      std::printf("wrote Chrome trace (%zu records, %zu faults) to %s\n",
                  system.trace_exporter()->record_count(),
                  system.trace_exporter()->fault_count(), flags.trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", flags.trace_out.c_str());
      return 1;
    }
  }
  std::printf("\nexactly-once contract verified for all %d subscribers.\n",
              flags.subscribers);
  return 0;
}
