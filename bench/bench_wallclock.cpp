// Wall-clock perf harness for the simulation substrate.
//
// Every figure bench and chaos soak reports *simulated* time; this binary is
// the one place that measures how fast the substrate turns simulated events
// into wall-clock progress, so optimizations to the event loop, TickMap,
// matching and log layers have a number to move (and a regression guard).
//
// Workloads:
//   * fig4_steady_4shb — the Figure-4 4-SHB steady-state deployment (800
//     ev/s input over 4 pubends, 400 subscribers) run for a fixed window of
//     simulated time,
//   * chaos_soak_seed1 — one seeded chaos schedule over the 5-broker soak
//     topology (the workload tools/run_chaos.sh loops on),
//   * catchup_herd_5k — one bench_churn_storm wave: 5,000 subscribers drop
//     and reconnect at once through a 256-wide admission gate, timed until
//     the last catchup stream switches over.
//
// Reported per workload: simulated-events-per-wall-second (an "event" is one
// executed simulator task), deliveries-per-wall-second, and heap
// allocations-per-event via the counting operator-new hook below. Each
// workload runs `--reps` times and the fastest rep is reported (wall-clock
// noise is one-sided).
//
//   bench_wallclock [--out FILE] [--check FILE] [--tolerance F]
//                   [--reps N] [--smoke]
//
// --check compares this run's events/wall-second (deliveries/wall-second for
// the herd, whose cost is per catchup delivery) against the post_pr (or,
// failing that, "run") variant recorded in FILE (tools/run_bench.sh points
// it at the committed BENCH_substrate.json) and exits non-zero on a regression beyond
// --tolerance (default 0.15). --smoke runs a single short chaos schedule
// with the oracle armed and no timing checks — the sanitizer entry point
// wired into tools/run_chaos.sh.
#include "bench/bench_common.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

#include "harness/chaos.hpp"

// ------------------------------------------------------------------------
// Counting allocator hook: every heap allocation in the process bumps one
// relaxed atomic. Deletes are uncounted (allocs-per-event is the budget the
// substrate model in DESIGN.md §4.2 talks about).
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

inline void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace gryphon::bench {
namespace {

struct Measurement {
  double wall_seconds = 0;
  double sim_seconds = 0;
  std::uint64_t executed_tasks = 0;
  std::uint64_t delivered = 0;
  std::uint64_t allocs = 0;
  /// System-wide registry counter totals, captured after the run (the
  /// nested "metrics" block in the bench JSON).
  std::vector<BenchMetric> registry;
  /// Per-stage latency percentiles (the nested "latency" block).
  std::vector<BenchMetric> latency;

  [[nodiscard]] double events_per_wall_sec() const {
    return static_cast<double>(executed_tasks) / wall_seconds;
  }
  [[nodiscard]] double registry_counter(const std::string& name) const {
    for (const auto& m : registry) {
      if (m.name == name) return m.value;
    }
    return 0;
  }
  [[nodiscard]] double latency_metric(const std::string& name) const {
    for (const auto& m : latency) {
      if (m.name == name) return m.value;
    }
    return 0;
  }
};

/// Runs `body` (which advances `system` by some simulated time) and counts
/// executed tasks, oracle deliveries, allocations and wall time around it.
template <typename Body>
Measurement measure(harness::System& system, Body&& body) {
  Measurement m;
  const std::uint64_t tasks0 = system.simulator().executed_tasks();
  const std::uint64_t delivered0 = system.oracle().delivered_count();
  const SimTime sim0 = system.simulator().now();
  const std::uint64_t allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  const auto wall0 = std::chrono::steady_clock::now();
  body();
  const auto wall1 = std::chrono::steady_clock::now();
  m.wall_seconds = std::chrono::duration<double>(wall1 - wall0).count();
  m.sim_seconds = to_seconds(system.simulator().now() - sim0);
  m.executed_tasks = system.simulator().executed_tasks() - tasks0;
  m.delivered = system.oracle().delivered_count() - delivered0;
  m.allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  return m;
}

/// Figure-4 4-SHB steady state: build, warm up, then time a fixed window.
/// Run once per wire mode: the codec variant prices the encode/decode tax
/// (every message framed + CRC'd + parsed) against the struct fast path.
Measurement run_fig4_steady(harness::WireMode wire) {
  auto config = paper_config();
  config.num_shbs = 4;
  config.wire = wire;
  harness::System system(config);
  harness::start_paper_publishers(system, paper_workload());
  for (int i = 0; i < config.num_shbs; ++i) {
    harness::add_group_subscribers(system, i, /*count=*/100, /*groups=*/4,
                                   static_cast<std::uint32_t>(1000 * (i + 1)),
                                   /*machines=*/5);
  }
  system.run_for(sec(10));  // warmup: connect, fill pipelines

  auto m = measure(system, [&] { system.run_for(sec(20)); });
  system.run_for(sec(5));  // quiesce outside the timed window
  system.verify_exactly_once();
  WorkloadReport snapshot;
  attach_registry_metrics(snapshot, system);
  m.registry = std::move(snapshot.registry);
  // A clean steady-state run must never reject a frame: any decode reject
  // here means the codec (not the network) corrupted a message.
  m.registry.push_back(
      {"net.decode_rejects", static_cast<double>(system.network().decode_rejects())});
  m.latency = latency_percentile_metrics(system.latency());
  return m;
}

/// One seeded chaos schedule over the soak topology (bench_chaos_soak's
/// per-seed body), timed end to end including quiescence verification.
Measurement run_chaos_soak(std::uint64_t seed, double horizon_s) {
  harness::SystemConfig sc;
  sc.num_pubends = 2;
  sc.num_shbs = 2;
  sc.num_intermediates = 1;
  harness::System system(sc);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 300;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 4, 4, 1);
  auto more = harness::add_group_subscribers(system, 1, 4, 4, 100);
  subs.insert(subs.end(), more.begin(), more.end());
  system.run_for(sec(3));

  harness::ChurnDriver churn(system, subs, sec(6), sec(2));
  harness::ChaosConfig config;
  config.seed = seed;
  config.horizon = static_cast<SimDuration>(horizon_s * 1e6);
  harness::ChaosSchedule chaos(system, config);
  system.simulator().schedule_at(chaos.repaired_at(), [&churn] { churn.stop(); });

  auto m = measure(system, [&] { chaos.run(); });
  m.latency = latency_percentile_metrics(system.latency());
  return m;
}

/// One reconnect herd in bench_churn_storm's shape (no early release): 5,000
/// durable subscribers on one SHB behind one intermediate drop at once, come
/// back 4 s later through a 256-wide admission gate, and the window runs
/// from the drop until no catchup stream is left.
Measurement run_catchup_herd() {
  harness::SystemConfig sc;
  sc.num_pubends = 1;
  sc.num_intermediates = 1;
  sc.broker.cores = 32;
  sc.shb_disk.read_seek_latency = usec(100);
  sc.shb_disk.sync_latency = msec(1);
  sc.broker.costs.catchup_admission_limit = 256;
  sc.broker.costs.cache_span_ticks = 2000;
  sc.broker.costs.catchup_rate_limit_eps = 5000.0;
  sc.storage.segment_bytes = 64 * 1024;
  harness::System system(sc);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  wl.groups = 100;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, /*count=*/5000, wl.groups,
                                             /*first_id=*/1, /*machines=*/10,
                                             /*ack_interval=*/sec(1));
  system.run_for(sec(2));

  harness::StormDriver::Options so;
  so.waves = 1;
  so.wave_interval = msec(100);
  so.down_time = sec(4);
  harness::StormDriver storm(system, subs, so);
  auto m = measure(system, [&] {
    system.run_for(so.wave_interval + so.down_time + msec(100));
    for (int i = 0; i < 600 && system.shb().catchup_stream_count() > 0; ++i) {
      system.run_for(msec(100));
    }
  });
  system.run_for(sec(5));
  system.verify_quiescent();
  WorkloadReport snapshot;
  attach_registry_metrics(snapshot, system);
  m.registry = std::move(snapshot.registry);
  m.latency = latency_percentile_metrics(system.latency());
  return m;
}

WorkloadReport to_report(const std::string& name, const Measurement& m) {
  WorkloadReport r;
  r.name = name;
  r.variant = "run";
  const double events = static_cast<double>(m.executed_tasks);
  r.metrics = {
      {"sim_seconds", m.sim_seconds},
      {"wall_seconds", m.wall_seconds},
      {"executed_tasks", events},
      {"delivered_events", static_cast<double>(m.delivered)},
      {"sim_events_per_wall_sec", m.events_per_wall_sec()},
      {"deliveries_per_wall_sec", static_cast<double>(m.delivered) / m.wall_seconds},
      {"allocs_per_event", static_cast<double>(m.allocs) / events},
  };
  r.registry = m.registry;
  r.latency = m.latency;
  return r;
}

}  // namespace
}  // namespace gryphon::bench

int main(int argc, char** argv) {
  using namespace gryphon;
  using namespace gryphon::bench;

  std::string out_path;
  std::string check_path;
  double tolerance = 0.15;
  int reps = 3;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      GRYPHON_CHECK_MSG(i + 1 < argc, "missing value for " << arg);
      return argv[++i];
    };
    if (arg == "--out") out_path = next();
    else if (arg == "--check") check_path = next();
    else if (arg == "--tolerance") tolerance = parse_arg<double>("--tolerance", next(), 0, 1);
    else if (arg == "--reps") reps = parse_arg<int>("--reps", next(), 1);
    else if (arg == "--smoke") smoke = true;
    else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  if (smoke) {
    // Sanitizer entry point: one short schedule, oracle armed, no timing.
    print_header("bench_wallclock --smoke: 1 chaos seed, oracle armed");
    const auto m = run_chaos_soak(/*seed=*/1, /*horizon_s=*/5.0);
    std::printf("ok: %llu tasks, %llu deliveries, %.1f sim-s\n",
                static_cast<unsigned long long>(m.executed_tasks),
                static_cast<unsigned long long>(m.delivered), m.sim_seconds);
    return 0;
  }

  print_header("Substrate wall-clock harness (fastest of " + std::to_string(reps) +
               " reps per workload)");
  print_row({"workload", "sim_s", "wall_s", "tasks", "ev/wall-s", "deliv/wall-s",
             "allocs/ev"});

  struct Spec {
    std::string name;
    std::function<Measurement()> run;
    const char* gated;  // the rate --check compares
  };
  const char* const kEventRate = "sim_events_per_wall_sec";
  const std::vector<Spec> specs = {
      {"fig4_steady_4shb", [] { return run_fig4_steady(harness::WireMode::kStruct); },
       kEventRate},
      {"fig4_steady_4shb_codec",
       [] { return run_fig4_steady(harness::WireMode::kCodec); }, kEventRate},
      {"chaos_soak_seed1", [] { return run_chaos_soak(/*seed=*/1, /*horizon_s=*/8.0); },
       kEventRate},
      {"catchup_herd_5k", run_catchup_herd, "deliveries_per_wall_sec"},
  };

  std::vector<WorkloadReport> reports;
  bool regression = false;
  for (const auto& [name, run, gated] : specs) {
    Measurement best;
    for (int r = 0; r < reps; ++r) {
      const Measurement m = run();
      if (r == 0 || m.events_per_wall_sec() > best.events_per_wall_sec()) best = m;
    }
    print_row({name, fmt(best.sim_seconds, 1), fmt(best.wall_seconds, 2),
               std::to_string(best.executed_tasks), fmt(best.events_per_wall_sec(), 0),
               fmt(static_cast<double>(best.delivered) / best.wall_seconds, 0),
               fmt(static_cast<double>(best.allocs) /
                       static_cast<double>(best.executed_tasks),
                   2)});
    reports.push_back(to_report(name, best));

    // Counter regression guard: the steady fig4 workload never loses
    // knowledge, so any gap notification means the protocol (not the clock)
    // regressed. Checked unconditionally — it needs no committed reference.
    if (name.rfind("fig4_steady_4shb", 0) == 0) {
      const double gaps = best.registry_counter("shb.gaps_sent");
      if (gaps > 0) {
        std::printf("  METRIC REGRESSION: %s sent %.0f gap notifications on a "
                    "steady workload (expected 0)\n",
                    name.c_str(), gaps);
        regression = true;
      }
      // No broker crashes in the steady workload: a recovery scan that had
      // to discard a torn WAL tail means the persistence engine corrupted or
      // lost bytes on a fault-free run.
      const double truncated = best.registry_counter("wal.recovery_truncated_bytes");
      if (truncated > 0) {
        std::printf("  METRIC REGRESSION: %s truncated %.0f WAL bytes on a "
                    "steady workload (expected 0)\n",
                    name.c_str(), truncated);
        regression = true;
      }
      // No frame corruption is injected here, so a transport decode reject
      // means the wire codec itself produced or mis-parsed a frame.
      const double rejects = best.registry_counter("net.decode_rejects");
      if (rejects > 0) {
        std::printf("  METRIC REGRESSION: %s rejected %.0f frames on a clean "
                    "steady workload (expected 0)\n",
                    name.c_str(), rejects);
        regression = true;
      }
      // Steady-state tail-latency guard. End-to-end is dominated by the
      // announce/consolidation batching windows on top of the PHB's 43 ms
      // sync: a healthy run's sampled p50 sits near 500 ms and the p99 near
      // 800 ms (log buckets: 631 / 794 / 1000). The 1500 ms absolute
      // ceiling is ~2 buckets of headroom — it catches a batching or
      // delivery stall without flapping on bucket quantization. Zero
      // samples means the latency plumbing itself broke (tracer sink
      // unhooked, sampling off).
      const double e2e_count = best.latency_metric("end_to_end.count");
      const double e2e_p99 = best.latency_metric("end_to_end.p99_ms");
      if (e2e_count == 0) {
        std::printf("  METRIC REGRESSION: %s recorded no sampled end-to-end "
                    "latencies (latency pipeline broken?)\n",
                    name.c_str());
        regression = true;
      } else if (e2e_p99 > 1500.0) {
        std::printf("  LATENCY REGRESSION: %s end-to-end p99 %.1f ms over the "
                    "1500 ms steady-state ceiling (n=%.0f)\n",
                    name.c_str(), e2e_p99, e2e_count);
        regression = true;
      } else {
        std::printf("  latency ok: e2e p99 %.1f ms over %.0f sampled ticks "
                    "(ceiling 1500 ms)\n",
                    e2e_p99, e2e_count);
      }
    }

    if (!check_path.empty()) {
      // Prefer an explicitly tagged post_pr baseline; fall back to the
      // recorded "run" variant --out writes, so a plain re-recorded file
      // still arms the check instead of silently skipping every workload.
      auto committed = read_bench_metric(check_path, name, "post_pr", gated);
      if (!committed) committed = read_bench_metric(check_path, name, "run", gated);
      if (!committed) {
        std::printf("  (no reference for %s in %s — skipping check)\n",
                    name.c_str(), check_path.c_str());
      } else {
        const double floor = *committed * (1.0 - tolerance);
        const double got = reports.back().find(gated)->value;
        if (got < floor) {
          std::printf("  REGRESSION: %s %s %.0f < floor %.0f (committed %.0f, "
                      "tolerance %.0f%%)\n",
                      name.c_str(), gated, got, floor, *committed, 100 * tolerance);
          regression = true;
        } else {
          std::printf("  check ok: %s %.0f vs committed %.0f (floor %.0f)\n", gated,
                      got, *committed, floor);
        }
      }
    }
  }

  // Codec-tax ceiling: the byte path must stay within 2.0x the struct
  // path's wall-clock and within 10 allocations per event. Absolute bounds
  // (unlike the --check floor they need no committed reference), so the
  // pooled-arena/zero-copy/sampled-verify encode path cannot silently rot
  // back toward the old 5x tax.
  {
    const auto metric = [&](const std::string& name, const char* key) -> double {
      for (const auto& r : reports) {
        if (r.name == name) {
          if (const auto* m = r.find(key)) return m->value;
        }
      }
      return 0;
    };
    const double struct_rate = metric("fig4_steady_4shb", "sim_events_per_wall_sec");
    const double codec_rate =
        metric("fig4_steady_4shb_codec", "sim_events_per_wall_sec");
    const double codec_allocs = metric("fig4_steady_4shb_codec", "allocs_per_event");
    if (struct_rate > 0 && codec_rate > 0) {
      const double tax = struct_rate / codec_rate;
      if (tax > 2.0) {
        std::printf("  CODEC TAX REGRESSION: codec runs %.2fx slower than struct "
                    "(ceiling 2.0x): %.0f vs %.0f ev/wall-s\n",
                    tax, codec_rate, struct_rate);
        regression = true;
      } else {
        std::printf("  codec tax ok: %.2fx struct wall-clock (ceiling 2.0x)\n", tax);
      }
    }
    if (codec_allocs > 10.0) {
      std::printf("  CODEC TAX REGRESSION: %.2f allocs/event in codec mode "
                  "(ceiling 10)\n",
                  codec_allocs);
      regression = true;
    }
  }

  if (!out_path.empty()) {
    write_bench_json(out_path, reports);
    std::printf("\nwrote %s\n", out_path.c_str());
  }
  return regression ? 1 : 0;
}
