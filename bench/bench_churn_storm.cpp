// Churn-storm resilience bench: reconnect herds under admission control,
// seeded backoff, and storage-pressure degradation.
//
// Each seed runs the reconnect-herd deployment (harness::herd_config): one
// SHB with a large durable-subscriber population (default 5000), warmed up,
// then StormDriver waves that drop the entire herd at one instant and
// reconnect it simultaneously a few seconds later — thousands of catchup
// streams arriving at the SHB in the same millisecond. The SHB's admission
// control (catchup_admission_limit) must keep the concurrently active stream
// count bounded while the FIFO queue drains; the PHB runs an
// AdaptiveRetainPolicy whose watermarks the storm's unacked backlog crosses,
// so retention shrinks toward Td and stragglers take oracle-legal gap
// messages instead of pinning the log. The last seed composes the storm with
// an SHB-uplink partition spanning the reconnect instant, so the herd
// arrives while the upstream is dark and every retransmission rides the
// seeded exponential backoff.
//
//   gryphon_bench churn_storm [num_seeds] [first_seed] [--smoke] [--subs N] [--out FILE]
//
// Defaults: 10 seeds x 5000 subscribers x 2 waves. The run fails (exit 1)
// if any seed violates the quiescence oracle, if the sampled active-stream
// peak ever exceeds the admission limit, if the queue never engaged (the
// herd was not actually a herd), or if the PHB's live bytes blow past the
// degradation bound. Seed `first_seed` runs twice and the two results must
// be bit-identical. --smoke shrinks to 2 seeds x 400 subscribers x 1 wave:
// the sanitizer entry point for tools/run_chaos.sh. --out writes a
// bench-JSON snapshot (herd drain time, peak queue depth, peak live bytes,
// gaps sent).
#include "bench/bench_common.hpp"

#include <algorithm>
#include <exception>

#include "core/release_policy.hpp"

namespace gryphon::bench {
namespace {

constexpr SimDuration kWaveInterval = sec(8);
constexpr SimDuration kDownTime = sec(4);
// Sized so the storm's down window engages the floor: steady-state live
// bytes sit around 100-250 KiB (84 KiB/s input, ~2 s Tr lag, 64 KiB
// segments) and a 4 s ack stall adds ~340 KiB, crossing the high watermark.
constexpr std::uint64_t kHighWatermark = 384u << 10;
constexpr std::uint64_t kLowWatermark = 192u << 10;

// Committed ceiling on the catchup admission-queue wait p99 (queued ->
// admitted, milliseconds). The herd pushes 5000 streams through a 256-wide
// gate; measured worst-seed p99 is ~5.0 s (the partition-composed seed —
// plain seeds sit near 1.3 s), so 15 s is ~3x headroom. A p99 past it
// means admission throughput regressed: streams sat in the FIFO far longer
// than the storm ever required.
constexpr double kWaitP99CeilingMs = 15'000.0;

struct StormResult {
  std::uint64_t seed = 0;
  int subscribers = 0;
  std::uint64_t disconnects = 0;
  std::uint64_t reconnects = 0;
  SimDuration drain_time = 0;  // last reconnect instant -> zero catchup streams
  std::size_t peak_active = 0;
  std::size_t peak_queue_depth = 0;
  std::uint64_t peak_live_bytes = 0;
  std::uint64_t gaps_sent = 0;
  std::uint64_t admitted = 0;
  std::uint64_t queued = 0;
  std::uint64_t pressure_released_ticks = 0;
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;
  /// Catchup admission-queue wait (queued -> admitted), from the latency
  /// recorder at trace_sample_every=1: every queued stream is measured.
  std::uint64_t wait_samples = 0;
  double wait_p50_ms = 0.0;
  double wait_p99_ms = 0.0;
  bool violated = false;

  bool operator==(const StormResult&) const = default;
};

StormResult run_seed(std::uint64_t seed, int subscribers, int waves,
                     bool composed_partition, std::size_t admission_limit) {
  harness::SystemConfig sc = harness::herd_config(admission_limit);
  // Full trace coverage: the queue-wait histogram keys off kCatchupQueued /
  // kCatchupAdmitted records, which are stamped with each stream's resume
  // tick — at the default 1-in-64 sampling most of the herd would be
  // invisible to the wait histogram.
  sc.trace_sample_every = 1;
  core::AdaptiveRetainPolicy::Options ro;
  ro.max_retain_ticks = 30'000;  // 30 s relaxed — never binds in this run
  ro.min_retain_ticks = 1'000;   // 1 s floor < the 4 s down window => gaps
  ro.high_watermark_bytes = kHighWatermark;
  ro.low_watermark_bytes = kLowWatermark;
  sc.policy = std::make_shared<core::AdaptiveRetainPolicy>(ro);

  harness::System system(sc);
  auto subs = harness::start_herd_load(system, subscribers);

  const SimTime storm_armed = system.simulator().now();
  harness::StormDriver::Options so;
  so.seed = seed;
  so.waves = waves;
  so.wave_interval = kWaveInterval;
  so.down_time = kDownTime;
  harness::StormDriver storm(system, subs, so);

  if (composed_partition) {
    // Sever the SHB's uplink across the first wave's reconnect instant: the
    // herd arrives while the upstream is dark, catchup drains from the local
    // log, and istream curiosity rides the exponential backoff until heal.
    const SimDuration reconnect_off = kWaveInterval + kDownTime;
    const sim::EndpointId up = system.shb_uplink_endpoint(0);
    const sim::EndpointId down = system.shb_endpoint(0);
    system.simulator().schedule_after(reconnect_off - sec(1), [&system, up, down] {
      system.network().partition(up, down);
    });
    system.simulator().schedule_after(reconnect_off + sec(2), [&system, up, down] {
      system.network().heal(up, down);
    });
  }

  StormResult r;
  r.seed = seed;
  r.subscribers = subscribers;
  const SimTime last_reconnect =
      storm_armed + kWaveInterval * static_cast<SimDuration>(waves) + kDownTime;
  const SimTime deadline = last_reconnect + sec(30);
  bool drained = false;
  bool herd_seen = false;  // catchup streams observed after the last reconnect
  // Admitted-counter snapshot refreshed while still ahead of the reconnect;
  // any growth past it after the reconnect is the last wave's herd.
  auto admitted_at_reconnect =
      system.shb_node(0).metrics.counter("shb.catchup_admitted")->get();
  try {
    while (system.simulator().now() < deadline) {
      system.run_for(msec(100));
      auto& shb = system.shb(0);
      r.peak_active = std::max(r.peak_active, shb.catchup_active_count());
      r.peak_queue_depth = std::max(r.peak_queue_depth, shb.catchup_queue_depth());
      r.peak_live_bytes = std::max(
          r.peak_live_bytes, system.phb_node().log_volume.wal().live_bytes());
      if (drained) continue;
      if (system.simulator().now() < last_reconnect) {
        admitted_at_reconnect =
            system.shb_node(0).metrics.counter("shb.catchup_admitted")->get();
        continue;
      }
      // Arm on actually seeing the herd's streams: a sample landing exactly
      // on the reconnect instant sees zero streams (the handshakes are still
      // in flight) and must not declare a spurious zero-length drain. A small
      // herd (smoke scale) can also admit and drain entirely *between* two
      // samples; the monotone admitted counter still proves it passed through
      // the gate, so it arms the detector too.
      if (shb.catchup_stream_count() > 0 ||
          system.shb_node(0).metrics.counter("shb.catchup_admitted")->get() >
              admitted_at_reconnect) {
        herd_seen = true;
      }
      if (herd_seen && shb.catchup_stream_count() == 0) {
        r.drain_time = system.simulator().now() - last_reconnect;
        drained = true;
        break;
      }
    }
    system.run_for(sec(5));
    system.verify_quiescent();
    if (!drained) r.drain_time = deadline - last_reconnect;  // hit the cap
  } catch (const std::exception& e) {
    r.violated = true;
    std::fprintf(stderr, "\nseed %llu violated the oracle: %s\n",
                 static_cast<unsigned long long>(seed), e.what());
    system.dump_flight_recorder(stderr);
  }

  r.disconnects = storm.disconnects();
  r.reconnects = storm.reconnects();
  for (core::NodeResources* node : system.nodes()) {
    node->metrics.refresh_probes();
    r.gaps_sent += node->metrics.counter("shb.gaps_sent")->get();
    r.admitted += node->metrics.counter("shb.catchup_admitted")->get();
    r.queued += node->metrics.counter("shb.catchup_queued")->get();
    r.pressure_released_ticks +=
        node->metrics.counter("pubend.pressure_released_ticks")->get();
  }
  r.published = system.oracle().published_count();
  r.delivered = system.oracle().delivered_count();
  const Histogram& wait = system.latency().stage(LatencyStage::kCatchupWait);
  r.wait_samples = wait.count();
  r.wait_p50_ms = wait.percentile(50.0);
  r.wait_p99_ms = wait.percentile(99.0);
  return r;
}

}  // namespace
}  // namespace gryphon::bench

int gryphon::bench::run_churn_storm(Args& args) {
  const std::string out_path = args.value("--out").value_or("");
  const bool smoke = args.flag("--smoke");
  const int subscribers = args.number<int>("--subs", smoke ? 400 : 5000, 1);
  const int num_seeds = args.positional<int>("seed count", smoke ? 2 : 10, 1);
  const auto first_seed = args.positional<std::uint64_t>("first seed", 1);
  args.finish();
  const int waves = smoke ? 1 : 2;
  // A full 5000-stream herd through a 64-wide gate needs ~0.5 s per stream
  // of paced catchup — minutes of drain. 256 keeps the queue deep (4700+
  // entries) while the drain fits the deadline.
  const std::size_t admission_limit = smoke ? 64 : 256;

  print_header("Churn storm: " + std::to_string(num_seeds) + " seeds x " +
               std::to_string(subscribers) + " subscribers x " +
               std::to_string(waves) +
               " waves (herd through a bounded admission gate; last seed composes an uplink "
               "partition across the reconnect)");
  print_row({"seed", "reconnects", "drain(s)", "peak_act", "peak_queue",
             "peak_MB", "gaps", "wait_p99(s)", "verdict"}, 12);

  bool failed = false;
  StormResult first_seed_result;
  std::uint64_t total_gaps = 0;
  std::uint64_t total_queued = 0;
  SimDuration max_drain = 0;
  std::size_t peak_active = 0;
  std::size_t peak_queue = 0;
  std::uint64_t peak_live = 0;
  std::uint64_t pressure_ticks = 0;
  std::uint64_t total_wait_samples = 0;
  double max_wait_p50 = 0;
  double max_wait_p99 = 0;
  for (int i = 0; i < num_seeds; ++i) {
    const std::uint64_t seed = first_seed + static_cast<std::uint64_t>(i);
    const bool composed = i == num_seeds - 1 && num_seeds > 1;
    const StormResult r =
        run_seed(seed, subscribers, waves, composed, admission_limit);
    if (i == 0) first_seed_result = r;
    total_gaps += r.gaps_sent;
    total_queued += r.queued;
    max_drain = std::max(max_drain, r.drain_time);
    peak_active = std::max(peak_active, r.peak_active);
    peak_queue = std::max(peak_queue, r.peak_queue_depth);
    peak_live = std::max(peak_live, r.peak_live_bytes);
    pressure_ticks += r.pressure_released_ticks;
    total_wait_samples += r.wait_samples;
    max_wait_p50 = std::max(max_wait_p50, r.wait_p50_ms);
    max_wait_p99 = std::max(max_wait_p99, r.wait_p99_ms);

    std::string verdict = r.violated ? "VIOLATION" : "ok";
    if (r.peak_active > admission_limit) verdict = "ADMISSION BREACH";
    if (r.reconnects <
        static_cast<std::uint64_t>(subscribers) * static_cast<std::uint64_t>(waves)) {
      verdict = "HERD INCOMPLETE";
    }
    if (verdict != "ok") failed = true;
    print_row({std::to_string(seed) + (composed ? "*" : ""),
               std::to_string(r.reconnects), fmt(to_seconds(r.drain_time), 2),
               std::to_string(r.peak_active), std::to_string(r.peak_queue_depth),
               fmt(static_cast<double>(r.peak_live_bytes) / (1 << 20), 2),
               std::to_string(r.gaps_sent), fmt(r.wait_p99_ms / 1000.0, 2),
               verdict}, 12);
  }

  // Degradation bound: release chases Td with a 1 s floor, so live bytes are
  // bounded by the high watermark plus the storm's unreleasable span — Td
  // stalls while the herd's handshake burst saturates the SHB (plus the
  // composed 3 s partition), at ~84 KiB/s of input. Anything past this bound
  // means the log is tracking published bytes again, i.e. the policy stopped
  // degrading. (NoEarlyRelease would pin ~4 MiB+ over the same run.)
  const std::uint64_t live_bound = kHighWatermark + (2u << 20);
  if (peak_live > live_bound) {
    std::printf("DEGRADATION GAP: peak live bytes %llu exceed bound %llu — the "
                "adaptive retain policy stopped holding the log down\n",
                static_cast<unsigned long long>(peak_live),
                static_cast<unsigned long long>(live_bound));
    failed = true;
  }
  if (!smoke && total_queued == 0) {
    std::printf("HERD GAP: no catchup stream was ever queued — the storm no "
                "longer outnumbers the admission limit\n");
    failed = true;
  }

  // Queue-wait tail guard: every queued stream's wait is measured (full
  // trace sampling), so the max-over-seeds p99 is the storm's worst honest
  // tail. In smoke mode the herd is small enough that waits are trivially
  // short; the ceiling still applies. A zero sample count alongside queued
  // streams means the wait histogram plumbing broke.
  if (total_queued > 0 && total_wait_samples == 0) {
    std::printf("WAIT HISTOGRAM GAP: %llu streams were queued but no "
                "queued->admitted wait was recorded\n",
                static_cast<unsigned long long>(total_queued));
    failed = true;
  }
  if (max_wait_p99 > kWaitP99CeilingMs) {
    std::printf("WAIT REGRESSION: catchup admission-queue wait p99 %.0f ms "
                "exceeds the committed %.0f ms ceiling\n",
                max_wait_p99, kWaitP99CeilingMs);
    failed = true;
  }

  // Same seed, same storm: the first seed replayed must be bit-identical.
  // (The composed-partition variant is always the LAST seed, so seed 0 ran
  // plain unless it was the only seed — in which case it ran plain too.)
  const StormResult replay = run_seed(first_seed, subscribers, waves,
                                      /*composed_partition=*/false,
                                      admission_limit);
  if (!(replay == first_seed_result)) {
    std::printf("DETERMINISM GAP: seed %llu replay diverged from its first run\n",
                static_cast<unsigned long long>(first_seed));
    failed = true;
  }

  std::printf("\nmax herd drain %.2fs, peak active %zu (limit %zu), peak queue "
              "%zu, peak live %.2f MB, %llu gaps, %llu pressure-released ticks\n",
              to_seconds(max_drain), peak_active, admission_limit, peak_queue,
              static_cast<unsigned long long>(peak_live) / double(1 << 20),
              static_cast<unsigned long long>(total_gaps),
              static_cast<unsigned long long>(pressure_ticks));
  std::printf("catchup queue wait: %llu samples, worst-seed p50 %.0f ms, "
              "p99 %.0f ms (ceiling %.0f ms)\n",
              static_cast<unsigned long long>(total_wait_samples), max_wait_p50,
              max_wait_p99, kWaitP99CeilingMs);

  if (!out_path.empty()) {
    WorkloadReport report;
    report.name = "churn_storm";
    report.variant = "run";
    report.metrics = {
        {"seeds", static_cast<double>(num_seeds)},
        {"subscribers", static_cast<double>(subscribers)},
        {"waves", static_cast<double>(waves)},
        {"admission_limit", static_cast<double>(admission_limit)},
        {"max_herd_drain_s", to_seconds(max_drain)},
        {"peak_catchup_active", static_cast<double>(peak_active)},
        {"peak_catchup_queue_depth", static_cast<double>(peak_queue)},
        {"peak_pubend_live_bytes", static_cast<double>(peak_live)},
    };
    report.registry = {
        {"shb.gaps_sent", static_cast<double>(total_gaps)},
        {"shb.catchup_queued", static_cast<double>(total_queued)},
        {"pubend.pressure_released_ticks", static_cast<double>(pressure_ticks)},
    };
    // Worst-seed percentiles: conservative for the committed ceiling.
    report.latency = {
        {"catchup_wait.count", static_cast<double>(total_wait_samples)},
        {"catchup_wait.p50_ms", max_wait_p50},
        {"catchup_wait.p99_ms", max_wait_p99},
        {"catchup_wait.p99_ceiling_ms", kWaitP99CeilingMs},
    };
    write_bench_json(out_path, {report});
    std::printf("wrote %s\n", out_path.c_str());
  }
  return failed ? 1 : 0;
}
