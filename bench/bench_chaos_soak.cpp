// Chaos soak — many seeded fault schedules back to back over a churning
// workload, with the always-on invariant monitor armed the whole time.
//
//   gryphon_bench chaos_soak [num_seeds] [first_seed] [horizon_s] [--inject-violation]
//       [--wire=codec|struct] [--frame-faults] [--wire-verify=always] [--trace-out=FILE]
//
// Each seed plans a fresh randomized fault sequence (partitions, flaps,
// degradations, disk stalls, torn syncs, crashes, crash-during-recovery,
// double faults) over the 5-broker chaos-soak deployment
// (harness::chaos_soak_config) with 8 churning subscribers, runs
// it to quiescence, and verifies exactly-once + zero residual catchup
// streams. --wire=codec runs every link through the byte codec transport;
// --frame-faults additionally arms seeded frame-corruption windows (byte
// flips / truncations the receiving transport must reject and survive);
// --wire-verify=always forces the canonical re-encode check on every decode
// instead of the sampled 1-in-64 default (the ASan soak leg uses this). On a
// violation the decoded fault timeline, the seed, and the flight-recorder
// trace dump are printed, and the process exits non-zero — rerunning with
// that first_seed replays the identical schedule.
//
// --trace-out=FILE exports the LAST seed's run as a Chrome trace-event JSON
// (milestone instants + per-tick spans, chaos fault windows on a dedicated
// "faults" track) loadable in Perfetto / chrome://tracing.
//
// --inject-violation deliberately feeds the oracle a fabricated
// exactly-once violation mid-run (a gap notification covering an
// already-delivered event) with the trace sample rate forced to 1. This is
// the flight recorder's negative test: the run MUST die with a merged trace
// dump whose milestone checklist names the offending (pubend, tick).
#include "bench/bench_common.hpp"

#include <algorithm>
#include <exception>

#include "harness/chaos.hpp"

int gryphon::bench::run_chaos_soak(Args& args) {
  const bool inject_violation = args.flag("--inject-violation");
  const std::string wire = args.value("--wire=").value_or("struct");
  if (wire != "codec" && wire != "struct") {
    args.fail("bad --wire '" + wire + "': expected codec or struct");
  }
  const bool codec_wire = wire == "codec";
  const bool frame_faults = args.flag("--frame-faults");
  const bool verify_always = args.flag("--wire-verify=always");
  const std::string trace_out = args.value("--trace-out=").value_or("");
  const int num_seeds = args.positional<int>("seed count", 10, 1);
  const auto first_seed = args.positional<std::uint64_t>("first seed", 1);
  const double horizon_s = args.positional<double>("horizon seconds", 10.0, 0.001);
  args.finish();

  print_header("Chaos soak: " + std::to_string(num_seeds) + " seeded schedules, " +
               fmt(horizon_s, 0) + "s fault horizon each, wire=" +
               (codec_wire ? "codec" : "struct") +
               (frame_faults ? " + frame faults" : ""));
  print_row({"seed", "faults", "published", "delivered", "catchup", "rejects",
             "sim_s", "verdict"});

  int failures = 0;
  for (int i = 0; i < num_seeds; ++i) {
    const std::uint64_t seed = first_seed + static_cast<std::uint64_t>(i);

    harness::SystemConfig sc = harness::chaos_soak_config();
    if (codec_wire) sc.wire = harness::WireMode::kCodec;
    if (verify_always) sc.wire_verify_every = 1;
    // Export the final seed only: one trace file, bounded memory.
    const bool export_this_seed = !trace_out.empty() && i == num_seeds - 1;
    if (export_this_seed) sc.trace_export = true;
    if (inject_violation) {
      // Full-resolution tracing so the injected tick is guaranteed to be in
      // the sample, with a deeper ring so its milestones are still there.
      sc.trace_sample_every = 1;
      sc.trace_ring_capacity = 1 << 16;
    }
    harness::System system(sc);
    const auto subs = harness::start_chaos_soak_load(system);

    // Subscriber churn rides along under the faults; stop disconnecting
    // once the last fault is repaired so quiescence is reachable.
    harness::ChurnDriver churn(system, subs, sec(6), sec(2));

    harness::ChaosConfig config;
    config.seed = seed;
    config.horizon = static_cast<SimDuration>(horizon_s * 1e6);
    if (frame_faults) config.weights.frame_corrupt = 3;
    harness::ChaosSchedule chaos(system, config);
    system.simulator().schedule_at(chaos.repaired_at(), [&churn] { churn.stop(); });

    if (inject_violation) {
      // Fabricate an exactly-once violation once the faults are repaired:
      // a gap notification covering ticks the subscriber already consumed.
      // The oracle records the offending (pubend, tick) and throws; the
      // chaos dump must then include a focused flight-recorder checklist.
      core::DurableSubscriber* victim = subs.front();
      system.simulator().schedule_at(chaos.repaired_at(), [&system, victim] {
        const PubendId p = system.pubends()[0];
        const Tick ct = victim->checkpoint().of(p);
        const TickRange range{std::max<Tick>(1, ct - 50), std::max<Tick>(1, ct)};
        core::SubscriberObserver& observer = system.oracle();
        observer.on_gap(victim->id(), p, range, system.simulator().now());
      });
    }

    try {
      chaos.run();
      if (export_this_seed) {
        if (!system.write_trace_json(trace_out)) {
          std::printf("ERROR: cannot write trace to %s\n", trace_out.c_str());
          ++failures;
        } else {
          const auto* exporter = system.trace_exporter();
          std::printf("trace: %zu records, %zu fault windows -> %s\n",
                      exporter->record_count(), exporter->fault_count(),
                      trace_out.c_str());
        }
      }
      print_row({std::to_string(seed), std::to_string(chaos.timeline().size()),
                 std::to_string(system.oracle().published_count()),
                 std::to_string(system.oracle().delivered_count()),
                 std::to_string(system.oracle().catchup_delivered_count()),
                 std::to_string(system.network().decode_rejects()),
                 fmt(to_seconds(system.simulator().now()), 1), "ok"});
    } catch (const std::exception& e) {
      ++failures;
      print_row({std::to_string(seed), std::to_string(chaos.timeline().size()),
                 std::to_string(system.oracle().published_count()),
                 std::to_string(system.oracle().delivered_count()),
                 std::to_string(system.oracle().catchup_delivered_count()),
                 std::to_string(system.network().decode_rejects()),
                 fmt(to_seconds(system.simulator().now()), 1), "VIOLATION"});
      std::printf("\n%s\n", e.what());
    }
  }

  std::printf("\n%d/%d schedules quiescent with exactly-once intact\n",
              num_seeds - failures, num_seeds);
  return failures == 0 ? 0 : 1;
}
