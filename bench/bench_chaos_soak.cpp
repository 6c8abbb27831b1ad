// Chaos soak — many seeded fault schedules back to back over a churning
// workload, with the always-on invariant monitor armed the whole time.
//
//   bench_chaos_soak [num_seeds] [first_seed] [horizon_s] [--inject-violation]
//                    [--wire=codec] [--frame-faults] [--wire-verify=always]
//                    [--trace-out=FILE]
//
// Each seed plans a fresh randomized fault sequence (partitions, flaps,
// degradations, disk stalls, torn syncs, crashes, crash-during-recovery,
// double faults) over a 5-broker topology with 8 churning subscribers, runs
// it to quiescence, and verifies exactly-once + zero residual catchup
// streams. --wire=codec runs every link through the byte codec transport;
// --frame-faults additionally arms seeded frame-corruption windows (byte
// flips / truncations the receiving transport must reject and survive);
// --wire-verify=always forces the canonical re-encode check on every decode
// instead of the sampled 1-in-64 default (the ASan soak leg uses this). On a violation the decoded fault timeline, the seed, and the
// flight-recorder trace dump are printed, and the process exits non-zero —
// rerunning with that first_seed replays the identical schedule.
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
#include <cstdlib>
#include <exception>

#include "harness/chaos.hpp"

int main(int argc, char** argv) {
  using namespace gryphon;
  using namespace gryphon::bench;

  bool inject_violation = false;
  bool codec_wire = false;
  bool frame_faults = false;
  bool verify_always = false;
  std::string trace_out;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--inject-violation") inject_violation = true;
    else if (arg == "--wire=codec") codec_wire = true;
    else if (arg == "--wire=struct") codec_wire = false;
    else if (arg == "--frame-faults") frame_faults = true;
    else if (arg == "--wire-verify=always") verify_always = true;
    else if (arg.rfind("--trace-out=", 0) == 0) trace_out = arg.substr(12);
    else pos.push_back(arg);
  }
  const int num_seeds = !pos.empty() ? parse_arg<int>("seed count", pos[0], 1) : 10;
  const std::uint64_t first_seed =
      pos.size() > 1 ? parse_arg<std::uint64_t>("first seed", pos[1]) : 1;
  const double horizon_s =
      pos.size() > 2 ? parse_arg<double>("horizon seconds", pos[2], 0.001) : 10.0;

  print_header("Chaos soak: " + std::to_string(num_seeds) + " seeded schedules, " +
               fmt(horizon_s, 0) + "s fault horizon each, wire=" +
               (codec_wire ? "codec" : "struct") +
               (frame_faults ? " + frame faults" : ""));
  print_row({"seed", "faults", "published", "delivered", "catchup", "rejects",
             "sim_s", "verdict"});

  int failures = 0;
  for (int i = 0; i < num_seeds; ++i) {
    const std::uint64_t seed = first_seed + static_cast<std::uint64_t>(i);

    harness::SystemConfig sc;
    sc.num_pubends = 2;
    sc.num_shbs = 2;
    sc.num_intermediates = 1;
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
    harness::PaperWorkloadConfig wl;
    wl.input_rate_eps = 300;
    harness::start_paper_publishers(system, wl);
    auto subs = harness::add_group_subscribers(system, 0, 4, 4, 1);
    auto more = harness::add_group_subscribers(system, 1, 4, 4, 100);
    subs.insert(subs.end(), more.begin(), more.end());
    system.run_for(sec(3));

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
