// Ablation A2 — early-release policy sweep (paper §3's maxRetain policy).
// A subscriber disconnects for 30s while the system publishes on. Sweeping
// maxRetain trades PHB storage pinned by the laggard against explicit gap
// notifications it receives on reconnection. maxRetain = infinite (no early
// release) pins storage indefinitely; small maxRetain bounds storage but
// gaps the laggard.
#include "bench/bench_common.hpp"

namespace gryphon::bench {
namespace {

struct Result {
  std::size_t peak_retained_events;
  std::uint64_t gaps;
  std::uint64_t events_after_reconnect;
};

Result run(Tick max_retain_ticks) {
  auto config = harness::paper_config();
  config.num_shbs = 1;
  config.num_pubends = 4;
  if (max_retain_ticks > 0) {
    config.policy = std::make_shared<core::MaxRetainPolicy>(max_retain_ticks);
  }
  // Small SHB cache so the laggard's recovery truly depends on the pubend's
  // retention, not on a fat istream cache.
  config.broker.costs.cache_span_ticks = 2000;
  harness::System system(config);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 400;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 8, 4, 1);
  system.run_for(sec(5));

  auto* laggard = subs[0];
  const auto before = laggard->events_received();
  laggard->disconnect();

  std::size_t peak_retained = 0;
  for (int i = 0; i < 60; ++i) {
    system.run_for(msec(500));
    std::size_t retained = 0;
    for (PubendId p : system.pubends()) {
      retained += system.phb().pubend(p).retained_events();
    }
    peak_retained = std::max(peak_retained, retained);
  }

  laggard->connect();
  system.run_for(sec(40));
  system.verify_exactly_once();
  return {peak_retained, laggard->gaps_received(),
          laggard->events_received() - before};
}

}  // namespace
}  // namespace gryphon::bench

int gryphon::bench::run_ablation_early_release(Args& args) {
  args.finish();

  print_header(
      "Ablation: early-release maxRetain sweep\n"
      "(one subscriber disconnected 30s @ 400 ev/s input; storage pinned at\n"
      "the PHB vs gap notifications on reconnect; 0 = no early release)");

  print_row({"maxRetain (s)", "peak retained evts", "gaps to laggard",
             "events recovered"},
            22);
  for (const Tick retain_s : {Tick{0}, Tick{60}, Tick{20}, Tick{10}, Tick{5}}) {
    const auto r = run(retain_s * 1000);
    print_row({retain_s == 0 ? "infinite" : std::to_string(retain_s),
               std::to_string(r.peak_retained_events), std::to_string(r.gaps),
               std::to_string(r.events_after_reconnect)},
              22);
  }
  std::printf(
      "\nshape: storage pinned grows with maxRetain; gaps appear once\n"
      "maxRetain < disconnection time; the constream path never sees gaps.\n");
  return 0;
}
