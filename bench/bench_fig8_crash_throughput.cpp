// Figure 8 — per-client-machine message rates and broker CPU idle across an
// SHB crash and recovery (paper §5.3). Same experiment as Figure 7:
//   * 40 subscribers on 5 client machines (1600 ev/s per machine normally),
//   * SHB down 25s, subscribers reconnect after constream recovery.
// Paper shapes: per-machine rate 1600 before the crash, bursty and above
// normal during catchup; SHB CPU idle drops hard during catchup while the
// PHB barely notices (nack consolidation). The SHB's aggregate rate during
// mass catchup is ~10K ev/s vs 20K through the constream — the cost of 40
// separate catchup streams (the consolidation argument, §5 result 3).
#include "bench/bench_common.hpp"

int gryphon::bench::run_fig8_crash_throughput(Args& args) {
  args.finish();

  auto config = harness::paper_config();
  config.num_shbs = 1;
  harness::System system(config);
  harness::start_paper_publishers(system, harness::PaperWorkloadConfig{});
  const auto subs = harness::add_group_subscribers(system, 0, 40, 4, 1, /*machines=*/5);

  std::size_t catchup_completed = 0;
  system.on_shb_ready(0, [&](core::SubscriberHostingBroker& shb) {
    shb.on_catchup_complete = [&](SubscriberId, SimTime, SimTime) {
      ++catchup_completed;
    };
  });

  const auto [crash_at, recovered_at, reconnect_at] = harness::run_shb_crash(system, subs);

  SimTime catchup_done_at = 0;
  while (catchup_done_at == 0) {
    system.run_for(sec(1));
    if (catchup_completed >= subs.size()) catchup_done_at = system.simulator().now();
    if (system.simulator().now() > reconnect_at + sec(400)) break;
  }
  system.run_for(sec(20));

  print_header(
      "Figure 8: per-machine delivery rate and CPU idle across SHB crash\n"
      "(40 subscribers on 5 machines; paper: 1600 ev/s per machine, bursty\n"
      "above-normal during catchup; SHB idle drops, PHB barely affected)");
  std::printf("crash t=%.0fs  constream-recovered t=%.0fs  reconnect t=%.0fs  "
              "all-caught-up t=%.0fs\n",
              to_seconds(crash_at), to_seconds(recovered_at),
              to_seconds(reconnect_at), to_seconds(catchup_done_at));

  // Per-machine rates, 1s windows, printed every 2s.
  print_row({"t(s)", "m0", "m1", "m2", "m3", "m4", "phb idle%", "shb idle%"}, 11);
  std::vector<std::vector<RateMeter::Window>> machine_windows;
  for (int m = 0; m < 5; ++m) machine_windows.push_back(system.oracle().machine_rate(m).windows());
  const auto phb_idle = [&](SimTime t) {
    return 100 * system.phb_cpu().idle_fraction(t, t + sec(1));
  };
  const auto shb_idle = [&](SimTime t) {
    return 100 * system.shb_cpu(0).idle_fraction(t, t + sec(1));
  };
  const std::size_t n_windows = machine_windows[0].size();
  for (std::size_t i = 10; i < n_windows; i += 2) {
    std::vector<std::string> cells{fmt(to_seconds(machine_windows[0][i].start), 0)};
    for (int m = 0; m < 5; ++m) {
      cells.push_back(fmt(machine_windows[static_cast<std::size_t>(m)][i].per_second, 0));
    }
    cells.push_back(fmt(phb_idle(machine_windows[0][i].start), 0));
    cells.push_back(fmt(shb_idle(machine_windows[0][i].start), 0));
    print_row(cells, 11);
  }

  // Shape summary: aggregate rates and CPU in the three phases.
  auto aggregate_between = [&](SimTime from, SimTime to) {
    double total = 0;
    for (int m = 0; m < 5; ++m) {
      for (const auto& w : machine_windows[static_cast<std::size_t>(m)]) {
        if (w.start >= from && w.start + sec(1) <= to) total += w.per_second;
      }
    }
    return total / to_seconds(to - from);
  };
  const double normal_rate = aggregate_between(sec(10), crash_at - sec(2));
  const double catchup_rate = aggregate_between(reconnect_at + sec(5),
                                                std::min(catchup_done_at, reconnect_at + sec(60)));
  std::printf(
      "\naggregate SHB delivery rate: steady %.0f ev/s; during mass catchup "
      "%.0f ev/s\n(paper result 3: ~10K ev/s with 40 separate catchup streams "
      "vs 20K via the constream)\n",
      normal_rate, catchup_rate);
  std::printf("PHB idle: steady %.0f%%, during catchup %.0f%% (paper: barely "
              "affected, thanks to nack consolidation)\n",
              100 * system.phb_cpu().idle_fraction(sec(10), crash_at),
              100 * system.phb_cpu().idle_fraction(reconnect_at,
                                                   std::min(catchup_done_at,
                                                            reconnect_at + sec(60))));
  std::printf("SHB idle: steady %.0f%%, during catchup %.0f%% (paper: drops "
              "significantly)\n",
              100 * system.shb_cpu(0).idle_fraction(sec(10), crash_at),
              100 * system.shb_cpu(0).idle_fraction(reconnect_at,
                                                    std::min(catchup_done_at,
                                                             reconnect_at + sec(60))));
  std::printf("PFS reads reaching lastTimestamp: %llu of %llu (paper: 87%%)\n",
              static_cast<unsigned long long>(system.shb().pfs().reads_reached_last()),
              static_cast<unsigned long long>(system.shb().pfs().reads_issued()));

  system.verify_exactly_once();
  std::printf("exactly-once contract verified for all 40 subscribers\n");
  return 0;
}
