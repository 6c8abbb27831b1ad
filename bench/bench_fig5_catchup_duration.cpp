// Figure 5 — Catchup durations under periodic disconnection (paper §5.1.1).
// 2-broker network (1 PHB + 1 SHB), 88 subscribers at 200 ev/s each, every
// subscriber independently disconnects for 5s every 300s. Paper: catchup
// durations usually between 5 and 6 seconds.
#include "bench/bench_common.hpp"

int gryphon::bench::run_fig5_catchup_duration(Args& args) {
  args.finish();

  auto config = harness::paper_config();
  config.num_shbs = 1;
  harness::System system(config);
  harness::start_paper_publishers(system, harness::PaperWorkloadConfig{});
  auto subs = harness::add_group_subscribers(system, 0, 88, 4, 1, /*machines=*/5);

  struct Completion {
    SimTime at;
    SimDuration duration;
  };
  std::vector<Completion> completions;
  system.on_shb_ready(0, [&](core::SubscriberHostingBroker& shb) {
    shb.on_catchup_complete = [&](SubscriberId, SimTime from, SimTime to) {
      completions.push_back({to, to - from});
    };
  });

  system.run_for(sec(10));
  harness::ChurnDriver churn(system, subs, sec(300), sec(5));
  system.run_for(sec(250));

  print_header(
      "Figure 5: catchup duration per reconnection over a 250s window\n"
      "(88 subscribers, disconnect 5s every 300s; paper: 5-6s durations)");
  print_row({"t(s)", "catchup duration (s)"});
  Summary summary;
  for (const auto& c : completions) {
    print_row({fmt(to_seconds(c.at), 1), fmt(to_seconds(c.duration), 2)});
    summary.add(to_seconds(c.duration));
  }
  std::printf("\ncompletions=%llu  mean=%.2fs  min=%.2fs  max=%.2fs  (paper: 5-6s)\n",
              static_cast<unsigned long long>(summary.count()), summary.mean(),
              summary.min(), summary.max());

  churn.stop();
  system.run_for(sec(15));
  system.verify_exactly_once();
  return 0;
}
