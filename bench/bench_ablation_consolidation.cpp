// Ablation E10 — the value of the consolidated stream (paper §4 / §5
// result 3). Compares the SHB's sustainable aggregate delivery rate when
// all subscribers ride the constream vs when every subscriber runs its own
// catchup stream (forced by a mass reconnection after a long outage).
// Paper: ~20K ev/s consolidated vs ~10K with 40 separate catchup streams.
#include "bench/bench_common.hpp"

namespace gryphon::bench {
namespace {

double steady_constream_rate() {
  auto config = harness::paper_config();
  config.num_shbs = 1;
  harness::System system(config);
  harness::start_paper_publishers(system, harness::PaperWorkloadConfig{});
  harness::add_group_subscribers(system, 0, 100, 4, 1, /*machines=*/5);
  system.run_for(sec(10));
  const auto before = system.oracle().delivered_count();
  system.run_for(sec(30));
  system.verify_exactly_once();
  return static_cast<double>(system.oracle().delivered_count() - before) / 30.0;
}

double mass_catchup_rate(int subscribers) {
  auto config = harness::paper_config();
  config.num_shbs = 1;
  // Unlimited client-side flow control so the separate-stream CPU cost is
  // the binding constraint, as in the paper's capacity statement.
  config.broker.costs.catchup_rate_limit_eps = 1e9;
  harness::System system(config);
  harness::start_paper_publishers(system, harness::PaperWorkloadConfig{});
  auto subs = harness::add_group_subscribers(system, 0, subscribers, 4, 1, 5);
  system.run_for(sec(5));

  for (auto* sub : subs) sub->disconnect();
  system.run_for(sec(30));  // everyone misses 30s of events
  const auto before = system.oracle().delivered_count();
  for (auto* sub : subs) sub->connect();
  const SimDuration window = sec(20);  // all streams concurrently catching up
  system.run_for(window);
  return static_cast<double>(system.oracle().delivered_count() - before) /
         to_seconds(window);
}

}  // namespace
}  // namespace gryphon::bench

int gryphon::bench::run_ablation_consolidation(Args& args) {
  args.finish();

  print_header(
      "Ablation: stream consolidation (paper 5, result 3)\n"
      "aggregate SHB delivery rate, consolidated constream vs per-subscriber\n"
      "catchup streams; paper: ~20K vs ~10K ev/s");

  const double consolidated = steady_constream_rate();
  print_row({"mode", "subs", "aggregate ev/s"});
  print_row({"constream (consolidated)", "100", fmt(consolidated, 0)});
  for (const int subs : {40, 100}) {
    const double rate = mass_catchup_rate(subs);
    print_row({"separate catchup streams", std::to_string(subs), fmt(rate, 0)});
  }
  std::printf(
      "\nshape: per-subscriber catchup streams cost roughly twice the CPU per\n"
      "delivered event, halving SHB capacity — the reason the SHB\n"
      "consolidates all non-catchup subscribers onto one stream.\n");
  return 0;
}
