// Figure 4 — Peak event rate: aggregate subscriber delivery rate for 1, 2
// and 4 SHBs, without and with periodic subscriber disconnection (paper
// §5.1). Paper values: 20K -> 79.2K ev/s (no churn) and 17.6K -> 69.6K
// (churn; each subscriber disconnects for 5s every 300s), with PHB idle
// falling from 69% to 59%. The "1 broker" network of Fig. 3 is reported by
// the 1-SHB row (the paper found their capacities equivalent because disk
// logging CPU is negligible).
#include "bench/bench_common.hpp"

namespace gryphon::bench {
namespace {

struct Result {
  int shbs;
  int subscribers;
  double aggregate_eps;
  double phb_idle;
  double shb_idle;
  std::uint64_t gaps;
};

Result run_config(int shbs, bool churn) {
  auto config = harness::paper_config();
  config.num_shbs = shbs;
  harness::System system(config);
  const int per_shb = churn ? 88 : 100;  // paper's populations
  const auto subs = harness::start_fig4_load(system, per_shb);
  std::unique_ptr<harness::ChurnDriver> driver;
  if (churn) {
    driver = std::make_unique<harness::ChurnDriver>(system, subs, sec(300), sec(5));
  }

  const SimTime measure_from = system.simulator().now();
  const std::uint64_t delivered_before = system.oracle().delivered_count();
  const SimDuration window = sec(60);
  system.run_for(window);
  const std::uint64_t delivered = system.oracle().delivered_count() - delivered_before;

  Result r;
  r.shbs = shbs;
  r.subscribers = shbs * per_shb;
  r.aggregate_eps = static_cast<double>(delivered) / to_seconds(window);
  r.phb_idle = system.phb_cpu().idle_fraction(measure_from, measure_from + window);
  r.shb_idle = system.shb_cpu(0).idle_fraction(measure_from, measure_from + window);
  std::uint64_t gaps = 0;
  for (auto* sub : subs) gaps += sub->gaps_received();
  r.gaps = gaps;

  if (driver) driver->stop();
  system.run_for(sec(15));  // quiesce so the contract check sees a fixpoint
  system.verify_exactly_once();
  return r;
}

}  // namespace
}  // namespace gryphon::bench

int gryphon::bench::run_fig4_scalability(Args& args) {
  args.finish();

  print_header(
      "Figure 4: peak aggregate subscriber rate vs number of SHBs\n"
      "input 800 ev/s over 4 pubends, 200 ev/s per subscriber\n"
      "paper: no-churn 20K/40.4K/79.2K ev/s; churn 17.6K/35.4K/69.6K ev/s");

  print_row({"mode", "SHBs", "subs", "aggregate ev/s", "PHB idle %", "SHB0 idle %",
             "gaps"});
  double base_no_churn = 0;
  double base_churn = 0;
  for (const bool churn : {false, true}) {
    for (const int shbs : {1, 2, 4}) {
      const auto r = run_config(shbs, churn);
      if (shbs == 1) (churn ? base_churn : base_no_churn) = r.aggregate_eps;
      print_row({churn ? "churn" : "steady", std::to_string(r.shbs),
                 std::to_string(r.subscribers), fmt(r.aggregate_eps, 0),
                 fmt(100 * r.phb_idle, 1), fmt(100 * r.shb_idle, 1),
                 std::to_string(r.gaps)});
    }
  }
  std::printf(
      "\nlinearity: 4-SHB/1-SHB aggregate ratio (paper: ~3.96x both modes)\n"
      "churn penalty at 4 SHBs (paper: churn peak ~88%% of no-churn peak)\n");
  std::printf("1-SHB no-churn baseline: %.0f ev/s (paper 20K)\n", base_no_churn);
  std::printf("1-SHB churn baseline:    %.0f ev/s (paper 17.6K)\n", base_churn);
  return 0;
}
