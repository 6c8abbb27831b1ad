// Figure 6 — Rate of advance of latestDelivered(p) and released(p) with
// subscriber disconnections (paper §5.1.1). latestDelivered advances at
// ~1000 tick-ms per second with periodic dips to ~700 (JVM GC pauses);
// released(p) varies widely because any disconnected subscriber pins it.
#include "bench/bench_common.hpp"

#include "harness/sampler.hpp"

int gryphon::bench::run_fig6_delivered_released(Args& args) {
  args.finish();

  auto config = harness::paper_config();
  config.num_shbs = 1;
  // The paper's SHB ran in a JVM: periodic collector pauses.
  config.shb_gc_period = sec(25);
  config.shb_gc_pause = msec(300);
  harness::System system(config);
  harness::start_paper_publishers(system, harness::PaperWorkloadConfig{});
  auto subs = harness::add_group_subscribers(system, 0, 88, 4, 1, /*machines=*/5);

  const PubendId p1 = system.pubends()[0];
  harness::Sampler sampler(system.simulator(), msec(100));
  // latestDelivered is plotted straight from the broker's registry gauge
  // (set by the SHB whenever the value advances) rather than a bespoke
  // getter — the observability surface *is* the figure's data source.
  auto& ld_series = sampler.add_gauge(
      "latestDelivered_1",
      system.shb_node().metrics.gauge("shb.p" + std::to_string(p1.value()) +
                                      ".latest_delivered"));
  auto& rel_series = sampler.add("released_1", [&] {
    return static_cast<double>(system.shb().released(p1));
  });

  system.run_for(sec(10));
  harness::ChurnDriver churn(system, subs, sec(300), sec(5));
  system.run_for(sec(250));

  print_header(
      "Figure 6: rate of advance (tick-ms per second, 1s windows)\n"
      "paper: latestDelivered ~1000 with GC dips to ~700; released varies\n"
      "from ~500 to ~4500 as disconnected subscribers pin and release it");
  const auto ld_rates = ld_series.rate_of_change(sec(1));
  const auto rel_rates = rel_series.rate_of_change(sec(1));
  print_row({"t(s)", "latestDelivered rate", "released rate"}, 24);
  Summary ld_summary;
  Summary rel_summary;
  for (std::size_t i = 10; i < ld_rates.size() && i < rel_rates.size(); ++i) {
    print_row({fmt(to_seconds(ld_rates[i].time), 0), fmt(ld_rates[i].value, 0),
               fmt(rel_rates[i].value, 0)},
              24);
    ld_summary.add(ld_rates[i].value);
    rel_summary.add(rel_rates[i].value);
  }
  std::printf(
      "\nlatestDelivered rate: mean=%.0f min=%.0f max=%.0f (paper ~1000, dips ~700)\n"
      "released rate:        mean=%.0f min=%.0f max=%.0f (paper: high variance)\n",
      ld_summary.mean(), ld_summary.min(), ld_summary.max(), rel_summary.mean(),
      rel_summary.min(), rel_summary.max());

  churn.stop();
  sampler.stop();  // measurement over: cancel the periodic polls
  system.run_for(sec(15));
  system.verify_exactly_once();
  return 0;
}
