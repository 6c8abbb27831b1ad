// Figure 7 — latestDelivered(p) and released(p) across an SHB crash and
// recovery (paper §5.3). Protocol of the experiment:
//   * 1 PHB + 1 SHB, 40 durable subscribers on 5 client machines,
//   * the SHB is failed for 25 seconds,
//   * subscriber reconnection is DELAYED until the constream has re-nacked
//     everything it missed (separating constream recovery from catchup),
//   * then all 40 subscribers reconnect at once.
// Paper shapes: latestDelivered flat while down, then a ~5x slope during
// constream nacking, then normal; released flat until the subscribers
// reconnect and ack, then slightly above normal until catchup ends (their
// catchup takes ~116s because all 40 streams are concurrent).
#include "bench/bench_common.hpp"

#include "harness/sampler.hpp"

int gryphon::bench::run_fig7_crash_recovery(Args& args) {
  args.finish();

  auto config = harness::paper_config();
  config.num_shbs = 1;
  harness::System system(config);
  harness::start_paper_publishers(system, harness::PaperWorkloadConfig{});
  const auto subs = harness::add_group_subscribers(system, 0, 40, 4, 1, /*machines=*/5);

  Summary catchup_durations;
  system.on_shb_ready(0, [&](core::SubscriberHostingBroker& shb) {
    shb.on_catchup_complete = [&](SubscriberId, SimTime from, SimTime to) {
      catchup_durations.add(to_seconds(to - from));
    };
  });

  const PubendId p1 = system.pubends()[0];
  Tick last_rel = 0;
  harness::Sampler sampler(system.simulator(), msec(200));
  // The registry gauge lives in NodeResources, which survives the crash, so
  // the plotted series naturally holds its last value while the broker is
  // down — no alive-check caching needed.
  auto& ld_series = sampler.add_gauge(
      "latestDelivered_1",
      system.shb_node().metrics.gauge("shb.p" + std::to_string(p1.value()) +
                                      ".latest_delivered"));
  auto& rel_series = sampler.add("released_1", [&] {
    if (system.shb_alive(0)) last_rel = system.shb().released(p1);
    return static_cast<double>(last_rel);
  });

  // Timeline: warmup 30s | crash 25s | recovery (held) | reconnect | catchup.
  const auto [crash_at, recovered_at, reconnect_at] = harness::run_shb_crash(system, subs);

  // Let every subscriber finish catchup, then settle.
  system.run_for(sec(220));

  print_header(
      "Figure 7: latestDelivered(p) and released(p) across SHB crash/recovery\n"
      "(ticks; SHB down 25s; subscribers held until constream recovery)");
  std::printf("crash at t=%.1fs, recovered (constream) at t=%.1fs, reconnect at t=%.1fs\n",
              to_seconds(crash_at), to_seconds(recovered_at), to_seconds(reconnect_at));

  // Print at 2s granularity to keep the table readable.
  auto decimate = [](const std::vector<TimeSeries::Point>& pts) {
    std::vector<TimeSeries::Point> out;
    SimTime next = 0;
    for (const auto& p : pts) {
      if (p.time >= next) {
        out.push_back(p);
        next = p.time + sec(2);
      }
    }
    return out;
  };
  print_row({"t(s)", "latestDelivered", "released"}, 20);
  const auto ld_pts = decimate(ld_series.points());
  const auto rel_pts = decimate(rel_series.points());
  for (std::size_t i = 0; i < ld_pts.size() && i < rel_pts.size(); ++i) {
    print_row({fmt(to_seconds(ld_pts[i].time), 0), fmt(ld_pts[i].value, 0),
               fmt(rel_pts[i].value, 0)},
              20);
  }

  // The shape numbers the paper calls out.
  const auto ld_rates = ld_series.rate_of_change(sec(1));
  double recovery_slope = 0;
  double normal_slope = 0;
  int recovery_n = 0;
  int normal_n = 0;
  for (const auto& r : ld_rates) {
    if (r.time >= crash_at + sec(25) && r.time < recovered_at) {
      recovery_slope += r.value;
      ++recovery_n;
    } else if (r.time < crash_at - sec(5) && r.time > sec(10)) {
      normal_slope += r.value;
      ++normal_n;
    }
  }
  if (recovery_n > 0) recovery_slope /= recovery_n;
  if (normal_n > 0) normal_slope /= normal_n;
  std::printf(
      "\nlatestDelivered slope: normal %.0f tick-ms/s, during constream "
      "recovery %.0f (%.1fx; paper ~5x)\n",
      normal_slope, recovery_slope, recovery_slope / std::max(1.0, normal_slope));
  std::printf("catchup durations: mean %.1fs over %llu subscribers (paper ~116s "
              "with all 40 concurrent)\n",
              catchup_durations.mean(),
              static_cast<unsigned long long>(catchup_durations.count()));

  sampler.stop();  // measurement over: cancel the periodic polls
  system.run_for(sec(10));
  system.verify_exactly_once();
  std::printf("exactly-once contract verified for all 40 subscribers\n");
  return 0;
}
