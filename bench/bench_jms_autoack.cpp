// JMS auto-acknowledge throughput (paper §5.2). The SHB owns each JMS
// subscriber's CT in database tables and commits it per consumed event,
// with explicit batching of waiting CT updates across 4 JDBC connections
// and a battery-backed disk write cache.
// Paper: peak aggregate rate 4K ev/s with 25 subscribers, 7.6K with 200 —
// the bottleneck is database update+commit throughput, so adding
// subscribers grows batches and aggregate rate sublinearly.
#include "bench/bench_common.hpp"

namespace gryphon::bench {
namespace {

double run(int subscribers) {
  auto config = harness::paper_config();
  config.num_shbs = 1;
  config.num_pubends = 4;
  config.shb_db_connections = 4;             // 4 JDBC connections + threads
  config.shb_disk.sync_latency = msec(2);    // battery-backed write cache
  config.shb_db_per_txn_overhead = usec(120);  // DB2 commit-path work per txn
  harness::System system(config);

  // Saturating input: every subscriber matches the full 800 ev/s stream, so
  // delivery is gated purely by the CT commit path.
  harness::PaperWorkloadConfig wl;
  wl.groups = 1;
  harness::start_paper_publishers(system, wl);

  for (int i = 0; i < subscribers; ++i) {
    core::DurableSubscriber::Options options;
    options.id = SubscriberId{static_cast<std::uint32_t>(i + 1)};
    options.predicate = harness::group_predicate(0);
    options.jms_auto_ack = true;
    system.add_subscriber(options, 0, i % 4).connect();
  }

  system.run_for(sec(5));  // warmup
  const auto before = system.oracle().delivered_count();
  const SimDuration window = sec(20);
  system.run_for(window);
  return static_cast<double>(system.oracle().delivered_count() - before) /
         to_seconds(window);
}

}  // namespace
}  // namespace gryphon::bench

int gryphon::bench::run_jms_autoack(Args& args) {
  args.finish();

  print_header(
      "JMS auto-acknowledge peak rate (paper 5.2)\n"
      "CT(s) committed per consumed event, batched over 4 JDBC connections\n"
      "paper: 4K ev/s @ 25 subscribers, 7.6K ev/s @ 200 subscribers");

  print_row({"subscribers", "aggregate ev/s", "per-sub ev/s"});
  double small = 0;
  double large = 0;
  for (const int n : {25, 200}) {
    const double rate = run(n);
    if (n == 25) small = rate;
    if (n == 200) large = rate;
    print_row({std::to_string(n), fmt(rate, 0), fmt(rate / n, 1)});
  }
  std::printf(
      "\ngrowth with 8x subscribers: %.2fx (paper: 7.6K/4K = 1.9x) — batching\n"
      "helps, but the commit path stays the bottleneck\n",
      large / small);
  return 0;
}
