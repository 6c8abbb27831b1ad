// End-to-end latency on a 5-hop broker network (paper §5 result 1):
// publisher -> PHB -> 3 intermediate brokers -> SHB -> subscriber.
// Paper: 50ms end to end, of which 44ms is event logging at the PHB (the
// event is announced only after it is durable — only-once logging means the
// system cannot take responsibility for it earlier).
#include "bench/bench_common.hpp"

int gryphon::bench::run_latency_5hop(Args& args) {
  args.finish();

  auto config = harness::paper_config();
  config.num_pubends = 1;
  config.num_intermediates = 3;  // PHB + 3 + SHB = 5 brokers
  config.num_shbs = 1;
  harness::System system(config);

  // Light load: latency, not throughput.
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 20;
  wl.groups = 1;
  harness::start_paper_publishers(system, wl);

  core::DurableSubscriber::Options options;
  options.id = SubscriberId{1};
  options.predicate = "true";
  system.add_subscriber(options).connect();

  system.run_for(sec(60));
  system.verify_exactly_once();

  print_header(
      "End-to-end latency, 5-hop broker network (paper 5, result 1)\n"
      "paper: 50ms end-to-end, 44ms from event logging at the PHB");
  const auto& e2e = system.oracle().e2e_latency();
  const auto& logging = system.oracle().publish_log_latency();
  print_row({"metric", "mean ms", "min ms", "max ms", "samples"});
  print_row({"end-to-end", fmt(e2e.mean(), 1), fmt(e2e.min(), 1), fmt(e2e.max(), 1),
             std::to_string(e2e.count())});
  print_row({"publish->durable", fmt(logging.mean(), 1), fmt(logging.min(), 1),
             fmt(logging.max(), 1), std::to_string(logging.count())});
  std::printf("\nlogging share of end-to-end latency: %.0f%% (paper: 44/50 = 88%%)\n",
              100.0 * logging.mean() / e2e.mean());
  return 0;
}
