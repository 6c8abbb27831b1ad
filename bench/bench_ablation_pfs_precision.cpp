// Ablation A1 — precise vs imprecise PFS (paper §4.2): "An imprecise
// implementation may represent some S ticks as Q, which does not affect
// correctness... It can be used to trade off PFS write performance with
// respect to the cost of retrieving and refiltering unnecessary events."
// Sweeps the coalescing batch factor and reports both sides of the trade:
// filtering-log bytes written vs positions inspected and events refiltered
// during a catchup.
#include "bench/bench_common.hpp"

namespace gryphon::bench {
namespace {

struct Result {
  std::uint64_t pfs_records;
  std::uint64_t pfs_bytes;
  std::uint64_t catchup_served;  // positions served/inspected via the cache
  double catchup_seconds;
  std::uint64_t delivered;
};

Result run(std::size_t batch) {
  auto config = harness::paper_config();
  config.num_shbs = 1;
  config.broker.costs.pfs_imprecise_batch = batch;
  harness::System system(config);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 400;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 8, 4, 1);

  double catchup_s = 0;
  system.on_shb_ready(0, [&](core::SubscriberHostingBroker& shb) {
    shb.on_catchup_complete = [&](SubscriberId, SimTime from, SimTime to) {
      catchup_s = to_seconds(to - from);
    };
  });

  system.run_for(sec(5));
  subs[0]->disconnect();
  system.run_for(sec(10));
  const auto served_before = system.shb().stats().catchup_events_served_from_istream;
  subs[0]->connect();
  system.run_for(sec(30));
  system.verify_exactly_once();

  return {system.shb().stats().pfs_records, system.shb().pfs().payload_bytes_written(),
          system.shb().stats().catchup_events_served_from_istream - served_before,
          catchup_s, system.oracle().delivered_count()};
}

}  // namespace
}  // namespace gryphon::bench

int gryphon::bench::run_ablation_pfs_precision(Args& args) {
  args.finish();

  print_header(
      "Ablation: PFS precision (paper 4.2) — write volume vs refiltering\n"
      "(batch 1 = the paper's precise implementation; one subscriber\n"
      "reconnects after missing 10s @ 100 matching ev/s)");

  print_row({"batch", "PFS log bytes", "positions inspected", "catchup (s)",
             "exactly-once"},
            22);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                  std::size_t{8}, std::size_t{16}}) {
    const auto r = run(batch);
    print_row({std::to_string(batch), std::to_string(r.pfs_bytes),
               std::to_string(r.catchup_served), fmt(r.catchup_seconds, 1), "yes"},
              22);
  }
  std::printf(
      "\nshape: bytes written fall roughly with the batch factor while the\n"
      "positions a catching-up subscriber must inspect (and refilter) grow;\n"
      "the delivery contract verifies at every setting.\n");
  return 0;
}
