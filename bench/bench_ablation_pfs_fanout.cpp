// Ablation A1 — PFS advantage as a function of matching fan-out. The PFS
// record costs 8 + 16n bytes for n matching subscribers, while per-
// subscriber event logging costs n full event copies; this sweep shows the
// byte and time advantage across fan-outs (the paper reports the n = 25
// point: 25x data, >5x time).
#include "sim/simulator.hpp"
#include "bench/bench_common.hpp"

#include "core/baseline_event_log.hpp"
#include "core/pfs.hpp"

namespace gryphon::bench {
namespace {

constexpr int kEvents = 20'000;

struct RunResult {
  double seconds;
  std::uint64_t bytes;
};

std::vector<SubscriberId> first_n(int n) {
  std::vector<SubscriberId> out;
  for (int i = 1; i <= n; ++i) out.emplace_back(static_cast<std::uint32_t>(i));
  return out;
}

RunResult run_pfs(int fanout) {
  sim::Simulator sim;
  sim::LinkNetwork net(sim);
  core::BrokerConfig broker;
  core::NodeResources node(sim, net, "shb", broker, paper_config().shb_disk);
  core::CostModel costs;
  core::PersistentFilteringSubsystem pfs(node, costs);
  pfs.open({PubendId{1}});
  const auto matching = first_n(fanout);
  for (int i = 0; i < kEvents; ++i) {
    pfs.append(PubendId{1}, i + 1, matching);
    if (i % 200 == 199) pfs.sync([] {});
  }
  pfs.sync([] {});
  sim.run_until_idle();
  return {to_seconds(sim.now()), pfs.payload_bytes_written()};
}

RunResult run_baseline(int fanout) {
  sim::Simulator sim;
  sim::LinkNetwork net(sim);
  core::BrokerConfig broker;
  core::NodeResources node(sim, net, "shb", broker, paper_config().shb_disk);
  core::PerSubscriberEventLog log(node.log_volume);
  for (auto s : first_n(fanout)) log.register_subscriber(s);
  auto event = std::make_shared<matching::EventData>(
      std::map<std::string, matching::Value>{{"g", matching::Value(0)}}, "", 372);
  const auto matching = first_n(fanout);
  for (int i = 0; i < kEvents; ++i) {
    log.log_event(i + 1, event, matching);
    if (i % 200 == 199) log.sync([] {});
  }
  log.sync([] {});
  sim.run_until_idle();
  return {to_seconds(sim.now()), log.payload_bytes_written()};
}

}  // namespace
}  // namespace gryphon::bench

int main() {
  using namespace gryphon;
  using namespace gryphon::bench;

  print_header(
      "Ablation: PFS vs per-subscriber logging across matching fan-out n\n"
      "(20,000 events, sync every 200; paper reports the n=25 point)");

  print_row({"fanout n", "PFS bytes", "eventlog bytes", "bytes ratio", "time ratio"},
            16);
  for (const int n : {1, 5, 25, 50, 100}) {
    const auto pfs = run_pfs(n);
    const auto base = run_baseline(n);
    print_row({std::to_string(n), std::to_string(pfs.bytes),
               std::to_string(base.bytes),
               fmt(static_cast<double>(base.bytes) / static_cast<double>(pfs.bytes), 1),
               fmt(base.seconds / pfs.seconds, 1)},
              16);
  }
  std::printf(
      "\nshape: the byte advantage approaches eventbytes/16 per subscriber as\n"
      "n grows (the 8-byte timestamp amortizes); even n=1 wins because the\n"
      "PFS logs positions, not payloads.\n");
  return 0;
}
