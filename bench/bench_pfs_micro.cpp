// PFS microbenchmark (paper §5.1.2) — the Persistent Filtering Subsystem vs
// per-subscriber event logging at the SHB, on the paper's workload:
//   800 ev/s input, 100 subscribers, 200 ev/s per subscriber (every event
//   matches 25 subscribers), 418-byte events (250-byte payload), both logs
//   synced every 200 events per subscriber (= once per workload second),
//   retention of the last 1000 events per subscriber, 100s of workload
//   (80,000 events total), replayed as fast as the storage allows.
// Paper: the PFS logged 25x less data and finished >5x faster.
#include "sim/simulator.hpp"
#include "bench/bench_common.hpp"

#include <functional>
#include <memory>

#include "core/baseline_event_log.hpp"
#include "core/event_codec.hpp"
#include "core/pfs.hpp"

namespace gryphon::bench {
namespace {

constexpr int kEvents = 80'000;
constexpr int kSubscribers = 100;
constexpr int kMatchPerEvent = 25;      // 200 of 800 ev/s per subscriber
constexpr int kSyncEveryPerSub = 200;   // per-subscriber sync cadence
constexpr int kRetainEvents = 1000;     // last 5s per subscriber

matching::EventDataPtr make_event(int g) {
  // Padded so one logged event record is 418 bytes - the paper.s on-disk
  // event size (250-byte application payload + headers).
  return std::make_shared<matching::EventData>(
      std::map<std::string, matching::Value>{{"g", matching::Value(g)}}, "", 372);
}

std::vector<SubscriberId> matching_subs(int event_index) {
  // Events cycle over 4 groups of 25 subscribers.
  std::vector<SubscriberId> out;
  out.reserve(kMatchPerEvent);
  const int group = event_index % 4;
  for (int i = 0; i < kMatchPerEvent; ++i) {
    out.emplace_back(static_cast<std::uint32_t>(group * kMatchPerEvent + i + 1));
  }
  return out;
}

struct RunResult {
  double seconds;
  std::uint64_t payload_bytes;
  std::uint64_t disk_bytes;
  std::uint64_t barriers;
};

/// Event-driven replay at disk speed: append a batch of kSyncEveryPerSub
/// events, force a sync, continue when it completes ("replays the 100s
/// workload as fast as the log can absorb it").
template <typename AppendBatch, typename Sync>
double replay(sim::Simulator& sim, AppendBatch&& append_one, Sync&& sync) {
  auto next_event = std::make_shared<int>(0);
  auto step = std::make_shared<std::function<void()>>();
  *step = [&sim, next_event, step, append_one, sync] {
    if (*next_event >= kEvents) return;
    const int batch_end = std::min(kEvents, *next_event + kSyncEveryPerSub);
    for (; *next_event < batch_end; ++*next_event) append_one(*next_event);
    sync([step] { (*step)(); });
  };
  (*step)();
  sim.run_until_idle();
  return to_seconds(sim.now());
}

RunResult run_pfs() {
  sim::Simulator sim;
  sim::LinkNetwork net(sim);
  core::BrokerConfig broker;
  auto disk_config = paper_config().shb_disk;
  core::NodeResources node(sim, net, "shb", broker, disk_config);
  core::CostModel costs;
  core::PersistentFilteringSubsystem pfs(node, costs);
  const PubendId p{1};
  pfs.open({p});

  const double seconds = replay(
      sim,
      [&](int i) {
        pfs.append(p, i + 1, matching_subs(i));
        // Retention: drop filtering records older than 1000 events.
        if (i >= kRetainEvents && i % kSyncEveryPerSub == 0) {
          pfs.chop_upto(p, i - kRetainEvents);
        }
      },
      [&](std::function<void()> done) { pfs.sync(std::move(done)); });
  return {seconds, pfs.payload_bytes_written(), node.disk.total_bytes_written(),
          node.disk.total_syncs()};
}

RunResult run_baseline() {
  sim::Simulator sim;
  sim::LinkNetwork net(sim);
  core::BrokerConfig broker;
  auto disk_config = paper_config().shb_disk;
  core::NodeResources node(sim, net, "shb", broker, disk_config);
  core::PerSubscriberEventLog log(node.log_volume);
  for (int s = 1; s <= kSubscribers; ++s) {
    log.register_subscriber(SubscriberId{static_cast<std::uint32_t>(s)});
  }

  const double seconds = replay(
      sim,
      [&](int i) {
        log.log_event(i + 1, make_event(i % 4), matching_subs(i));
        if (i >= kRetainEvents && i % kSyncEveryPerSub == 0) {
          for (int s = 1; s <= kSubscribers; ++s) {
            log.ack(SubscriberId{static_cast<std::uint32_t>(s)}, i - kRetainEvents);
          }
        }
      },
      [&](std::function<void()> done) { log.sync(std::move(done)); });
  return {seconds, log.payload_bytes_written(), node.disk.total_bytes_written(),
          node.disk.total_syncs()};
}

}  // namespace
}  // namespace gryphon::bench

int main() {
  using namespace gryphon;
  using namespace gryphon::bench;

  print_header(
      "PFS microbenchmark (paper 5.1.2): 80,000 events, 100 subscribers,\n"
      "25 matches/event, sync every 200 events, replayed at disk speed.\n"
      "Paper: PFS = 11.088s, >5x faster than per-subscriber event logging,\n"
      "with 25x less data.");

  const auto pfs = run_pfs();
  const auto baseline = run_baseline();

  print_row({"variant", "time (s)", "log bytes", "disk bytes", "barriers"});
  print_row({"PFS", fmt(pfs.seconds, 2), std::to_string(pfs.payload_bytes),
             std::to_string(pfs.disk_bytes), std::to_string(pfs.barriers)});
  print_row({"per-sub event log", fmt(baseline.seconds, 2),
             std::to_string(baseline.payload_bytes), std::to_string(baseline.disk_bytes),
             std::to_string(baseline.barriers)});

  std::printf("\nPFS wrote %.1fx less log data (paper: 25x)\n",
              static_cast<double>(baseline.payload_bytes) /
                  static_cast<double>(pfs.payload_bytes));
  std::printf("PFS finished %.1fx faster (paper: >5x)\n",
              baseline.seconds / pfs.seconds);
  std::printf("per-event PFS record: %zu bytes (8 + 16 x 25 matches)\n",
              core::PersistentFilteringSubsystem::record_bytes(25));
  return 0;
}
