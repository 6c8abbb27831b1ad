// Workload builders for the paper's evaluation setup (§5):
//   * events with a 250-byte payload (418 bytes on the wire with headers),
//     partitioned into `groups` by a "g" attribute so that a subscriber of
//     "g == k" receives exactly rate/groups events per second,
//   * one publisher per pubend at a fixed rate,
//   * per-subscriber periodic disconnect/reconnect churn (Fig. 4-6),
//   * a deterministic default of 4 pubends x 200 ev/s = 800 ev/s input and
//     200 ev/s per subscriber (groups = 4),
//   * the deployments more than one bench or test runs: Fig. 4's load, the
//     §5.3 SHB crash, the chaos soak and the reconnect herd.
#pragma once

#include <string>
#include <vector>

#include "core/publisher_client.hpp"
#include "core/subscriber_client.hpp"
#include "harness/system.hpp"
#include "util/rng.hpp"

namespace gryphon::harness {

/// §5 defaults: RS/6000 F80-class brokers (6 cores), event logging at the
/// PHB dominating end-to-end latency at ~44 ms, SSA-class SHB disks, 1 ms
/// broker links, 4 pubends.
[[nodiscard]] SystemConfig paper_config();

struct PaperWorkloadConfig {
  double input_rate_eps = 800.0;  // aggregate over all pubends
  int groups = 4;                 // subscriber matches input_rate / groups
  std::size_t payload_bytes = 250;  // 418 bytes with headers
};

/// Event factory: cycles the "g" attribute deterministically so every group
/// receives exactly 1/groups of the stream.
[[nodiscard]] core::Publisher::EventFactory group_event_factory(int groups,
                                                                std::size_t payload_bytes);

/// The predicate a group-`k` subscriber uses.
[[nodiscard]] std::string group_predicate(int k);

/// Starts one publisher per pubend at input_rate/num_pubends each, phase
/// staggered so the aggregate stream is smooth.
void start_paper_publishers(System& system, const PaperWorkloadConfig& config);

/// Adds `count` subscribers to SHB `shb_index`, round-robining groups and
/// client machines, and connects them. Ids must not collide across calls —
/// pass a distinct `first_id` block per SHB.
std::vector<core::DurableSubscriber*> add_group_subscribers(
    System& system, int shb_index, int count, int groups, std::uint32_t first_id,
    int machines = 1, SimDuration ack_interval = msec(250));

/// Fig. 4's load on a paper_config() System: the §5 publishers and `per_shb`
/// subscribers on every SHB (the paper ran 100 steady and 88 under churn; 4
/// groups over 5 client machines, ids 1000·(i+1)… on SHB i), then a 10 s
/// warm-up. Returns the subscribers.
std::vector<core::DurableSubscriber*> start_fig4_load(System& system, int per_shb);

/// When the phases of the §5.3 crash experiment (Figs. 7 and 8) began.
struct ShbCrashTimes {
  SimTime crash_at = 0;
  SimTime recovered_at = 0;
  SimTime reconnect_at = 0;
};

/// Runs the §5.3 crash: 30 s of normal running, then SHB 0 is down for
/// 25 s. `subs` are held off reconnecting until the restarted SHB's
/// constream has re-nacked to within 1.5 s of real time (separating
/// constream recovery from catchup); then they all reconnect at once.
ShbCrashTimes run_shb_crash(System& system, const std::vector<core::DurableSubscriber*>& subs);

/// The chaos-soak deployment: 2 pubends, PHB <- one intermediate <- 2 SHBs.
[[nodiscard]] SystemConfig chaos_soak_config();

/// The chaos soak's load on a System built from chaos_soak_config(): 300
/// ev/s over both pubends and 4 group subscribers on each SHB, then a 3 s
/// healthy warm-up before the first fault. Returns the 8 subscribers.
std::vector<core::DurableSubscriber*> start_chaos_soak_load(System& system);

/// The reconnect-herd deployment: one pubend, PHB <- one intermediate <-
/// one SHB, sized so that a herd of thousands of catchup streams is limited
/// by the SHB's `admission_limit`-wide admission gate, not by CPU or disk.
[[nodiscard]] SystemConfig herd_config(std::size_t admission_limit);

/// The herd's load on a System built from herd_config(): 200 ev/s in 100
/// groups and `subscribers` durable subscribers on the SHB (10 client
/// machines, acking every second), then a 2 s warm-up.
std::vector<core::DurableSubscriber*> start_herd_load(System& system, int subscribers);

/// Periodic churn (paper §5.1): each subscriber independently disconnects
/// every `period`, stays down for `down_time`, then reconnects. Offsets are
/// staggered deterministically across subscribers.
class ChurnDriver {
 public:
  ChurnDriver(System& system, std::vector<core::DurableSubscriber*> subs,
              SimDuration period, SimDuration down_time);

  /// Stops scheduling further disconnects (already-down subscribers still
  /// reconnect).
  void stop() { stopped_ = true; }

  [[nodiscard]] std::uint64_t disconnects() const { return disconnects_; }

 private:
  void schedule(std::size_t idx, SimDuration delay);

  System& system_;
  std::vector<core::DurableSubscriber*> subs_;
  SimDuration period_;
  SimDuration down_time_;
  bool stopped_ = false;
  std::uint64_t disconnects_ = 0;
};

/// Churn storms: seeded waves that drop a large fraction of the subscriber
/// population at one instant and reconnect the whole herd `down_time` later
/// (optionally fuzzed over `reconnect_spread`), so thousands of catchup
/// streams arrive at the SHB simultaneously. The entire schedule is drawn
/// from Rng(seed) at construction — same seed, same storm, bit-identical.
class StormDriver {
 public:
  struct Options {
    std::uint64_t seed = 1;
    int waves = 3;
    SimDuration wave_interval = sec(8);   // wave k drops at k * interval
    SimDuration down_time = sec(4);       // herd reconnects this much later
    double drop_fraction = 1.0;           // share of subscribers per wave
    SimDuration reconnect_spread = 0;     // 0 = perfectly simultaneous herd
  };

  StormDriver(System& system, std::vector<core::DurableSubscriber*> subs,
              Options options);

  [[nodiscard]] std::uint64_t disconnects() const { return disconnects_; }
  [[nodiscard]] std::uint64_t reconnects() const { return reconnects_; }

 private:
  System& system_;
  std::vector<core::DurableSubscriber*> subs_;
  Options opt_;
  std::uint64_t disconnects_ = 0;
  std::uint64_t reconnects_ = 0;
};

}  // namespace gryphon::harness
