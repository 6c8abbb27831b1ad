// Chaos engine: seeded, replayable randomized fault schedules with the
// always-on invariant oracle (ChaosSchedule + InvariantMonitor +
// DeliveryOracle working together).
//
// Every schedule here is a pure function of its seed: the acceptance bar is
// that the same seed replays a byte-identical fault timeline and final
// oracle state, a battery of distinct seeds all reach quiescence with the
// exactly-once contract intact, and a deliberately injected violation is
// caught *at the violating event*.
#include <gtest/gtest.h>

#include "harness/chaos.hpp"
#include "harness/system.hpp"
#include "harness/workload.hpp"
#include "matching/parser.hpp"
#include "util/rng.hpp"

namespace gryphon {
namespace {

using harness::ChaosConfig;
using harness::ChaosSchedule;
using harness::System;
using harness::SystemConfig;

/// PHB <- one SHB, 2 pubends.
SystemConfig single_shb_topology() {
  SystemConfig config;
  config.num_pubends = 2;
  return config;
}

struct ChaosOutcome {
  std::string timeline;
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;
  std::uint64_t catchup_delivered = 0;
  std::uint64_t gaps = 0;
  std::uint64_t tasks = 0;
  std::uint64_t sweeps = 0;

  friend bool operator==(const ChaosOutcome&, const ChaosOutcome&) = default;
};

/// One full chaos run over the chaos-soak deployment (PHB - imb - 2 SHBs,
/// 8 subscribers); returns the decoded timeline plus an end-state
/// fingerprint.
ChaosOutcome run_chaos(std::uint64_t seed, SimDuration horizon = sec(8),
                       SimDuration settle = sec(22)) {
  System system(harness::chaos_soak_config());
  harness::start_chaos_soak_load(system);

  ChaosConfig config;
  config.seed = seed;
  config.horizon = horizon;
  config.settle = settle;
  ChaosSchedule chaos(system, config);
  chaos.run();

  ChaosOutcome out;
  out.timeline = chaos.timeline_string();
  out.published = system.oracle().published_count();
  out.delivered = system.oracle().delivered_count();
  out.catchup_delivered = system.oracle().catchup_delivered_count();
  out.gaps = system.oracle().gap_count();
  out.tasks = system.simulator().executed_tasks();
  out.sweeps = system.invariants()->sweeps();
  return out;
}

TEST(Chaos, SameSeedReplaysByteIdentical) {
  const ChaosOutcome a = run_chaos(42);
  const ChaosOutcome b = run_chaos(42);
  EXPECT_EQ(a.timeline, b.timeline);  // byte-identical fault timeline
  EXPECT_EQ(a, b);                    // …and bit-identical end state
  EXPECT_GT(a.timeline.find('\n'), 0u);
  EXPECT_GT(a.delivered, 0u);
}

TEST(Chaos, DistinctSeedsDrawDistinctSchedules) {
  System system_a(harness::chaos_soak_config());
  System system_b(harness::chaos_soak_config());
  ChaosConfig config;
  config.seed = 7;
  ChaosSchedule a(system_a, config);
  config.seed = 8;
  ChaosSchedule b(system_b, config);
  EXPECT_NE(a.timeline_string(), b.timeline_string());
  EXPECT_FALSE(a.timeline().empty());
  EXPECT_FALSE(b.timeline().empty());
}

TEST(Chaos, SeededBatteryReachesQuiescence) {
  // Partitions, flaps, degradations, disk stalls, torn syncs, crashes,
  // crash-in-recovery and double faults, interleaved at random — each seed
  // must end quiescent with exactly-once intact (checked continuously by the
  // monitor and finally by verify_quiescent inside run()).
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ChaosOutcome out = run_chaos(seed);
    EXPECT_GT(out.delivered, 0u);
    EXPECT_GT(out.sweeps, 0u);  // the always-on monitor actually ran
  }
}

TEST(Chaos, PartitionDuringActiveCatchupClosesWithNoGaps) {
  // Acceptance criterion: partition/heal landing inside an active catchup
  // stream completes with zero gaps on the constream and exactly-once for
  // all subscribers, across >= 10 distinct seeds (partition timing and
  // duration drawn per seed).
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SystemConfig config;
    config.num_pubends = 2;
    System system(config);
    system.enable_invariants();
    harness::PaperWorkloadConfig wl;
    wl.input_rate_eps = 200;
    harness::start_paper_publishers(system, wl);
    auto subs = harness::add_group_subscribers(system, 0, 2, 4, 1);
    system.run_for(sec(3));

    subs[0]->disconnect();
    system.run_for(sec(5));  // miss ~250 matching events
    subs[0]->connect();
    Rng rng(seed);
    // Land inside the catchup (flow control stretches it over seconds).
    system.run_for(msec(20) + static_cast<SimDuration>(rng.next_below(400'000)));
    ASSERT_GT(system.shb().catchup_stream_count(), 0u);

    const auto up = system.shb_uplink_endpoint(0);
    const auto down = system.shb_endpoint(0);
    system.network().partition(up, down);
    system.run_for(msec(200) + static_cast<SimDuration>(rng.next_below(2'300'000)));
    system.network().heal(up, down);
    system.run_for(sec(20));

    for (auto* sub : subs) EXPECT_EQ(sub->gaps_received(), 0u);
    system.verify_quiescent();
  }
}

TEST(Chaos, ShbCrashLandingInsideRecovery) {
  // The SHB dies again milliseconds into recover(): recovery IO (DB reload,
  // PFS metadata rebuild, log-volume scan) is in flight when the second
  // crash drops every completion. The third incarnation must still recover
  // to a consistent state and serve everything exactly once.
  System system(single_shb_topology());
  system.enable_invariants();
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 4, 4, 1);
  system.run_for(sec(5));

  system.crash_shb(0);
  system.run_for(sec(1));
  system.restart_shb(0);
  system.run_for(msec(5));  // < the 6ms disk seek: recovery IO still pending
  system.crash_shb(0);
  system.run_for(sec(1));
  system.restart_shb(0);
  system.run_for(sec(25));

  for (auto* sub : subs) {
    EXPECT_TRUE(sub->connected());
    EXPECT_EQ(sub->gaps_received(), 0u);
  }
  system.verify_quiescent();
}

TEST(Chaos, AlwaysOnOracleCatchesInjectedDuplicateAtTheEvent) {
  // Negative test: the oracle must fail at the violating *event*, not at a
  // later sweep. Deliver an event the subscriber has already consumed.
  SystemConfig config;
  config.num_pubends = 1;
  System system(config);
  system.enable_invariants();
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 100;
  wl.groups = 1;  // subscriber matches every event
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 1, 1, 1);
  system.run_for(sec(3));

  auto* sub = subs[0];
  const PubendId p = system.pubends()[0];
  const auto pred = matching::parse_predicate(harness::group_predicate(0));
  Tick t = kTickZero;
  matching::EventDataPtr event;
  for (const auto& [tick, e] : system.oracle().published(p)) {
    if (tick <= sub->checkpoint().of(p) && pred->matches(*e)) {
      t = tick;
      event = e;
      break;
    }
  }
  ASSERT_NE(event, nullptr) << "no consumed matching event to duplicate";

  const SimTime now = system.simulator().now();
  EXPECT_THROW(system.oracle().on_event(sub->id(), p, t, event, false, now),
               InvariantViolation);
  // A gap notification claiming the delivered event will "never arrive" is
  // equally a contract violation, caught at the event.
  EXPECT_THROW(system.oracle().on_gap(sub->id(), p, {t, t}, now), InvariantViolation);
}

TEST(Chaos, ReconnectBackoffPacesRetriesAgainstPartitionedShb) {
  // Subscriber reconnect uses capped exponential backoff with deterministic
  // jitter: while the SHB is unreachable (crashed, then restarted behind a
  // severed client link) the retry count stays bounded, and the subscriber
  // still comes back within one backoff period of the heal.
  SystemConfig config;
  config.num_pubends = 2;
  System system(config);
  system.enable_invariants();
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 2, 4, 1);
  system.run_for(sec(3));

  const auto shb_ep = system.shb_endpoint(0);
  system.crash_shb(0);  // clients observe the reset and begin retrying
  for (auto* sub : subs) system.network().partition(sub->endpoint(), shb_ep);
  system.run_for(sec(1));
  system.restart_shb(0);  // broker is back, but the client links are severed

  const std::uint64_t refused_before = system.network().refused_sends();
  system.run_for(sec(10));
  const std::uint64_t refused = system.network().refused_sends() - refused_before;
  // Backoff (500ms doubling to a 4s cap, ±20% jitter) allows ~3-6 refused
  // connection attempts per subscriber over 10s; a fixed 500ms retry would
  // burn ~20 each.
  EXPECT_GE(refused, 4u);
  EXPECT_LE(refused, 16u);

  for (auto* sub : subs) system.network().heal(sub->endpoint(), shb_ep);
  system.run_for(sec(20));  // next retry lands within backoff.max * 1.2
  for (auto* sub : subs) EXPECT_TRUE(sub->connected());
  system.verify_quiescent();
}

TEST(Chaos, TornSyncUnderLoadIsRecovered) {
  // drop_unsynced() loses in-flight write barriers on a live SHB; the
  // LogVolume/Database torn-sync handlers must re-issue them so progress
  // commits and PFS records still become durable.
  System system(single_shb_topology());
  system.enable_invariants();
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 2, 4, 1);
  system.run_for(sec(2));

  for (int i = 0; i < 5; ++i) {
    system.torn_sync_shb(0);
    system.torn_sync_phb();
    system.run_for(msec(700));
  }
  EXPECT_GE(system.shb_disk(0).total_torn_syncs(), 5u);
  system.run_for(sec(10));
  system.verify_quiescent();

  // And a crash right after a torn sync: recovery sees only data whose
  // re-issued barrier completed.
  system.torn_sync_shb(0);
  system.crash_shb(0);
  system.run_for(sec(1));
  system.restart_shb(0);
  system.run_for(sec(20));
  system.verify_quiescent();
}

/// Correlated full-cluster power loss: with every other fault kind weighted
/// to zero the schedule draws only kPowerLoss events — every broker crashes
/// at the same instant with its own WAL tear, restarts stagger root-first,
/// and the cluster still settles back to exactly-once quiescence.
ChaosOutcome run_power_loss(std::uint64_t seed) {
  System system(harness::chaos_soak_config());
  harness::start_chaos_soak_load(system);

  ChaosConfig config;
  config.seed = seed;
  config.horizon = sec(8);
  harness::ChaosWeights w;
  w.partition = w.flap = w.degrade = w.disk_stall = w.torn_sync = 0;
  w.crash_restart = w.crash_during_recovery = w.double_fault = 0;
  w.power_loss = 1;
  config.weights = w;
  ChaosSchedule chaos(system, config);
  chaos.run();

  ChaosOutcome out;
  out.timeline = chaos.timeline_string();
  out.published = system.oracle().published_count();
  out.delivered = system.oracle().delivered_count();
  out.catchup_delivered = system.oracle().catchup_delivered_count();
  out.gaps = system.oracle().gap_count();
  out.tasks = system.simulator().executed_tasks();
  out.sweeps = system.invariants()->sweeps();
  return out;
}

TEST(Chaos, PowerLossCrashesEveryBrokerAndStillQuiesces) {
  const ChaosOutcome a = run_power_loss(7);
  EXPECT_NE(a.timeline.find("power-loss"), std::string::npos) << a.timeline;
  // The whole-cluster fault is as replayable as any single-target one.
  const ChaosOutcome b = run_power_loss(7);
  EXPECT_EQ(a, b);
}

/// Power loss composed with frame corruption under WireMode::kCodec: each
/// blackout additionally arms seeded corruption windows on up to two links,
/// spanning the cluster-wide crash instant. Every mangled frame must surface
/// as a decode reject (never a silent swallow), the reject counters survive
/// the broker restarts (they live at the Network), and the cluster still
/// settles to exactly-once quiescence.
TEST(Chaos, PowerLossWithFrameCorruptionRejectsEveryMangledFrame) {
  SystemConfig sc = harness::chaos_soak_config();
  sc.wire = harness::WireMode::kCodec;
  sc.wire_verify_every = 1;
  System system(sc);
  harness::start_chaos_soak_load(system);

  ChaosConfig config;
  config.seed = 11;
  config.horizon = sec(8);
  harness::ChaosWeights w;
  w.partition = w.flap = w.degrade = w.disk_stall = w.torn_sync = 0;
  w.crash_restart = w.crash_during_recovery = w.double_fault = 0;
  w.power_loss = 1;
  w.frame_corrupt = 1;  // composes into each blackout (also draws solo windows)
  config.weights = w;
  ChaosSchedule chaos(system, config);
  // Both kinds in one timeline, with corruption windows bracketing a crash.
  EXPECT_NE(chaos.timeline_string().find("power-loss"), std::string::npos)
      << chaos.timeline_string();
  EXPECT_NE(chaos.timeline_string().find("across the blackout"), std::string::npos)
      << chaos.timeline_string();
  chaos.run();  // throws on any invariant violation

  // The armed windows really mangled traffic around the crash instant, and
  // in codec mode every mangled frame was rejected by the decoder — counted,
  // never swallowed, across all broker restarts.
  EXPECT_GT(system.network().corrupted_frames(), 0u);
  EXPECT_EQ(system.network().decode_rejects(), system.network().corrupted_frames());
}

/// kCatchupReadFault: an SHB crash whose recovery runs straight into a disk
/// stall plus a budget of seeded PFS read faults — the catchup streams for
/// every reconnecting durable subscriber walk their back-pointer chains
/// through exactly that faulty IO window, and exactly-once must hold.
ChaosOutcome run_catchup_read_fault(std::uint64_t seed, std::uint64_t* faults_fired) {
  System system(harness::chaos_soak_config());
  harness::start_chaos_soak_load(system);

  ChaosConfig config;
  config.seed = seed;
  config.horizon = sec(8);
  harness::ChaosWeights w;
  w.partition = w.flap = w.degrade = w.disk_stall = w.torn_sync = 0;
  w.crash_restart = w.crash_during_recovery = w.double_fault = 0;
  w.catchup_read_fault = 1;
  config.weights = w;
  ChaosSchedule chaos(system, config);
  chaos.run();

  if (faults_fired != nullptr) {
    *faults_fired = 0;
    for (int i = 0; i < system.num_shbs(); ++i) {
      *faults_fired += system.shb_disk(i).read_faults_injected();
    }
  }
  ChaosOutcome out;
  out.timeline = chaos.timeline_string();
  out.published = system.oracle().published_count();
  out.delivered = system.oracle().delivered_count();
  out.catchup_delivered = system.oracle().catchup_delivered_count();
  out.gaps = system.oracle().gap_count();
  out.tasks = system.simulator().executed_tasks();
  out.sweeps = system.invariants()->sweeps();
  return out;
}

TEST(Chaos, CatchupReadFaultsDuringRecoveryKeepExactlyOnce) {
  std::uint64_t fired = 0;
  const ChaosOutcome a = run_catchup_read_fault(13, &fired);
  EXPECT_NE(a.timeline.find("catchup-read-fault"), std::string::npos) << a.timeline;
  // Fired-at-least-once guard: the armed budget really hit live PFS reads —
  // an armed-but-never-exercised window would vacuously pass the oracle.
  EXPECT_GT(fired, 0u) << a.timeline;
  EXPECT_GT(a.catchup_delivered, 0u);  // the faulted window served catchup
  EXPECT_EQ(a.gaps, 0u);
  // Replayable like every other fault kind.
  const ChaosOutcome b = run_catchup_read_fault(13, nullptr);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace gryphon
