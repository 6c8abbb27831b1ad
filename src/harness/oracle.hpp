// DeliveryOracle — global ground truth for every experiment.
//
// Observes every publish acknowledgment and every client-side delivery, and
// can then verify the paper's delivery contract per subscriber:
//   * no duplicates / ordering violations (also enforced on the wire by
//     DurableSubscriber),
//   * no spurious deliveries (event must match the predicate),
//   * exactly-once: every published event that matches the subscription,
//     with a timestamp within the subscriber's consumed horizon, was either
//     delivered or covered by an explicit gap notification (early release)
//     or predates the subscription.
//
// It stores what each (subscriber, pubend) stream is still owed, not what
// was delivered: a publish ack appends the tick to every matching stream
// (matched once, through an oracle-owned SubscriptionIndex) and a delivery
// pops it, so memory and verification are O(outstanding matches). A sampled
// brute-force scan keeps the oracle independent of that index.
//
// Doubles as the metrics sink: end-to-end latency summary, aggregate and
// per-machine delivery rate meters (the paper's client machines), and gap /
// catchup counters.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/client_observer.hpp"
#include "sim/simulator.hpp"
#include "core/subscriber_client.hpp"
#include "matching/predicate.hpp"
#include "matching/subscription_index.hpp"
#include "util/interval_set.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace gryphon::harness {

class DeliveryOracle final : public core::SubscriberObserver,
                             public core::PublisherObserver {
 public:
  /// The simulator argument is unused; perfbench still passes one.
  explicit DeliveryOracle(sim::Simulator& /*simulator*/) {}

  /// Registers a subscriber for verification. `machine` groups delivery
  /// rates the way the paper groups subscribers onto client machines.
  void register_subscriber(const core::DurableSubscriber* client,
                           matching::PredicatePtr predicate, int machine = 0);

  // --- PublisherObserver ---
  void on_published(PublisherId publisher, PubendId pubend, Tick tick,
                    const matching::EventDataPtr& event, SimTime publish_time,
                    SimTime ack_time) override;

  // --- SubscriberObserver ---
  void on_event(SubscriberId s, PubendId p, Tick t, const matching::EventDataPtr& e,
                bool catchup, SimTime now) override;
  void on_silence(SubscriberId s, PubendId p, Tick upto, SimTime now) override;
  void on_gap(SubscriberId s, PubendId p, TickRange range, SimTime now) override;
  void on_connected(SubscriberId s, SimTime now) override;

  /// Forgets a subscriber's delivery history and start point. Call when the
  /// experiment deliberately rewinds a subscriber's CT (paper §2's "older
  /// CT" case): redelivery of previously seen events becomes legitimate.
  void reset_subscriber(SubscriberId s);

  /// Exactly-once verification for one subscriber against its current CT.
  /// Returns human-readable violations (empty = contract held).
  [[nodiscard]] std::vector<std::string> verify(SubscriberId s) const;

  /// Verifies every registered subscriber.
  [[nodiscard]] std::vector<std::string> verify_all() const;

  /// Incremental variant for periodic sweeps: per (subscriber, pubend) it
  /// re-checks only ticks above the horizon already verified by an earlier
  /// call, then advances that horizon to the current CT. Sound because a
  /// verified fact only changes when the CT rewinds (on_connected clamps the
  /// horizon back) or the subscriber resets (horizons are cleared); finding
  /// nothing therefore means the full verify() would find nothing new below
  /// the horizon. End-of-run checks still use verify_all().
  [[nodiscard]] std::vector<std::string> verify_all_incremental();

  // --- metrics ---
  [[nodiscard]] const Summary& e2e_latency() const { return e2e_latency_; }
  [[nodiscard]] const Summary& publish_log_latency() const { return publish_latency_; }
  [[nodiscard]] const RateMeter& delivery_rate() const { return delivery_rate_; }
  [[nodiscard]] const RateMeter& machine_rate(int machine) const;
  [[nodiscard]] std::vector<int> machines() const;

  [[nodiscard]] std::uint64_t published_count() const { return published_count_; }
  [[nodiscard]] std::uint64_t delivered_count() const { return delivered_count_; }
  [[nodiscard]] std::uint64_t catchup_delivered_count() const {
    return catchup_delivered_count_;
  }
  [[nodiscard]] std::uint64_t gap_count() const { return gap_count_; }

  /// Predicates evaluated by the oracle itself (rare paths and the index
  /// cross-check; not the index's own). Verification evaluates none.
  [[nodiscard]] std::uint64_t predicate_evaluations() const { return predicate_evals_; }
  /// Published events whose index-matched subscriber set was compared with
  /// a scan of every registered predicate.
  [[nodiscard]] std::uint64_t index_cross_checks() const { return cross_checks_; }

  /// Published events of one pubend (tick -> event), for custom assertions.
  [[nodiscard]] const std::map<Tick, matching::EventDataPtr>& published(PubendId p) const;

  /// Structured identity of the most recent contract violation: the fatal
  /// on_event / on_gap checks record it just before throwing, and each
  /// verify pass records its *first* finding (the one error messages quote).
  /// The chaos harness feeds this to the flight recorder so the merged trace
  /// dump can focus its milestone checklist on the offending (pubend, tick).
  struct LastViolation {
    bool valid = false;
    SubscriberId subscriber{};
    PubendId pubend{};
    Tick tick = 0;
    std::string what;
  };
  [[nodiscard]] const LastViolation& last_violation() const { return last_violation_; }

 private:
  /// One (subscriber, pubend) stream. Its expected ticks are the matching
  /// published ones (above start_ct once connected); each is owed, delivered
  /// or gapped, and only the owed ones are stored. An expected tick at or
  /// below `delivered_max` that is neither owed nor gapped was delivered.
  struct StreamState {
    std::vector<Tick> owed;  // owed ticks above delivered_max, ascending from head
    std::size_t head = 0;
    IntervalSet passed;  // owed ticks the client moved past (single ticks)
    IntervalSet extra;   // delivered ticks that were never owed (single ticks)
    Tick delivered_max = kTickZero;
    IntervalSet gaps;
    /// Highest live (non-catchup) delivery: the constream position. Gap
    /// notifications must never open at or behind it.
    std::optional<Tick> constream_floor;
    /// Ticks at or below this are already checked by
    /// verify_all_incremental(). Clamped on CT rewind, cleared on reset.
    Tick verified_upto = kTickZero;
  };

  struct SubState {
    const core::DurableSubscriber* client = nullptr;
    matching::PredicatePtr predicate;
    RateMeter* machine_rate = nullptr;  // its client machine's meter
    bool saw_first_connect = false;
    core::CheckpointToken start_ct;  // captured at first successful connect
    /// Indexed by pubend id (ids are small integers); grown on first use.
    std::vector<StreamState> streams;
  };

  /// s's stream for p, created on first use.
  static StreamState& stream(SubState& s, PubendId p);
  SubState& sub_state(SubscriberId s);
  /// Moves st's owed head, dropping the popped prefix once it is half.
  static void set_head(StreamState& st, std::size_t head);
  /// Records a delivery of t that is not the owed head.
  void deliver_rare(SubscriberId s, SubState& state, StreamState& st, PubendId p, Tick t,
                    const matching::EventData& event);
  /// Whether t on p was delivered to s (and not forgotten since).
  [[nodiscard]] bool delivered(const SubState& s, const StreamState& st, PubendId p,
                               Tick t) const;
  /// Owes st every matching published tick of p above `above`.
  void owe_published_above(const SubState& s, StreamState& st, PubendId p, Tick above);
  /// Compares index_'s match for one event with a scan of every predicate.
  void cross_check(PubendId p, Tick t, const matching::EventData& event);

  /// Checks one stream: every owed tick in (lo, hi] is a miss, and every
  /// delivery in (lo, hi] (anywhere, with `all_deliveries`) must be known.
  void verify_stream(SubscriberId s, const SubState& state, PubendId p,
                     const std::map<Tick, matching::EventDataPtr>& events, Tick lo,
                     Tick hi, bool all_deliveries, std::vector<std::string>& out) const;

  /// Records the violation identity (mutable: verification is const).
  void note_violation(SubscriberId s, PubendId p, Tick t, std::string what) const;

  /// One published event in 256 is cross-checked (a fixed, seeded draw):
  /// sparse enough for 5,000 predicates per checked event.
  static constexpr std::uint64_t kCrossCheckEvery = 256;

  std::map<PubendId, std::map<Tick, matching::EventDataPtr>> published_;
  /// (tick, publish() call time), ascending, indexed by pubend id.
  std::vector<std::vector<std::pair<Tick, SimTime>>> publish_times_;
  std::unordered_map<SubscriberId, SubState> subs_;
  std::vector<SubscriberId> sub_order_;  // registered ids, ascending
  std::vector<SubState*> slots_;         // registered subscribers by dense slot
  /// Slots by distinct predicate text; index_ holds each group's predicate
  /// once, with the group's position as its id (a member per subscriber
  /// would cost a 5,000-subscriber herd 0.3 MiB of index).
  std::unordered_map<std::string, std::uint32_t> group_of_;
  std::vector<std::vector<std::uint32_t>> groups_;
  matching::SubscriptionIndex index_;
  std::vector<SubscriberId> matched_;  // index_ match scratch: group ids
  Rng cross_check_rng_{0x6f7261636c65ULL};
  std::map<int, RateMeter> machine_rates_;  // node-stable: SubState caches pointers

  Summary e2e_latency_;      // publish() call -> non-catchup client delivery
  Summary publish_latency_;  // publish() call -> PHB durable ack
  RateMeter delivery_rate_{sec(1)};
  std::uint64_t published_count_ = 0;
  std::uint64_t delivered_count_ = 0;
  std::uint64_t catchup_delivered_count_ = 0;
  std::uint64_t gap_count_ = 0;
  mutable std::uint64_t predicate_evals_ = 0;
  std::uint64_t cross_checks_ = 0;
  mutable LastViolation last_violation_;
};

}  // namespace gryphon::harness
