// Subscriber Hosting Broker (paper §4) — the paper's main contribution.
//
// Per pubend the SHB runs:
//   istream    — knowledge received from upstream plus consolidated
//                curiosity (nacks) for everything its consumers are missing;
//   constream  — ONE consolidated stream for all connected, caught-up
//                subscribers: delivers events in timestamp order, writes the
//                PFS filtering record for every matched tick (for ALL hosted
//                durable subscriptions, connected or not), generates
//                silences, and advances latestDelivered(p) once delivery is
//                enqueued AND the PFS record is durable;
//   catchup streams — one per (reconnecting subscriber, pubend): seeded from
//                PFS batch reads (Q at missed-event ticks, implicit S
//                between), nacked upstream under flow control, serving
//                events from the istream cache when possible, emitting gap
//                messages over L, and discarded at switchover back to the
//                constream.
//
// Durable state (database + log volume): subscription predicates,
// released(s,p), latestDelivered(p), PFS records + metadata, JMS-managed
// CTs. Everything else is rebuilt on restart; missed stream state is
// re-nacked from upstream (the Fig. 7 "constream nacking" phase).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/broker.hpp"
#include "core/pfs.hpp"
#include "matching/parser.hpp"
#include "matching/subscription_index.hpp"
#include "routing/tick_map.hpp"

namespace gryphon::core {

class SubscriberHostingBroker final : public Broker {
 public:
  SubscriberHostingBroker(NodeResources& resources, BrokerConfig config,
                          const std::vector<PubendId>& pubends);

  void set_parent(sim::EndpointId parent) { parent_ = parent; }

  /// First boot: open a fresh PFS, start timers, resume from stream start.
  void start();

  /// Restart after a crash: reload durable state, rebuild the PFS metadata,
  /// re-announce subscriptions, resume from latestDelivered and re-nack the
  /// missed span (paper §5.3).
  void recover();

  // --- observability (sampled by the experiment harness) ---
  [[nodiscard]] Tick latest_delivered(PubendId p) const;
  [[nodiscard]] Tick released(PubendId p) const;
  [[nodiscard]] std::size_t catchup_stream_count() const;
  [[nodiscard]] std::size_t connected_subscribers() const;
  /// Admission control: streams actively catching up / waiting for a slot.
  [[nodiscard]] std::size_t catchup_active_count() const { return catchup_active_; }
  [[nodiscard]] std::size_t catchup_queue_depth() const { return catchup_queued_; }
  [[nodiscard]] PersistentFilteringSubsystem& pfs() { return pfs_; }
  /// Lowest tick still held by the istream cache for pubend p.
  [[nodiscard]] Tick istream_origin(PubendId p) const;
  /// (subscriber, delivered_upto) of every open catchup stream for pubend p,
  /// gathered by walking the whole session table (a test oracle for the
  /// indexed trim low-water mark, not a hot-path accessor).
  [[nodiscard]] std::vector<std::pair<SubscriberId, Tick>> catchup_positions(
      PubendId p) const;

  struct Stats {
    std::uint64_t constream_deliveries = 0;
    std::uint64_t catchup_deliveries = 0;
    std::uint64_t silences_sent = 0;
    std::uint64_t gaps_sent = 0;
    std::uint64_t pfs_records = 0;
    std::uint64_t catchup_completions = 0;
    std::uint64_t nacks_sent_upstream = 0;
    std::uint64_t catchup_events_served_from_istream = 0;
    /// Catchup streams probed while routing stream data, in total and at
    /// most for one message. Only admitted streams await nack responses, so
    /// the peak stays within catchup_admission_limit however many sessions
    /// are hosted or queued.
    std::uint64_t catchup_route_visits = 0;
    std::uint64_t catchup_route_visits_peak = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Fired when a subscriber leaves catchup mode for all pubends:
  /// (subscriber, reconnect time, completion time).
  std::function<void(SubscriberId, SimTime, SimTime)> on_catchup_complete;

 protected:
  void handle(sim::EndpointId from, const Msg& msg) override;
  [[nodiscard]] SimDuration cost_of(const Msg& msg) const override;

 private:
  // ---- per-(subscriber, pubend) catchup stream ----
  struct CatchupStream {
    explicit CatchupStream(Tick base)
        : map(base), delivered_upto(base), pfs_read_from(base), last_silence(base) {}

    routing::TickMap map;          // per-subscriber knowledge (from PFS + net)
    Tick delivered_upto;           // events delivered in order up to here
    IntervalSet outstanding;       // nacked (or istream-pending) Q ticks
    std::deque<Tick> unnacked_q;   // PFS-reported Q ticks awaiting the window
    Tick pfs_read_from;            // next PFS read position
    bool pfs_read_inflight = false;
    Tick last_silence;             // throttle catchup silence messages
    bool repump_scheduled = false;
    // Reconnect-anywhere (paper §1 feature 5): this SHB has no PFS history
    // for the subscriber (it migrated here), so instead of PFS batch reads
    // the stream *refilters* — it scans forward through the istream cache
    // and nacks the uncached remainder, evaluating the predicate on every
    // event that comes back. Strictly a performance difference; the
    // delivery contract is identical.
    bool refilter = false;
    Tick scan_cursor = 0;  // refiltering has covered (base, scan_cursor]
    /// Below this tick the istream's silence is not trustworthy for this
    /// subscriber (it predates the subscription reaching the pubend's
    /// filter): refiltering must ask upstream instead.
    Tick distrust_upto = kTickZero;
    /// Admission control (reconnect herds): a stream is inert — no PFS
    /// reads, no upstream nacks, no deliveries — until it holds one of the
    /// catchup_admission_limit active slots.
    bool admitted = true;
    /// Nack-retry backoff: consecutive unanswered retries / generation
    /// counter bumped on any response progress (resets the backoff).
    std::uint32_t nack_attempt = 0;
    std::uint64_t nack_progress = 0;
    bool nack_retry_scheduled = false;
  };

  struct SubscriberState {
    SubscriberId id{};
    std::string predicate_text;
    matching::PredicatePtr predicate;
    bool jms_auto_ack = false;
    bool connected = false;
    std::uint64_t session = 0;  // bumped per (dis)connect; stale sends drop
    sim::EndpointId client = 0;
    SimTime reconnect_time = 0;
    SimTime last_delivery = 0;
    // Client flow control (one bucket per subscriber, shared by all of its
    // catchup streams): refilled at catchup_rate_limit_eps.
    double catchup_tokens = 0.0;
    SimTime catchup_refill = 0;
    std::map<PubendId, Tick> released;       // released(s,p)
    std::map<PubendId, Tick> suppress_upto;  // constream join points
    std::map<PubendId, Tick> silence_sent_upto;
    std::map<PubendId, std::unique_ptr<CatchupStream>> catchup;
    // JMS auto-acknowledge: per-subscriber delivery gate + queue.
    std::deque<std::pair<PubendId, std::shared_ptr<const EventDeliveryMsg>>> jms_queue;
    bool jms_commit_inflight = false;
  };

  /// A multiset of ticks kept as tick -> count: O(log n) add/remove and an
  /// O(1) minimum, so a low-water mark over many streams or sessions is
  /// maintained at each write instead of rescanned at each read.
  class TickCounts {
   public:
    void add(Tick t) {
      ++counts_[t];
      ++size_;
    }
    void remove(Tick t) {
      auto it = counts_.find(t);
      GRYPHON_CHECK(it != counts_.end());
      if (--it->second == 0) counts_.erase(it);
      --size_;
    }
    void move(Tick from, Tick to) {
      remove(from);
      add(to);
    }
    /// Smallest member, or `empty_value` when there is none.
    [[nodiscard]] Tick min_or(Tick empty_value) const {
      return counts_.empty() ? empty_value : counts_.begin()->first;
    }
    [[nodiscard]] std::size_t size() const { return size_; }

   private:
    std::map<Tick, std::size_t> counts_;
    std::size_t size_ = 0;
  };

  /// Per-pubend state. Everything the SHB does per stream-data message or
  /// per ack is proportional to the streams involved (DESIGN.md §4.6): the
  /// three indexes below stand in for scans of the catching-up or hosted
  /// population.
  struct PerPubend {
    PubendId id{};
    routing::TickMap istream{kTickZero};
    IntervalSet upstream_pending;  // consolidated outstanding nacks
    Tick processed_upto = kTickZero;    // constream has matched/PFS'd/enqueued
    Tick latest_delivered = kTickZero;  // min(processed, PFS-durable); persisted
    std::deque<Tick> pending_pfs;       // PFS'd ticks awaiting durability
    /// delivered_upto of every open catchup stream: the istream trim's
    /// low-water mark, and (by size) the open stream count.
    TickCounts catchup_delivered;
    /// Subscribers whose stream may have outstanding nacks: a superset of
    /// the streams with a non-empty `outstanding`, joined wherever ticks are
    /// added to it and pruned when a routing visit finds none left.
    /// Knowledge routing walks only these.
    std::set<SubscriberId> awaiting;
    /// released(s,p) of every hosted subscription; released(p) is its
    /// minimum capped at latest_delivered.
    TickCounts released;
    /// Istream nack-retry backoff (mirrors CatchupStream's trio).
    std::uint32_t nack_attempt = 0;
    std::uint64_t nack_progress = 0;
    bool nack_retry_scheduled = false;
    /// Registry slot mirroring latest_delivered (figure benches plot it
    /// directly from the node registry); resolved at broker construction.
    MetricsRegistry::Gauge* g_latest_delivered = nullptr;
  };

  PerPubend& per(PubendId p);
  [[nodiscard]] const PerPubend& per(PubendId p) const;
  SubscriberState& sub(SubscriberId s);
  /// Shard-local lookup; nullptr when the subscriber is not hosted here.
  SubscriberState* try_sub(SubscriberId s);
  std::map<SubscriberId, SubscriberState>& shard_map(SubscriberId s);
  /// Visits every hosted subscription, shard by shard (id order within a
  /// shard; identical to the old flat-map order when pfs_shards == 1).
  template <typename F>
  void for_each_sub(F&& f) {
    for (auto& shard : sub_shards_) {
      for (auto& [sid, s] : shard) f(s);
    }
  }
  /// Moves released(s,p) forward to t (no-op unless t is newer), keeping
  /// the pubend's released index exact. Returns whether it moved.
  bool raise_released(SubscriberState& s, PubendId p, Tick t);

  // message handlers
  void on_stream_data(const StreamDataMsg& msg);
  void on_connect(sim::EndpointId from, const ConnectMsg& msg);
  void on_disconnect(const DisconnectMsg& msg);
  void on_ack(const AckMsg& msg);
  void on_unsubscribe_req(const UnsubscribeReqMsg& msg);
  void on_jms_consumed(const JmsConsumedMsg& msg);

  // constream machinery
  void advance_constream(PubendId p);
  void update_latest_delivered(PerPubend& state);
  void request_pfs_sync();
  void deliver_to_subscriber(SubscriberState& s, PubendId p, Tick tick,
                             matching::EventDataPtr event, bool catchup);
  void pump_jms(SubscriberState& s);

  // Creation handshake: a new subscription's session starts only once its
  // durable rows are committed AND the pubend has acknowledged applying the
  // subscription filter (closing the propagation window).
  struct PendingSetup {
    sim::EndpointId from = 0;
    CheckpointToken ct;
    bool migration = false;
    bool db_done = false;
    bool ack_done = false;
    std::map<PubendId, Tick> ack_heads;
    std::uint32_t announce_attempt = 0;
    bool announce_retry_scheduled = false;
  };
  void maybe_finish_setup(SubscriberId sid);

  // catchup machinery
  void create_or_resume_session(SubscriberState& s, sim::EndpointId from,
                                const CheckpointToken& ct, bool send_initial_ct,
                                bool refilter_catchup = false,
                                const std::map<PubendId, Tick>* distrust = nullptr);
  /// Adds ticks to a stream's outstanding nacks (and the stream to the
  /// pubend's awaiting set).
  void add_outstanding(SubscriberState& s, CatchupStream& cs, PubendId p,
                       const TickRange& r);
  void issue_pfs_read(SubscriberState& s, PubendId p);
  void pump_catchup_nacks(SubscriberState& s, PubendId p);
  /// Fills [from, to] of the catchup map from the istream cache; returns the
  /// sub-ranges the cache could not cover (to be nacked upstream).
  std::vector<TickRange> fill_catchup_from_istream(SubscriberState& s,
                                                   CatchupStream& cs, PerPubend& state,
                                                   Tick from, Tick to,
                                                   Tick distrust_upto = kTickZero);
  /// Sends a consolidated upstream nack for the given ranges (skipping
  /// anything already outstanding at the istream level).
  void consolidate_nack(PubendId p, PerPubend& state,
                        const std::vector<TickRange>& ranges);
  void advance_catchup(SubscriberState& s, PubendId p);
  void route_to_catchup_streams(PubendId p, const std::vector<routing::KnowledgeItem>& items);
  void maybe_switchover(SubscriberState& s, PubendId p);
  void check_all_caught_up(SubscriberState& s);

  // catchup admission control (reconnect-herd degradation)
  void admit_or_queue_catchup(SubscriberState& s, PubendId p);
  void activate_catchup(SubscriberState& s, PubendId p);
  void release_catchup_slot(CatchupStream& cs);
  /// Frees the admission slots and index entries of all of s's streams.
  void release_all_catchup(SubscriberState& s);
  void drain_admission_queue();

  // seeded deterministic jittered exponential nack-retry backoff
  [[nodiscard]] SimDuration nack_backoff_delay(std::uint64_t salt,
                                               std::uint32_t attempt) const;
  void schedule_catchup_nack_retry(SubscriberState& s, PubendId p);
  void schedule_istream_nack_retry(PubendId p);
  void schedule_setup_retry(SubscriberId sid);

  // curiosity (istream nacking) + release + persistence timers
  void start_timers();
  void nack_istream_gaps();
  void send_release_updates();
  void commit_dirty_state();
  void silence_sweep();

  sim::EndpointId parent_ = 0;
  std::vector<PubendId> pubend_ids_;
  std::map<PubendId, PerPubend> pubends_;
  /// Session table, sharded by subscriber-id hash (core/sharding.hpp); one
  /// shard with pfs_shards == 1, bit-identical with the old flat map.
  std::vector<std::map<SubscriberId, SubscriberState>> sub_shards_;
  /// Connected subscribers, id-ordered: the silence sweep walks only live
  /// sessions instead of the whole durable population.
  std::set<SubscriberId> connected_;
  matching::SubscriptionIndex hosted_;  // all durable subscriptions (for PFS)
  std::vector<SubscriberId> match_scratch_;  // constream match() reuse buffer
  PersistentFilteringSubsystem pfs_;
  std::size_t pfs_unsynced_ = 0;
  bool pfs_sync_scheduled_ = false;
  std::map<PubendId, Tick> committed_ld_;  // last DB-committed latestDelivered
  std::set<std::pair<SubscriberId, PubendId>> dirty_released_;
  std::map<SubscriberId, PendingSetup> pending_setups_;
  Stats stats_;

  // Catchup admission control: bounded active streams + FIFO pending queue.
  // Queue entries are validated lazily against (subscriber, session) — a
  // disconnect or re-resume simply strands its old entry, which is skipped.
  struct QueuedAdmission {
    SubscriberId sid{};
    PubendId p{};
    std::uint64_t session = 0;
  };
  std::size_t catchup_active_ = 0;
  std::size_t catchup_queued_ = 0;  // streams currently in admitted == false
  std::deque<QueuedAdmission> admission_queue_;
  bool admission_draining_ = false;

  // Registry slots, resolved once at construction; probes are broker-owned
  // (RAII-removed on crash) while the cumulative slots persist in the node.
  MetricsRegistry::Counter* m_matched_;
  MetricsRegistry::Counter* m_constream_deliveries_;
  MetricsRegistry::Counter* m_catchup_deliveries_;
  MetricsRegistry::Counter* m_silences_;
  MetricsRegistry::Counter* m_gaps_;
  MetricsRegistry::Counter* m_catchup_opened_;
  MetricsRegistry::Counter* m_catchup_closed_;
  MetricsRegistry::Counter* m_switchovers_;
  MetricsRegistry::Counter* m_catchup_completions_;
  MetricsRegistry::Counter* m_nacks_upstream_;
  MetricsRegistry::Counter* m_catchup_istream_serves_;
  MetricsRegistry::Counter* m_catchup_admitted_;
  MetricsRegistry::Counter* m_catchup_queued_;
  Histogram* m_pfs_read_records_;
  std::vector<MetricsRegistry::Probe> probes_;
};

}  // namespace gryphon::core
