#include "core/shb.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/sharding.hpp"
#include "util/byte_buffer.hpp"
#include "util/logging.hpp"

namespace gryphon::core {

namespace {

constexpr const char* kSubsTable = "shb_subs";
constexpr const char* kReleasedTable = "shb_released";
constexpr const char* kLdTable = "shb_ld";

std::string rel_key(SubscriberId s, PubendId p) {
  return std::to_string(s.value()) + ':' + std::to_string(p.value());
}

std::vector<std::byte> encode_i64(std::int64_t v) {
  BufWriter w;
  w.put_i64(v);
  return w.take();
}

std::int64_t decode_i64(const std::vector<std::byte>& bytes) {
  BufReader r(bytes);
  return r.get_i64();
}

std::vector<std::byte> encode_sub_row(bool jms, const std::string& predicate) {
  BufWriter w;
  w.put_u8(jms ? 1 : 0);
  w.put_string(predicate);
  return w.take();
}

}  // namespace

SubscriberHostingBroker::SubscriberHostingBroker(NodeResources& resources,
                                                 BrokerConfig config,
                                                 const std::vector<PubendId>& pubends)
    : Broker(resources, config),
      pubend_ids_(pubends),
      slots_(pubends),
      pfs_(resources, config_.costs, std::max<std::size_t>(1, config_.pfs_shards)) {
  GRYPHON_CHECK_MSG(slots_.size() == pubend_ids_.size(), "duplicate pubend id");
  auto& m = res_.metrics;
  pubends_.resize(slots_.size());
  for (std::size_t k = 0; k < slots_.size(); ++k) {
    PerPubend& state = pubends_[k];
    state.id = slots_.id(k);
    state.g_latest_delivered =
        m.gauge("shb.p" + std::to_string(state.id.value()) + ".latest_delivered");
  }
  m_matched_ = m.counter("shb.matched");
  m_constream_deliveries_ = m.counter("shb.constream_deliveries");
  m_catchup_deliveries_ = m.counter("shb.catchup_deliveries");
  m_silences_ = m.counter("shb.silences_sent");
  m_gaps_ = m.counter("shb.gaps_sent");
  m_catchup_opened_ = m.counter("shb.catchup_streams_opened");
  m_catchup_closed_ = m.counter("shb.catchup_streams_closed");
  m_switchovers_ = m.counter("shb.switchovers");
  m_catchup_completions_ = m.counter("shb.catchup_completions");
  m_nacks_upstream_ = m.counter("shb.nacks_sent_upstream");
  m_catchup_istream_serves_ = m.counter("shb.catchup_events_served_from_istream");
  m_catchup_admitted_ = m.counter("shb.catchup_admitted");
  m_catchup_queued_ = m.counter("shb.catchup_queued");
  m_pfs_read_records_ = m.histogram("shb.pfs_read_records", 1.0, 1e6);
  // Snapshot-time probes over stream positions (pubends_ is never resized).
  for (PerPubend& state : pubends_) {
    const std::string prefix = "shb.p" + std::to_string(state.id.value()) + ".";
    PerPubend* raw = &state;
    probes_.push_back(m.probe(prefix + "processed_upto", [raw] {
      return static_cast<double>(raw->processed_upto);
    }));
    probes_.push_back(m.probe(prefix + "doubt_span", [raw] {
      return static_cast<double>(raw->istream.head() - raw->processed_upto);
    }));
    probes_.push_back(m.probe(prefix + "istream_events", [raw] {
      return static_cast<double>(raw->istream.retained_events());
    }));
  }
  probes_.push_back(m.probe("shb.catchup_streams", [this] {
    return static_cast<double>(catchup_stream_count());
  }));
  probes_.push_back(m.probe("shb.catchup_active", [this] {
    return static_cast<double>(catchup_active_);
  }));
  probes_.push_back(m.probe("shb.catchup_queue_depth", [this] {
    return static_cast<double>(catchup_queued_);
  }));
  probes_.push_back(m.probe("shb.connected_subscribers", [this] {
    return static_cast<double>(connected_subscribers());
  }));
  // Covering-index health (DESIGN.md §4.8): hosted population, how far the
  // subsumption grouping compresses it, and the cumulative number of
  // predicate evaluations the matcher actually performed.
  probes_.push_back(m.probe("matching.subscriptions", [this] {
    return static_cast<double>(hosted_.size());
  }));
  probes_.push_back(m.probe("matching.covering_groups", [this] {
    return static_cast<double>(hosted_.group_count());
  }));
  probes_.push_back(m.probe("matching.match_candidates", [this] {
    return static_cast<double>(hosted_.candidates_evaluated());
  }));
}

SubscriberHostingBroker::SubscriberState* SubscriberHostingBroker::try_sub(SubscriberId s) {
  auto it = subs_.find(s);
  return it == subs_.end() ? nullptr : &it->second;
}

std::size_t SubscriberHostingBroker::open_catchups(const SubscriberState& s) {
  return static_cast<std::size_t>(
      std::count_if(s.per_pubend.begin(), s.per_pubend.end(),
                    [](const SubscriberPubend& e) { return e.catchup != nullptr; }));
}

SubscriberHostingBroker::SubscriberState& SubscriberHostingBroker::sub(SubscriberId s) {
  SubscriberState* found = try_sub(s);
  GRYPHON_CHECK_MSG(found != nullptr, "unknown subscriber " << s);
  return *found;
}

bool SubscriberHostingBroker::raise_released(SubscriberState& s, PubendId p, Tick t) {
  Tick& released = entry(s, p).released;
  if (t <= released) return false;
  per(p).released.move(released, t);
  released = t;
  return true;
}

// --------------------------------------------------------------- lifecycle

void SubscriberHostingBroker::start() {
  pfs_.open(pubend_ids_);

  std::vector<std::pair<PubendId, Tick>> resume;
  resume.reserve(pubend_ids_.size());
  for (PubendId p : pubend_ids_) resume.emplace_back(p, kTickZero);
  send(parent_, std::make_shared<BrokerResumeMsg>(std::move(resume)));

  start_timers();
}

void SubscriberHostingBroker::recover() {
  pfs_.open(pubend_ids_);  // loads + repairs PFS metadata from the log

  // latestDelivered(p): the constream resumes from here (paper §4.1).
  for (PerPubend& state : pubends_) {
    if (auto v = res_.database.get(kLdTable, std::to_string(state.id.value()))) {
      state.latest_delivered = decode_i64(*v);
    }
    state.g_latest_delivered->set(static_cast<double>(state.latest_delivered));
    state.processed_upto = state.latest_delivered;
    state.istream = routing::TickMap(state.latest_delivered);
    state.committed_ld = state.latest_delivered;
  }

  // Durable subscriptions + released(s,p).
  for (const auto& [key, value] : res_.database.scan(kSubsTable)) {
    SubscriberState s;
    s.id = SubscriberId{static_cast<std::uint32_t>(std::stoul(key))};
    BufReader r(value);
    s.jms_auto_ack = r.get_u8() != 0;
    s.predicate_text = r.get_string();
    s.predicate = matching::parse_predicate(s.predicate_text);
    s.per_pubend.resize(slots_.size());
    hosted_.add(s.id, s.predicate);
    subs_.emplace(s.id, std::move(s));
  }
  for (const auto& [key, value] : res_.database.scan(kReleasedTable)) {
    const auto colon = key.find(':');
    GRYPHON_CHECK(colon != std::string::npos);
    const SubscriberId sid{static_cast<std::uint32_t>(std::stoul(key.substr(0, colon)))};
    const PubendId p{static_cast<std::uint32_t>(std::stoul(key.substr(colon + 1)))};
    SubscriberState* found = try_sub(sid);
    if (found == nullptr) continue;
    entry(*found, p).released = decode_i64(value);
  }
  for (const auto& [sid, s] : subs_) {
    for (std::size_t k = 0; k < slots_.size(); ++k) {
      pubends_[k].released.add(s.per_pubend[k].released);
    }
  }

  // Re-announce subscriptions upstream (idempotent) and resume the streams
  // from latestDelivered — everything after it is re-nacked (Fig. 7).
  for_each_sub([this](const SubscriberState& s) {
    send(parent_, std::make_shared<SubscribeMsg>(s.id, s.predicate_text));
  });
  std::vector<std::pair<PubendId, Tick>> resume;
  resume.reserve(pubend_ids_.size());
  for (PubendId p : pubend_ids_) resume.emplace_back(p, per(p).latest_delivered);
  send(parent_, std::make_shared<BrokerResumeMsg>(std::move(resume)));

  start_timers();
}

void SubscriberHostingBroker::start_timers() {
  every(config_.costs.nack_timeout, [this] { nack_istream_gaps(); });
  // There is deliberately no fixed-period nack retransmission timer here:
  // unanswered curiosity is re-sent by the per-stream exponential backoff
  // (schedule_*_retry), so a severed upstream is probed ever more gently
  // instead of being hammered by every straggler at the same frequency.
  every(config_.costs.release_update_interval, [this] { send_release_updates(); });
  every(config_.costs.db_commit_interval, [this] { commit_dirty_state(); });
  every(config_.costs.subscriber_silence_after, [this] { silence_sweep(); });
  every(config_.costs.pfs_sync_interval, [this] {
    if (pfs_unsynced_ > 0) request_pfs_sync();
  });
}

// ------------------------------------------------------------ observability

Tick SubscriberHostingBroker::latest_delivered(PubendId p) const {
  return per(p).latest_delivered;
}

Tick SubscriberHostingBroker::released(PubendId p) const {
  const PerPubend& state = per(p);
  return std::min(state.latest_delivered, state.released.min_or(kTickInfinity));
}

std::size_t SubscriberHostingBroker::catchup_stream_count() const {
  std::size_t n = 0;
  for (const PerPubend& state : pubends_) n += state.catchup_delivered.size();
  return n;
}

std::size_t SubscriberHostingBroker::connected_subscribers() const {
  return connected_.size();
}

Tick SubscriberHostingBroker::istream_origin(PubendId p) const {
  return per(p).istream.origin();
}

std::vector<std::pair<SubscriberId, Tick>> SubscriberHostingBroker::catchup_positions(
    PubendId p) const {
  std::vector<std::pair<SubscriberId, Tick>> out;
  const std::size_t k = slots_.at(p);
  for_each_sub([&](const SubscriberState& s) {
    if (const CatchupStream* cs = s.per_pubend[k].catchup.get(); cs != nullptr) {
      out.emplace_back(s.id, cs->delivered_upto);
    }
  });
  return out;
}

// ----------------------------------------------------------------- dispatch

SimDuration SubscriberHostingBroker::cost_of(const Msg& msg) const {
  const auto& costs = config_.costs;
  switch (msg.kind()) {
    case MsgKind::kStreamData: {
      const auto& m = static_cast<const StreamDataMsg&>(msg);
      std::size_t n_data = 0;
      for (const auto& item : m.items) {
        if (item.value == routing::TickValue::kD) ++n_data;
      }
      return costs.control_process +
             static_cast<SimDuration>(n_data) * costs.shb_event_process;
    }
    default:
      return costs.control_process;
  }
}

void SubscriberHostingBroker::handle(sim::EndpointId from, const Msg& msg) {
  switch (msg.kind()) {
    case MsgKind::kStreamData:
      on_stream_data(static_cast<const StreamDataMsg&>(msg));
      break;
    case MsgKind::kConnect:
      on_connect(from, static_cast<const ConnectMsg&>(msg));
      break;
    case MsgKind::kDisconnect:
      on_disconnect(static_cast<const DisconnectMsg&>(msg));
      break;
    case MsgKind::kAck:
      on_ack(static_cast<const AckMsg&>(msg));
      break;
    case MsgKind::kUnsubscribeReq:
      on_unsubscribe_req(static_cast<const UnsubscribeReqMsg&>(msg));
      break;
    case MsgKind::kJmsConsumed:
      on_jms_consumed(static_cast<const JmsConsumedMsg&>(msg));
      break;
    case MsgKind::kSubscribeAck: {
      const auto& m = static_cast<const SubscribeAckMsg&>(msg);
      auto pit = pending_setups_.find(m.subscriber);
      if (pit == pending_setups_.end()) return;  // recovery re-announce etc.
      for (const auto& [p, head] : m.heads) pit->second.ack_heads[p] = head;
      pit->second.ack_done = true;
      maybe_finish_setup(m.subscriber);
      break;
    }
    default:
      GRYPHON_CHECK_MSG(false, "SHB cannot handle message kind "
                                   << static_cast<int>(msg.kind()));
  }
}

// ---------------------------------------------------------------- constream

void SubscriberHostingBroker::on_stream_data(const StreamDataMsg& msg) {
  PerPubend& state = per(msg.pubend);
  const Tick pending_before = state.upstream_pending.total_length();
  for (const auto& item : msg.items) {
    state.istream.apply(item);
    state.upstream_pending.subtract(item.range);
  }
  if (state.upstream_pending.total_length() < pending_before) {
    // Upstream answered some curiosity: the retry backoff restarts.
    ++state.nack_progress;
    state.nack_attempt = 0;
  }
  advance_constream(msg.pubend);
  route_to_catchup_streams(msg.pubend, msg.items);
}

void SubscriberHostingBroker::advance_constream(PubendId p) {
  const std::size_t slot = slots_.at(p);
  PerPubend& state = pubends_[slot];
  const Tick dh = state.istream.doubt_horizon(state.processed_upto);
  if (dh <= state.processed_upto) return;

  struct PendingSend {
    SubscriberId sid;
    std::uint64_t session;
    Tick tick;
    matching::EventDataPtr event;
    bool jms;
  };
  std::vector<PendingSend> sends;
  std::size_t direct_sends = 0;

  state.istream.for_each_data(
      state.processed_upto + 1, dh,
      [&](Tick t, const matching::EventDataPtr& event) {
        // Reuses the broker-owned scratch vector: the constream match is the
        // hottest allocation site at scale, and the result is consumed before
        // the next callback fires.
        hosted_.match_into(*event, match_scratch_);
        const auto& matches = match_scratch_;
        if (!matches.empty()) {
          m_matched_->inc();
          res_.tracer.record(now(), p.value(), t, TraceMilestone::kMatch);
        }
        if (!matches.empty() && t > pfs_.last_accepted(p)) {
          pfs_.append(p, t, matches);
          state.pending_pfs.push_back(t);
          ++pfs_unsynced_;
          ++stats_.pfs_records;
        }
        for (SubscriberId sid : matches) {
          SubscriberState& s = sub(sid);
          if (!s.connected) continue;
          const SubscriberPubend& e = s.per_pubend[slot];
          if (e.catchup != nullptr) continue;
          if (e.suppress_upto && t <= *e.suppress_upto) continue;
          sends.push_back({sid, s.session, t, event, s.jms_auto_ack});
          if (!s.jms_auto_ack) ++direct_sends;
        }
      });
  state.processed_upto = dh;

  if (!sends.empty()) {
    // JMS sends are queued here but pay their delivery CPU at the gated
    // send in pump_jms(), not at enqueue.
    const auto cost = static_cast<SimDuration>(direct_sends) *
                      config_.costs.per_delivery;
    cpu_then(cost, [this, p, sends = std::move(sends)] {
      for (const auto& d : sends) {
        SubscriberState* found = try_sub(d.sid);
        if (found == nullptr) continue;
        SubscriberState& s = *found;
        if (!s.connected || s.session != d.session) continue;
        deliver_to_subscriber(s, p, d.tick, d.event, /*catchup=*/false);
        ++stats_.constream_deliveries;
      }
    });
  }

  if (pfs_unsynced_ >= config_.costs.pfs_sync_every_records) request_pfs_sync();
  update_latest_delivered(state);

  // Trim the istream cache: nothing below what every consumer has passed is
  // needed for ordering, and only cache_span_ticks of history is kept for
  // serving catchup locally.
  const Tick min_keep =
      std::min(state.processed_upto, state.catchup_delivered.min_or(kTickInfinity));
  const Tick evict =
      std::min(min_keep, state.processed_upto - config_.costs.cache_span_ticks);
  if (evict > state.istream.origin()) state.istream.discard_upto(evict);
}

void SubscriberHostingBroker::update_latest_delivered(PerPubend& state) {
  const Tick ld = state.pending_pfs.empty()
                      ? state.processed_upto
                      : std::min(state.processed_upto, state.pending_pfs.front() - 1);
  if (ld > state.latest_delivered) {
    state.latest_delivered = ld;
    state.g_latest_delivered->set(static_cast<double>(ld));
  }
}

void SubscriberHostingBroker::request_pfs_sync() {
  if (pfs_sync_scheduled_) return;
  pfs_sync_scheduled_ = true;
  pfs_unsynced_ = 0;
  pfs_.sync(guarded([this] {
    pfs_sync_scheduled_ = false;
    for (PerPubend& state : pubends_) {
      const Tick durable = pfs_.durable_timestamp(state.id);
      while (!state.pending_pfs.empty() && state.pending_pfs.front() <= durable) {
        state.pending_pfs.pop_front();
      }
      update_latest_delivered(state);
    }
    if (pfs_unsynced_ >= config_.costs.pfs_sync_every_records) request_pfs_sync();
  }));
}

void SubscriberHostingBroker::deliver_to_subscriber(SubscriberState& s, PubendId p,
                                                    Tick tick,
                                                    matching::EventDataPtr event,
                                                    bool catchup) {
  auto msg = std::make_shared<EventDeliveryMsg>(s.id, p, tick, std::move(event), catchup);
  s.last_delivery = now();
  entry(s, p).silence_sent_upto = tick;
  (catchup ? m_catchup_deliveries_ : m_constream_deliveries_)->inc();
  res_.tracer.record(now(), p.value(), tick,
                     catchup ? TraceMilestone::kDeliverCatchup
                             : TraceMilestone::kDeliverConstream,
                     s.id.value());
  if (s.jms_auto_ack) {
    s.jms_queue.emplace_back(p, std::move(msg));
    pump_jms(s);
    return;
  }
  send(s.client, std::move(msg));
}

void SubscriberHostingBroker::pump_jms(SubscriberState& s) {
  if (!s.connected || s.jms_commit_inflight || s.jms_queue.empty()) return;
  s.jms_commit_inflight = true;  // covers send -> consume -> CT commit
  cpu_then(config_.costs.per_delivery,
           [this, sid = s.id, session = s.session] {
             SubscriberState* found = try_sub(sid);
             if (found == nullptr) return;
             SubscriberState& s2 = *found;
             if (!s2.connected || s2.session != session || s2.jms_queue.empty()) return;
             send(s2.client, s2.jms_queue.front().second);
           });
}

void SubscriberHostingBroker::on_jms_consumed(const JmsConsumedMsg& msg) {
  SubscriberState* found = try_sub(msg.subscriber);
  if (found == nullptr) return;
  SubscriberState& s = *found;
  if (s.jms_queue.empty()) return;  // stale ack from a previous session
  const auto& [p, front] = s.jms_queue.front();
  if (front->pubend != msg.pubend || front->tick != msg.tick) return;  // stale

  // JMS auto-acknowledge: the CT update is committed per consumed event,
  // batched with other subscribers assigned to the same JDBC connection.
  const int conn = static_cast<int>(msg.subscriber.value()) %
                   res_.database.connections();
  const std::uint64_t session = s.session;
  res_.database.commit(
      conn,
      {{kReleasedTable, rel_key(msg.subscriber, msg.pubend), encode_i64(msg.tick)}},
      guarded([this, sid = msg.subscriber, p = msg.pubend, t = msg.tick, session] {
        SubscriberState* found2 = try_sub(sid);
        if (found2 == nullptr) return;
        SubscriberState& s2 = *found2;
        raise_released(s2, p, t);
        if (s2.session != session) return;  // reconnected meanwhile
        GRYPHON_CHECK(!s2.jms_queue.empty());
        s2.jms_queue.pop_front();
        s2.jms_commit_inflight = false;
        pump_jms(s2);
      }));
}

// ------------------------------------------------------------------ clients

void SubscriberHostingBroker::on_connect(sim::EndpointId from, const ConnectMsg& msg) {
  SubscriberState* found = try_sub(msg.subscriber);
  if (found == nullptr) {
    GRYPHON_CHECK_MSG(!msg.predicate_text.empty(),
                      "cannot create subscription " << msg.subscriber
                                                    << " without a predicate");
    // A non-first connect for a subscription this broker does not host is a
    // reconnect-anywhere migration: honor the presented CT, and recover the
    // missed span by refiltering (there is no PFS history here).
    const bool migration = !msg.first_connect && !msg.ct.empty();

    SubscriberState s;
    s.id = msg.subscriber;
    s.predicate_text = msg.predicate_text;
    s.predicate = matching::parse_predicate(msg.predicate_text);
    s.jms_auto_ack = msg.jms_auto_ack;
    // A brand-new subscriber starts at the constream's delivery position
    // (the paper's latestDelivered): born non-catchup, owing nothing older
    // than its creation. A migrated one starts at its CT.
    s.per_pubend.resize(slots_.size());
    for (PubendId p : pubend_ids_) {
      const Tick released = migration ? msg.ct.of(p) : per(p).processed_upto;
      entry(s, p).released = released;
      per(p).released.add(released);
    }
    hosted_.add(s.id, s.predicate);
    SubscriberState& stored = subs_.emplace(s.id, std::move(s)).first->second;
    send(parent_, std::make_shared<SubscribeMsg>(msg.subscriber, msg.predicate_text));

    // The subscription must be durable before the client is told it exists.
    std::vector<storage::Database::Put> puts;
    puts.push_back({kSubsTable, std::to_string(msg.subscriber.value()),
                    encode_sub_row(msg.jms_auto_ack, msg.predicate_text)});
    for (PubendId p : pubend_ids_) {
      puts.push_back({kReleasedTable, rel_key(msg.subscriber, p),
                      encode_i64(entry(stored, p).released)});
    }
    // The session starts only when both the durable rows are committed and
    // the pubend acknowledged the subscription filter (maybe_finish_setup).
    PendingSetup pending;
    pending.from = from;
    pending.ct = msg.ct;
    pending.migration = migration;
    pending_setups_[msg.subscriber] = std::move(pending);
    schedule_setup_retry(msg.subscriber);

    res_.database.commit(0, std::move(puts), guarded([this, sid = msg.subscriber] {
                           auto it2 = pending_setups_.find(sid);
                           if (it2 == pending_setups_.end()) return;
                           it2->second.db_done = true;
                           maybe_finish_setup(sid);
                         }));
    return;
  }

  if (auto pit = pending_setups_.find(msg.subscriber); pit != pending_setups_.end()) {
    // Client retry while the creation handshake is in flight: refresh the
    // reply address; the session starts when the handshake completes.
    pit->second.from = from;
    return;
  }

  SubscriberState& s = *found;
  CheckpointToken ct;
  if (msg.first_connect || msg.use_stored_ct) {
    // Duplicate first-connect (lost ConnectedMsg) or JMS-style SHB-held CT.
    for (PubendId p : pubend_ids_) ct.set(p, entry(s, p).released);
  } else {
    ct = msg.ct;
  }
  create_or_resume_session(s, from, ct, msg.first_connect || msg.use_stored_ct);
}

void SubscriberHostingBroker::maybe_finish_setup(SubscriberId sid) {
  auto pit = pending_setups_.find(sid);
  if (pit == pending_setups_.end()) return;
  PendingSetup& pending = pit->second;
  if (!pending.db_done || !pending.ack_done) return;

  SubscriberState* found = try_sub(sid);
  if (found == nullptr) {  // unsubscribed while the handshake was in flight
    pending_setups_.erase(pit);
    return;
  }

  CheckpointToken ct;
  std::map<PubendId, Tick> distrust;
  if (pending.migration) {
    // Resume from the presented CT; istream silence below the pubend's
    // subscription-application head is untrustworthy for this subscriber.
    ct = pending.ct;
    distrust = pending.ack_heads;
  } else {
    // A brand-new subscriber owes nothing before its subscription was live
    // everywhere: the later of the constream position and the pubend's
    // application boundary.
    for (PubendId p : pubend_ids_) {
      const auto head_it = pending.ack_heads.find(p);
      const Tick head = head_it == pending.ack_heads.end() ? kTickZero : head_it->second;
      ct.set(p, std::max(per(p).processed_upto, head));
    }
  }
  const sim::EndpointId from = pending.from;
  const bool migration = pending.migration;
  pending_setups_.erase(pit);
  create_or_resume_session(*found, from, ct, /*send_initial_ct=*/!migration,
                           /*refilter_catchup=*/migration,
                           migration ? &distrust : nullptr);
}

void SubscriberHostingBroker::create_or_resume_session(SubscriberState& s,
                                                       sim::EndpointId from,
                                                       const CheckpointToken& ct,
                                                       bool send_initial_ct,
                                                       bool refilter_catchup,
                                                       const std::map<PubendId, Tick>* distrust) {
  GRYPHON_LOG(kInfo, res_.name,
              "subscriber " << s.id << " session starts"
                            << (refilter_catchup ? " (migrated: refiltering)" : ""));
  s.connected = true;
  connected_.insert(s.id);
  ++s.session;
  s.client = from;
  s.reconnect_time = now();
  s.jms_queue.clear();
  s.jms_commit_inflight = false;
  release_all_catchup(s);
  s.catchup_tokens = 0.0;
  s.catchup_refill = now();

  bool any_catchup = false;
  for (PubendId p : pubend_ids_) {
    PerPubend& state = per(p);
    // The resumption point; presenting a CT acknowledges everything <= it.
    // A CT *ahead* of the constream position happens after an SHB crash
    // (the subscriber consumed ticks the recovered broker has not yet
    // reprocessed) and must suppress redelivery up to the full CT.
    const Tick base = ct.of(p);
    if (raise_released(s, p, base)) dirty_released_.emplace(s.id, p);
    if (base >= state.processed_upto) {
      entry(s, p).suppress_upto = base;  // nothing missed: non-catchup from birth
    } else {
      auto cs = std::make_unique<CatchupStream>(base);
      cs->refilter = refilter_catchup;
      cs->scan_cursor = base;
      if (distrust != nullptr) {
        if (auto dit = distrust->find(p); dit != distrust->end()) {
          cs->distrust_upto = dit->second;
        }
      }
      entry(s, p).catchup = std::move(cs);
      state.catchup_delivered.add(base);
      m_catchup_opened_->inc();
      any_catchup = true;
    }
  }

  send(from, std::make_shared<ConnectedMsg>(
                 s.id, send_initial_ct ? ct : CheckpointToken{}));
  // Push the (possibly lowered) release pin upstream right away — a
  // migrated subscription must be pinned at the pubend before the old
  // hosting lets go.
  send_release_updates();

  if (any_catchup) {
    for (PubendId p : pubend_ids_) {
      if (catchup_of(s, p) != nullptr) admit_or_queue_catchup(s, p);
    }
  }
}

// ------------------------------------------------- catchup admission control

void SubscriberHostingBroker::admit_or_queue_catchup(SubscriberState& s, PubendId p) {
  CatchupStream* found = catchup_of(s, p);
  GRYPHON_CHECK(found != nullptr);
  CatchupStream& cs = *found;
  const std::size_t limit = config_.costs.catchup_admission_limit;
  if (limit == 0 || catchup_active_ < limit) {
    cs.admitted = true;
    ++catchup_active_;
    m_catchup_admitted_->inc();
    res_.tracer.record(now(), p.value(), cs.delivered_upto,
                       TraceMilestone::kCatchupAdmitted, s.id.value());
    activate_catchup(s, p);
    return;
  }
  // Herd overflow: the stream stays inert in FIFO order until an active
  // stream switches over (or dies) and frees its slot.
  cs.admitted = false;
  ++catchup_queued_;
  m_catchup_queued_->inc();
  admission_queue_.push_back({s.id, p, s.session});
  res_.tracer.record(now(), p.value(), cs.delivered_upto,
                     TraceMilestone::kCatchupQueued, s.id.value());
}

void SubscriberHostingBroker::activate_catchup(SubscriberState& s, PubendId p) {
  const CatchupStream* cs = catchup_of(s, p);
  if (cs == nullptr) return;
  if (cs->refilter) {
    pump_catchup_nacks(s, p);
    advance_catchup(s, p);
  } else {
    issue_pfs_read(s, p);
  }
}

void SubscriberHostingBroker::release_catchup_slot(CatchupStream& cs) {
  if (cs.admitted) {
    GRYPHON_CHECK(catchup_active_ > 0);
    --catchup_active_;
    drain_admission_queue();
  } else {
    GRYPHON_CHECK(catchup_queued_ > 0);
    --catchup_queued_;
  }
}

void SubscriberHostingBroker::release_all_catchup(SubscriberState& s) {
  // Callers end the session first, so the drain that a freed slot runs
  // skips s's own queued entries and never reaches back into s. Each
  // stream is detached from its entry before its slot is released; the
  // per_pubend vector itself is never resized.
  for (std::size_t k = 0; k < s.per_pubend.size(); ++k) {
    std::unique_ptr<CatchupStream> cs = std::move(s.per_pubend[k].catchup);
    if (cs == nullptr) continue;
    release_catchup_slot(*cs);
    pubends_[k].catchup_delivered.remove(cs->delivered_upto);
  }
}

void SubscriberHostingBroker::drain_admission_queue() {
  // Activation can synchronously switch a short stream over and free its
  // slot again (which re-enters via release_catchup_slot): the guard
  // collapses that recursion into this loop's next iteration.
  if (admission_draining_) return;
  admission_draining_ = true;
  const std::size_t limit = config_.costs.catchup_admission_limit;
  while (!admission_queue_.empty() && (limit == 0 || catchup_active_ < limit)) {
    const QueuedAdmission next = admission_queue_.front();
    admission_queue_.pop_front();
    SubscriberState* found = try_sub(next.sid);
    if (found == nullptr || found->session != next.session) continue;
    CatchupStream* stream = catchup_of(*found, next.p);
    if (stream == nullptr || stream->admitted) continue;
    CatchupStream& cs = *stream;
    cs.admitted = true;
    --catchup_queued_;
    ++catchup_active_;
    m_catchup_admitted_->inc();
    res_.tracer.record(now(), next.p.value(), cs.delivered_upto,
                       TraceMilestone::kCatchupAdmitted, next.sid.value());
    activate_catchup(*found, next.p);
  }
  admission_draining_ = false;
}

void SubscriberHostingBroker::on_disconnect(const DisconnectMsg& msg) {
  SubscriberState* found = try_sub(msg.subscriber);
  if (found == nullptr) return;
  SubscriberState& s = *found;
  s.connected = false;
  connected_.erase(s.id);
  ++s.session;
  m_catchup_closed_->inc(open_catchups(s));
  release_all_catchup(s);
  s.jms_queue.clear();
  s.jms_commit_inflight = false;
}

void SubscriberHostingBroker::on_ack(const AckMsg& msg) {
  SubscriberState* found = try_sub(msg.subscriber);
  if (found == nullptr) return;
  SubscriberState& s = *found;
  for (const auto& [p, t] : msg.ct.entries()) {
    if (!slots_.contains(p)) continue;
    const Tick before = entry(s, p).released;
    if (raise_released(s, p, t)) {
      res_.tracer.record_range(now(), p.value(), before + 1, t, TraceMilestone::kAck,
                               s.id.value());
      dirty_released_.emplace(s.id, p);
    }
  }
}

void SubscriberHostingBroker::on_unsubscribe_req(const UnsubscribeReqMsg& msg) {
  SubscriberState* found = try_sub(msg.subscriber);
  if (found == nullptr) return;
  SubscriberState& s = *found;
  hosted_.remove(msg.subscriber);
  pending_setups_.erase(msg.subscriber);
  std::vector<storage::Database::Put> puts;
  puts.push_back({kSubsTable, std::to_string(msg.subscriber.value()), {}});
  for (PubendId p : pubend_ids_) {
    puts.push_back({kReleasedTable, rel_key(msg.subscriber, p), {}});
  }
  res_.database.commit(0, std::move(puts));
  // End the session before freeing its catchup slots, as a disconnect does:
  // the freed slot must not admit this subscriber's own queued stream on
  // another pubend.
  s.connected = false;
  connected_.erase(msg.subscriber);
  ++s.session;
  release_all_catchup(s);
  for (std::size_t k = 0; k < slots_.size(); ++k) {
    pubends_[k].released.remove(s.per_pubend[k].released);
  }
  subs_.erase(msg.subscriber);
  send(parent_, std::make_shared<UnsubscribeMsg>(msg.subscriber));
}

// ------------------------------------------------------------------ catchup

void SubscriberHostingBroker::add_outstanding(SubscriberState& s, CatchupStream& cs,
                                              PubendId p, const TickRange& r) {
  cs.outstanding.add(r);
  per(p).awaiting.insert(s.id);
}

void SubscriberHostingBroker::issue_pfs_read(SubscriberState& s, PubendId p) {
  CatchupStream* stream = catchup_of(s, p);
  if (stream == nullptr) return;
  CatchupStream& cs = *stream;
  GRYPHON_CHECK_MSG(!cs.refilter, "refiltering streams never read the PFS");
  if (!cs.admitted) return;  // inert until an admission slot frees up
  if (cs.pfs_read_inflight) return;
  cs.pfs_read_inflight = true;

  const Tick processed_at_issue = per(p).processed_upto;
  const Tick from_at_issue = cs.pfs_read_from;
  const std::uint64_t session = s.session;
  pfs_.read(
      p, s.id, cs.pfs_read_from, config_.costs.pfs_read_buffer_q_ticks,
      guarded_fn([this, sid = s.id, p, session, processed_at_issue, from_at_issue](
                  PersistentFilteringSubsystem::ReadResult result) {
        SubscriberState* found = try_sub(sid);
        if (found == nullptr || found->session != session) return;
        SubscriberState& s2 = *found;
        CatchupStream* stream2 = catchup_of(s2, p);
        if (stream2 == nullptr) return;
        CatchupStream& cs2 = *stream2;
        cs2.pfs_read_inflight = false;

        // Walking the back-pointer chain costs CPU per record traversed.
        cpu_then(static_cast<SimDuration>(result.records_traversed) *
                     config_.costs.pfs_read_per_record,
                 [] {});
        m_pfs_read_records_->add(
            static_cast<double>(std::max<std::size_t>(1, result.records_traversed)));

        // Chopped prefix (early release raced the read): the region below
        // complete_from is unknown to the PFS. Fill it from the istream
        // cache where possible; nack the remainder — the pubend answers
        // with L (it released the span) or the events themselves.
        if (result.complete_from > from_at_issue) {
          auto remaining = fill_catchup_from_istream(
              s2, cs2, per(p), from_at_issue + 1, result.complete_from);
          for (const TickRange& r : remaining) add_outstanding(s2, cs2, p, r);
          consolidate_nack(p, per(p), remaining);
          schedule_catchup_nack_retry(s2, p);
        }

        // Fold the batch into the per-subscriber knowledge stream: covered
        // ranges are Q (possibly-matching positions — exact events in
        // precise mode, coarser spans in imprecise mode); everything
        // between them is S.
        Tick prev = result.complete_from;
        for (const TickRange& r : result.q_ranges) {
          if (r.from > prev + 1) cs2.map.set_silence(prev + 1, r.from - 1);
          for (Tick t = r.from; t <= r.to; ++t) cs2.unnacked_q.push_back(t);
          prev = r.to;
        }
        if (result.covered_upto > prev) cs2.map.set_silence(prev + 1, result.covered_upto);
        Tick covered = result.covered_upto;
        const Tick extension_cap =
            std::min(processed_at_issue, result.safe_extension_upto);
        if (result.reached_last && extension_cap > covered) {
          // Ticks past lastTimestamp had no matching subscriber at all (an
          // unflushed imprecise batch caps how far that claim reaches); the
          // constream had processed through processed_at_issue when the
          // read was issued, so that region is S for this subscriber too.
          cs2.map.set_silence(covered + 1, extension_cap);
          covered = extension_cap;
        }
        cs2.pfs_read_from = std::max(cs2.pfs_read_from, covered);

        pump_catchup_nacks(s2, p);
        advance_catchup(s2, p);
      }));
}

std::vector<TickRange> SubscriberHostingBroker::fill_catchup_from_istream(
    SubscriberState& s, CatchupStream& cs, PerPubend& state, Tick from, Tick to,
    Tick distrust_upto) {
  std::vector<TickRange> remaining;
  if (from > to) return remaining;
  IntervalSet covered;
  std::size_t served = 0;
  for (const auto& item : state.istream.items(from, to)) {
    switch (item.value) {
      case routing::TickValue::kD:
        if (s.predicate->matches(*item.event)) {
          cs.map.set_data(item.range.from, item.event);
          s.catchup_tokens -= 1.0;
          ++served;
          ++stats_.catchup_events_served_from_istream;
          m_catchup_istream_serves_->inc();
        } else {
          cs.map.set_silence(item.range.from, item.range.to);
        }
        break;
      case routing::TickValue::kS: {
        // Silence recorded before this subscriber's filter reached the
        // pubend may hide events that match it: within the distrusted
        // prefix, ask upstream instead of believing the cache.
        const Tick trusted_from = std::max(item.range.from, distrust_upto + 1);
        if (trusted_from > item.range.to) continue;  // fully distrusted
        cs.map.set_silence(trusted_from, item.range.to);
        covered.add(trusted_from, item.range.to);
        continue;
      }
      case routing::TickValue::kL:
        cs.map.set_lost(item.range.from, item.range.to);
        break;
      case routing::TickValue::kQ:
        GRYPHON_CHECK(false);
    }
    covered.add(item.range);
  }
  if (served > 0) {
    cpu_then(static_cast<SimDuration>(served) * config_.costs.per_nack_response_event,
             [] {});
  }
  return covered.complement_within(from, to);
}

void SubscriberHostingBroker::consolidate_nack(PubendId p, PerPubend& state,
                                               const std::vector<TickRange>& ranges) {
  std::vector<TickRange> forward = state.upstream_pending.add_uncovered(ranges);
  if (!forward.empty()) {
    ++stats_.nacks_sent_upstream;
    m_nacks_upstream_->inc();
    send(parent_, std::make_shared<NackMsg>(p, std::move(forward)));
    schedule_istream_nack_retry(p);
  }
}

// ------------------------------------------------------- nack-retry backoff

void SubscriberHostingBroker::schedule_catchup_nack_retry(SubscriberState& s,
                                                          PubendId p) {
  CatchupStream* stream = catchup_of(s, p);
  if (stream == nullptr) return;
  CatchupStream& cs = *stream;
  if (cs.nack_retry_scheduled || cs.outstanding.empty()) return;
  cs.nack_retry_scheduled = true;
  const std::uint64_t salt = (static_cast<std::uint64_t>(s.id.value()) << 32) |
                             (static_cast<std::uint64_t>(p.value()) << 8) | 1;
  defer(config_.costs.nack_retry.delay(res_.endpoint, salt, cs.nack_attempt),
        [this, sid = s.id, session = s.session, p, progress = cs.nack_progress] {
          SubscriberState* found = try_sub(sid);
          if (found == nullptr || found->session != session) return;
          CatchupStream* stream2 = catchup_of(*found, p);
          if (stream2 == nullptr) return;
          CatchupStream& cs2 = *stream2;
          cs2.nack_retry_scheduled = false;
          if (cs2.outstanding.empty()) {
            cs2.nack_attempt = 0;
            return;
          }
          if (cs2.nack_progress != progress) {
            // A response landed meanwhile: re-probe at the base period.
            cs2.nack_attempt = 0;
          } else {
            // Still unanswered (e.g. the parent restarted and lost its
            // pending-nack state): re-send everything outstanding, wait
            // longer next time.
            ++cs2.nack_attempt;
            ++stats_.nacks_sent_upstream;
            m_nacks_upstream_->inc();
            send(parent_, std::make_shared<NackMsg>(p, cs2.outstanding.ranges(),
                                                    /*authoritative=*/cs2.refilter));
          }
          schedule_catchup_nack_retry(*found, p);
        });
}

void SubscriberHostingBroker::schedule_istream_nack_retry(PubendId p) {
  PerPubend& state = per(p);
  if (state.nack_retry_scheduled || state.upstream_pending.empty()) return;
  state.nack_retry_scheduled = true;
  const std::uint64_t salt = (static_cast<std::uint64_t>(p.value()) << 8) | 2;
  defer(config_.costs.nack_retry.delay(res_.endpoint, salt, state.nack_attempt),
        [this, p, progress = per(p).nack_progress] {
          PerPubend& st = per(p);
          st.nack_retry_scheduled = false;
          if (st.upstream_pending.empty()) {
            st.nack_attempt = 0;
            return;
          }
          if (st.nack_progress != progress) {
            st.nack_attempt = 0;
          } else {
            ++st.nack_attempt;
            ++stats_.nacks_sent_upstream;
            m_nacks_upstream_->inc();
            send(parent_, std::make_shared<NackMsg>(p, st.upstream_pending.ranges()));
          }
          schedule_istream_nack_retry(p);
        });
}

void SubscriberHostingBroker::schedule_setup_retry(SubscriberId sid) {
  auto pit = pending_setups_.find(sid);
  if (pit == pending_setups_.end() || pit->second.ack_done ||
      pit->second.announce_retry_scheduled) {
    return;
  }
  pit->second.announce_retry_scheduled = true;
  const std::uint64_t salt = (static_cast<std::uint64_t>(sid.value()) << 8) | 3;
  const SimDuration delay =
      config_.costs.nack_retry.delay(res_.endpoint, salt, pit->second.announce_attempt);
  defer(delay, [this, sid] {
    auto pit2 = pending_setups_.find(sid);
    if (pit2 == pending_setups_.end()) return;
    pit2->second.announce_retry_scheduled = false;
    if (pit2->second.ack_done) return;
    SubscriberState* found = try_sub(sid);
    if (found == nullptr) return;
    // Re-announce the creation handshake (covers a PHB crash between
    // subscribe and acknowledgment).
    ++pit2->second.announce_attempt;
    send(parent_, std::make_shared<SubscribeMsg>(sid, found->predicate_text));
    schedule_setup_retry(sid);
  });
}

void SubscriberHostingBroker::pump_catchup_nacks(SubscriberState& s, PubendId p) {
  CatchupStream* stream = catchup_of(s, p);
  if (stream == nullptr) return;
  CatchupStream& cs = *stream;
  if (!cs.admitted) return;  // inert until an admission slot frees up
  PerPubend& state = per(p);

  // Congestion control: when the broker is saturated, let the backlog drain
  // before taking on more catchup work (tokens keep accruing meanwhile, so
  // this only reshapes the schedule, never the budget).
  const bool congested =
      res_.cpu.backlog() > config_.costs.catchup_backpressure_backlog;

  // Client flow control: refill the subscriber's token bucket (shared by
  // all of its catchup streams), then pump at most that many missed-event
  // positions this round.
  const double rate = config_.costs.catchup_rate_limit_eps;
  const auto window = static_cast<double>(config_.costs.catchup_nack_window);
  s.catchup_tokens = std::clamp(
      s.catchup_tokens + rate * to_seconds(now() - s.catchup_refill), -window, window);
  s.catchup_refill = now();

  // Tokens are spent when a missed EVENT is recovered (locally or via a
  // nack response), not per stream position — imprecise PFS ranges and
  // refiltering catchup scan many positions per event. The bucket may dip
  // negative (responses land after their nacks); pumping stalls until it
  // refills, so the average delivery rate converges to the limit. The
  // outstanding window bounds the in-flight burst.
  IntervalSet to_request;
  std::size_t served = 0;

  if (cs.refilter) {
    // Reconnect-anywhere recovery: scan forward through the istream cache
    // in bounded quanta, nacking the uncached remainder upstream. Token
    // charges happen per matched event inside the fill / response paths.
    constexpr Tick kScanQuantum = 256;
    while (!congested && s.catchup_tokens > 0.0 &&
           cs.outstanding.total_length() < config_.costs.catchup_nack_window &&
           cs.scan_cursor < state.processed_upto) {
      const Tick to = std::min(cs.scan_cursor + kScanQuantum, state.processed_upto);
      for (const TickRange& r :
           fill_catchup_from_istream(s, cs, state, cs.scan_cursor + 1, to,
                                     cs.distrust_upto)) {
        add_outstanding(s, cs, p, r);
        to_request.add(r);
      }
      cs.scan_cursor = to;
    }
    if (!to_request.empty()) {
      // Straight to the pubend: intermediate caches may hold silence that
      // predates this subscriber's filter.
      ++stats_.nacks_sent_upstream;
      m_nacks_upstream_->inc();
      send(parent_, std::make_shared<NackMsg>(p, to_request.ranges(),
                                              /*authoritative=*/true));
      schedule_catchup_nack_retry(s, p);
    }
    advance_catchup(s, p);
    if (CatchupStream* cs2 = catchup_of(s, p);
        cs2 != nullptr && !cs2->repump_scheduled &&
        cs2->scan_cursor < state.processed_upto) {
      cs2->repump_scheduled = true;
      defer(config_.costs.catchup_pump_interval,
            [this, sid = s.id, session = s.session, p] {
              SubscriberState* found = try_sub(sid);
              if (found == nullptr || found->session != session) return;
              CatchupStream* cs3 = catchup_of(*found, p);
              if (cs3 == nullptr) return;
              cs3->repump_scheduled = false;
              pump_catchup_nacks(*found, p);
            });
    }
    return;
  }

  while (!congested && !cs.unnacked_q.empty() && s.catchup_tokens > 0.0 &&
         cs.outstanding.total_length() < config_.costs.catchup_nack_window) {
    const Tick t = cs.unnacked_q.front();
    cs.unnacked_q.pop_front();
    // Serve from the istream cache when possible (caching events at SHBs).
    const bool cached = t > state.istream.origin();
    const routing::TickValue v =
        cached ? state.istream.value_at(t) : routing::TickValue::kQ;
    switch (v) {
      case routing::TickValue::kD: {
        auto event = state.istream.event_at(t);
        if (s.predicate->matches(*event)) {
          cs.map.set_data(t, std::move(event));
          s.catchup_tokens -= 1.0;
        } else {
          cs.map.set_silence(t, t);  // imprecise PFS record
        }
        ++served;
        ++stats_.catchup_events_served_from_istream;
        m_catchup_istream_serves_->inc();
        break;
      }
      case routing::TickValue::kS:
        cs.map.set_silence(t, t);
        break;
      case routing::TickValue::kL:
        cs.map.set_lost(t, t);
        break;
      case routing::TickValue::kQ:
        add_outstanding(s, cs, p, {t, t});
        to_request.add(t, t);
        break;
    }
  }

  // Consolidate with curiosity already outstanding at the istream level.
  consolidate_nack(p, state, to_request.ranges());
  schedule_catchup_nack_retry(s, p);
  if (served > 0) {
    cpu_then(static_cast<SimDuration>(served) * config_.costs.per_nack_response_event,
             [] {});
    advance_catchup(s, p);
  }

  // Token-starved with work left: come back when the bucket refills.
  if (CatchupStream* cs2 = catchup_of(s, p);
      cs2 != nullptr && !cs2->unnacked_q.empty() && !cs2->repump_scheduled) {
    cs2->repump_scheduled = true;
    defer(config_.costs.catchup_pump_interval,
          [this, sid = s.id, session = s.session, p] {
            SubscriberState* found = try_sub(sid);
            if (found == nullptr || found->session != session) return;
            CatchupStream* cs3 = catchup_of(*found, p);
            if (cs3 == nullptr) return;
            cs3->repump_scheduled = false;
            pump_catchup_nacks(*found, p);
            advance_catchup(*found, p);
          });
  }
}

void SubscriberHostingBroker::route_to_catchup_streams(
    PubendId p, const std::vector<routing::KnowledgeItem>& items) {
  // Only streams with outstanding nacks can take a response, so the walk
  // covers the awaiting set, not every catchup stream. It is live and in id
  // order: a body can switch streams over or admit queued ones (which may
  // join the set), so each step re-seeks past the id it just visited.
  const std::size_t slot = slots_.at(p);
  std::set<SubscriberId>& awaiting = pubends_[slot].awaiting;
  const auto awaiting_stream = [slot](SubscriberState* s) -> CatchupStream* {
    if (s == nullptr) return nullptr;
    CatchupStream* cs = s->per_pubend[slot].catchup.get();
    if (cs == nullptr || cs->outstanding.empty()) return nullptr;
    return cs;
  };
  std::uint64_t visits = 0;
  auto it = awaiting.begin();
  while (it != awaiting.end()) {
    const SubscriberId sid = *it;
    ++visits;
    SubscriberState* found = try_sub(sid);
    CatchupStream* stream = awaiting_stream(found);
    if (stream == nullptr) {
      it = awaiting.erase(it);  // stale entry: prune
      continue;
    }
    SubscriberState& s = *found;
    CatchupStream& cs = *stream;

    bool touched = false;
    for (const auto& item : items) {
      const auto overlap =
          cs.outstanding.intersection(item.range.from, item.range.to);
      if (overlap.empty()) continue;
      if (!touched) {
        touched = true;
        // Response progress: this stream's retry backoff restarts.
        ++cs.nack_progress;
        cs.nack_attempt = 0;
      }
      for (const TickRange& r : overlap) {
        switch (item.value) {
          case routing::TickValue::kD: {
            GRYPHON_CHECK(r.from == r.to);
            if (s.predicate->matches(*item.event)) {
              cs.map.set_data(r.from, item.event);
              s.catchup_tokens -= 1.0;  // the nack's deferred token charge
            } else {
              cs.map.set_silence(r.from, r.to);
            }
            break;
          }
          case routing::TickValue::kS:
            cs.map.set_silence(r.from, r.to);
            break;
          case routing::TickValue::kL:
            cs.map.set_lost(r.from, r.to);
            break;
          case routing::TickValue::kQ:
            GRYPHON_CHECK(false);
        }
        cs.outstanding.subtract(r);
      }
    }
    if (touched) {
      pump_catchup_nacks(s, p);
      advance_catchup(s, p);
      if (awaiting_stream(found) == nullptr) awaiting.erase(sid);  // all answered
    }
    it = awaiting.upper_bound(sid);
  }
  stats_.catchup_route_visits += visits;
  stats_.catchup_route_visits_peak = std::max(stats_.catchup_route_visits_peak, visits);
}

void SubscriberHostingBroker::advance_catchup(SubscriberState& s, PubendId p) {
  CatchupStream* stream = catchup_of(s, p);
  if (stream == nullptr) return;
  CatchupStream& cs = *stream;
  PerPubend& state = per(p);

  const Tick dh =
      std::min(cs.map.doubt_horizon(cs.delivered_upto), state.processed_upto);
  if (dh > cs.delivered_upto) {
    // One ordered batch per advance: events, gaps and (possibly) a trailing
    // silence travel through the same CPU-serialized send so nothing can
    // overtake anything for this subscriber.
    struct OutMsg {
      enum class Kind { kEvent, kGap, kSilence } kind;
      Tick tick;              // event tick / silence horizon
      TickRange range{0, 0};  // gap range
      matching::EventDataPtr event;
    };
    std::vector<OutMsg> batch;
    std::size_t n_events = 0;
    for (const auto& item : cs.map.items(cs.delivered_upto + 1, dh)) {
      if (item.value == routing::TickValue::kD) {
        batch.push_back({OutMsg::Kind::kEvent, item.range.from, {}, item.event});
        ++n_events;
      } else if (item.value == routing::TickValue::kL) {
        // Early-release discarded this span before the subscriber caught up.
        batch.push_back({OutMsg::Kind::kGap, item.range.to, item.range, nullptr});
      }
    }
    state.catchup_delivered.move(cs.delivered_upto, dh);
    cs.delivered_upto = dh;
    if (n_events > 0 || !batch.empty()) {
      cs.last_silence = dh;
    } else if (dh - cs.last_silence >=
               config_.costs.subscriber_silence_after / 1000) {
      batch.push_back({OutMsg::Kind::kSilence, dh, {}, nullptr});
      cs.last_silence = dh;
    }
    if (!batch.empty()) {
      const auto cost = static_cast<SimDuration>(n_events) *
                        config_.costs.per_catchup_delivery;
      cpu_then(cost, [this, sid = s.id, session = s.session, p,
                      batch = std::move(batch)] {
        SubscriberState* found = try_sub(sid);
        if (found == nullptr) return;
        SubscriberState& s2 = *found;
        if (!s2.connected || s2.session != session) return;
        for (const auto& m : batch) {
          switch (m.kind) {
            case OutMsg::Kind::kEvent:
              deliver_to_subscriber(s2, p, m.tick, m.event, /*catchup=*/true);
              ++stats_.catchup_deliveries;
              break;
            case OutMsg::Kind::kGap:
              send(s2.client, std::make_shared<GapDeliveryMsg>(s2.id, p, m.range));
              ++stats_.gaps_sent;
              m_gaps_->inc();
              res_.tracer.record_range(now(), p.value(), m.range.from, m.range.to,
                                       TraceMilestone::kGap, s2.id.value());
              break;
            case OutMsg::Kind::kSilence:
              send(s2.client, std::make_shared<SilenceDeliveryMsg>(s2.id, p, m.tick));
              ++stats_.silences_sent;
              m_silences_->inc();
              break;
          }
        }
      });
    }
  }

  maybe_switchover(s, p);
  // Paper §4.2/§5.3: the next read is triggered once the current buffer has
  // been fully nacked and its events delivered, if the constream has moved
  // on. (Refiltering streams are driven by their scan pump instead.)
  if (CatchupStream* stream2 = catchup_of(s, p); stream2 != nullptr) {
    CatchupStream& cs2 = *stream2;
    if (!cs2.refilter && !cs2.pfs_read_inflight && cs2.unnacked_q.empty() &&
        cs2.outstanding.empty() && cs2.pfs_read_from < state.processed_upto) {
      issue_pfs_read(s, p);
    }
  }
}

void SubscriberHostingBroker::maybe_switchover(SubscriberState& s, PubendId p) {
  SubscriberPubend& e = entry(s, p);
  if (e.catchup == nullptr) return;
  CatchupStream& cs = *e.catchup;
  PerPubend& state = per(p);
  // Paper §4.1: switchover once the catchup doubt horizon reaches
  // latestDelivered(p). The (latestDelivered, processed_upto] tail — ticks
  // the constream already passed but whose PFS records are not yet durable,
  // plus the last read's latency — is bridged directly from the istream
  // cache, which by construction still holds it.
  if (cs.delivered_upto < state.latest_delivered) return;
  if (cs.delivered_upto < state.istream.origin()) return;
  // A migrated subscriber may not join the constream before its distrusted
  // prefix is resolved — the bridge below reads the istream, which is only
  // trustworthy for it past that boundary.
  if (cs.delivered_upto < std::min(cs.distrust_upto, state.processed_upto)) return;

  struct PendingSend {
    Tick tick;
    matching::EventDataPtr event;
  };
  std::vector<PendingSend> bridge;
  state.istream.for_each_data(cs.delivered_upto + 1, state.processed_upto,
                              [&](Tick t, const matching::EventDataPtr& event) {
                                if (s.predicate->matches(*event)) {
                                  bridge.push_back({t, event});
                                }
                              });

  // Caught up: discard the separate stream, join the constream.
  GRYPHON_LOG(kDebug, res_.name,
              "subscriber " << s.id << " switches to constream for pubend " << p
                            << " at tick " << state.processed_upto);
  res_.tracer.record(now(), p.value(), state.processed_upto,
                     TraceMilestone::kCatchupCaughtUp, s.id.value());
  e.suppress_upto = state.processed_upto;
  release_catchup_slot(cs);
  state.catchup_delivered.remove(cs.delivered_upto);
  e.catchup.reset();
  m_catchup_closed_->inc();
  m_switchovers_->inc();

  if (!bridge.empty()) {
    const auto cost = static_cast<SimDuration>(bridge.size()) *
                      config_.costs.per_catchup_delivery;
    cpu_then(cost, [this, sid = s.id, session = s.session, p,
                    bridge = std::move(bridge)] {
      SubscriberState* found = try_sub(sid);
      if (found == nullptr) return;
      SubscriberState& s2 = *found;
      if (!s2.connected || s2.session != session) return;
      for (const auto& d : bridge) {
        deliver_to_subscriber(s2, p, d.tick, d.event, /*catchup=*/true);
        ++stats_.catchup_deliveries;
      }
    });
  }
  check_all_caught_up(s);
}

void SubscriberHostingBroker::check_all_caught_up(SubscriberState& s) {
  if (open_catchups(s) > 0) return;
  GRYPHON_LOG(kInfo, res_.name, "subscriber " << s.id << " caught up on all pubends");
  ++stats_.catchup_completions;
  m_catchup_completions_->inc();
  if (on_catchup_complete) on_catchup_complete(s.id, s.reconnect_time, now());
}

// ----------------------------------------------------- curiosity & timers

void SubscriberHostingBroker::nack_istream_gaps() {
  for (PerPubend& state : pubends_) {
    const PubendId p = state.id;
    const Tick head = state.istream.head();
    if (head <= state.processed_upto) continue;
    const Tick limit =
        std::min(head, state.processed_upto + config_.costs.istream_nack_window);
    consolidate_nack(p, state, state.istream.q_ranges(state.processed_upto + 1, limit));
  }
}

void SubscriberHostingBroker::send_release_updates() {
  for (PerPubend& state : pubends_) {
    const PubendId p = state.id;
    const Tick rel = released(p);
    send(parent_, std::make_shared<ReleaseUpdateMsg>(p, rel, state.latest_delivered));
    // Filtering records below released(p) can never be read again.
    pfs_.chop_upto(p, rel);
  }
}

void SubscriberHostingBroker::commit_dirty_state() {
  std::vector<storage::Database::Put> puts;
  for (PerPubend& state : pubends_) {
    if (state.committed_ld != state.latest_delivered) {
      puts.push_back({kLdTable, std::to_string(state.id.value()),
                      encode_i64(state.latest_delivered)});
      state.committed_ld = state.latest_delivered;
    }
  }
  for (const auto& [sid, p] : dirty_released_) {
    SubscriberState* found = try_sub(sid);
    if (found == nullptr) continue;
    puts.push_back({kReleasedTable, rel_key(sid, p), encode_i64(entry(*found, p).released)});
  }
  dirty_released_.clear();
  for (auto& put : pfs_.dirty_metadata()) puts.push_back(std::move(put));
  if (!puts.empty()) res_.database.commit(0, std::move(puts));
}

void SubscriberHostingBroker::silence_sweep() {
  // Only live sessions can be owed a silence: the sweep walks the connected
  // set (id order, same visit order as the old full-population scan) instead
  // of every durable subscription.
  for (SubscriberId sid : connected_) {
    SubscriberState& s = sub(sid);
    if (now() - s.last_delivery < config_.costs.subscriber_silence_after) continue;
    for (PubendId p : pubend_ids_) {
      SubscriberPubend& e = entry(s, p);
      if (e.catchup != nullptr) continue;  // the catchup stream handles it
      const Tick upto = per(p).processed_upto;
      Tick& sent = e.silence_sent_upto;
      if (upto <= sent) continue;
      sent = upto;
      if (s.jms_auto_ack) {
        // The SHB owns a JMS subscriber's CT: with no deliveries pending,
        // everything up to the constream position is implicitly consumed.
        // Decided behind the CPU queue: an event send still queued there
        // (a constream batch, a switchover bridge) is a pending delivery
        // at or below `upto` that released(s,p) must not pass.
        cpu_then(0, [this, sid2 = sid, session = s.session, p, upto] {
          SubscriberState* found = try_sub(sid2);
          if (found == nullptr || !found->connected || found->session != session) return;
          if (found->jms_queue.empty() && !found->jms_commit_inflight &&
              raise_released(*found, p, upto)) {
            dirty_released_.emplace(sid2, p);
          }
        });
        continue;
      }
      // Through the CPU queue so a silence cannot overtake deferred event
      // sends to the same subscriber.
      cpu_then(config_.costs.control_process,
               [this, sid2 = sid, session = s.session, p, upto] {
                 SubscriberState* found = try_sub(sid2);
                 if (found == nullptr) return;
                 SubscriberState& s2 = *found;
                 if (!s2.connected || s2.session != session) return;
                 if (catchup_of(s2, p) != nullptr) return;
                 send(s2.client, std::make_shared<SilenceDeliveryMsg>(sid2, p, upto));
                 ++stats_.silences_sent;
                 m_silences_->inc();
               });
    }
  }
}

}  // namespace gryphon::core
