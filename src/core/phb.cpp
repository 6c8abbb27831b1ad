#include "core/phb.hpp"

#include <algorithm>
#include <cstring>
#include <map>

namespace gryphon::core {

namespace {
constexpr const char* kSubsTable = "phb_child_subs";

std::string subs_key(const std::string& child, SubscriberId sub) {
  return child + ':' + std::to_string(sub.value());
}
}  // namespace

PublisherHostingBroker::PublisherHostingBroker(NodeResources& resources,
                                               BrokerConfig config,
                                               const std::vector<PubendId>& pubends,
                                               ReleasePolicyPtr policy)
    : Broker(resources, config), policy_(std::move(policy)) {
  for (PubendId p : pubends) {
    pubends_.emplace(p, std::make_unique<Pubend>(p, res_, policy_));
  }
  auto& m = res_.metrics;
  m_publishes_ = m.counter("phb.publishes");
  m_duplicates_ = m.counter("phb.duplicates");
  m_nacks_ = m.counter("phb.nacks_received");
  m_nack_events_served_ = m.counter("phb.nack_events_served");
  m_ack_floor_ = m.gauge("phb.ack_floor");
  m_nack_span_ = m.histogram("phb.nack_span_ticks", 1.0, 1e6);
  // Per-pubend tick-ladder windows, read only at snapshot time.
  for (auto& [p, pe] : pubends_) {
    const std::string prefix = "pubend.p" + std::to_string(p.value()) + ".";
    Pubend* raw = pe.get();
    probes_.push_back(m.probe(prefix + "head", [raw] {
      return static_cast<double>(raw->head());
    }));
    probes_.push_back(m.probe(prefix + "l_window", [raw] {
      return static_cast<double>(raw->lost_upto());
    }));
    probes_.push_back(m.probe(prefix + "d_window", [raw] {
      return static_cast<double>(raw->retained_events());
    }));
    probes_.push_back(m.probe(prefix + "s_window", [raw] {
      const double span = static_cast<double>(raw->head() - raw->lost_upto());
      return std::max(0.0, span - static_cast<double>(raw->retained_events()));
    }));
    probes_.push_back(m.probe(prefix + "doubt_span", [raw] {
      return static_cast<double>(raw->head() - raw->delivered_min());
    }));
  }
  // Storage-pressure gauge of the shared release policy (0 for static ones).
  probes_.push_back(m.probe("pubend.retain_pressure", [this] {
    return policy_->pressure();
  }));
}

void PublisherHostingBroker::add_child(sim::EndpointId child) {
  GRYPHON_CHECK_MSG(!children_.contains(child), "duplicate child " << child);
  Child c;
  c.endpoint = child;
  for (auto& [p, pe] : pubends_) {
    c.streams.emplace(p, ChildStream{pe->head()});
  }
  children_.emplace(child, std::move(c));
}

void PublisherHostingBroker::start() {
  // Silence generation: keeps every downstream doubt horizon advancing at
  // ~wall-clock rate even when no events are published.
  every(config_.costs.silence_interval, [this] {
    for (auto& [p, pe] : pubends_) {
      if (auto region = pe->announce_silence(now())) {
        fanout(p, pe->ticks().items(region->from, region->to));
      }
    }
  });
  // Release application. The policy first observes the event-log live bytes
  // so AdaptiveRetainPolicy can squeeze retention under storage pressure.
  every(config_.costs.release_update_interval, [this] {
    policy_->observe_live_bytes(res_.log_volume.wal().live_bytes());
    for (auto& [p, pe] : pubends_) {
      refresh_release_mins(p);
      pe->apply_release(now());
    }
  });
}

void PublisherHostingBroker::recover() {
  for (auto& [p, pe] : pubends_) pe->recover();
  // Child filters were persisted on every (un)subscribe.
  // Keys name children as NodeResources::peer_key does, which survives a
  // restart that renumbers the endpoints.
  std::map<std::string, sim::EndpointId> child_by_key;
  for (const auto& [ep, c] : children_) child_by_key.emplace(res_.peer_key(ep), ep);
  for (const auto& [key, value] : res_.database.scan(kSubsTable)) {
    const auto colon = key.rfind(':');
    GRYPHON_CHECK(colon != std::string::npos);
    const auto child = child_by_key.find(key.substr(0, colon));
    if (child == child_by_key.end()) continue;
    const SubscriberId sub{static_cast<std::uint32_t>(std::stoul(key.substr(colon + 1)))};
    const std::string text(reinterpret_cast<const char*>(value.data()), value.size());
    children_.at(child->second).filter.add(sub, matching::parse_predicate(text));
  }
}

Pubend& PublisherHostingBroker::pubend(PubendId p) {
  auto it = pubends_.find(p);
  GRYPHON_CHECK_MSG(it != pubends_.end(), "unknown pubend " << p);
  return *it->second;
}

std::vector<PubendId> PublisherHostingBroker::pubend_ids() const {
  std::vector<PubendId> out;
  out.reserve(pubends_.size());
  for (const auto& [p, pe] : pubends_) out.push_back(p);
  return out;
}

PublisherHostingBroker::Child& PublisherHostingBroker::child(sim::EndpointId ep) {
  auto it = children_.find(ep);
  GRYPHON_CHECK_MSG(it != children_.end(), "message from unknown child " << ep);
  return it->second;
}

SimDuration PublisherHostingBroker::cost_of(const Msg& msg) const {
  const auto& costs = config_.costs;
  switch (msg.kind()) {
    case MsgKind::kPublish:
      return costs.publish_base +
             static_cast<SimDuration>(children_.size()) * costs.per_child_forward;
    case MsgKind::kNack:
      return costs.nack_process;
    default:
      return costs.control_process;
  }
}

void PublisherHostingBroker::handle(sim::EndpointId from, const Msg& msg) {
  switch (msg.kind()) {
    case MsgKind::kPublish:
      on_publish(from, static_cast<const PublishMsg&>(msg));
      break;
    case MsgKind::kNack:
      on_nack(from, static_cast<const NackMsg&>(msg));
      break;
    case MsgKind::kReleaseUpdate:
      on_release_update(from, static_cast<const ReleaseUpdateMsg&>(msg));
      break;
    case MsgKind::kSubscribe:
      on_subscribe(from, static_cast<const SubscribeMsg&>(msg));
      break;
    case MsgKind::kUnsubscribe:
      on_unsubscribe(from, static_cast<const UnsubscribeMsg&>(msg));
      break;
    case MsgKind::kBrokerResume:
      on_broker_resume(from, static_cast<const BrokerResumeMsg&>(msg));
      break;
    default:
      GRYPHON_CHECK_MSG(false, "PHB cannot handle message kind "
                                   << static_cast<int>(msg.kind()));
  }
}

void PublisherHostingBroker::on_publish(sim::EndpointId from, const PublishMsg& msg) {
  ++stats_.publishes;
  m_publishes_->inc();
  m_ack_floor_->set(static_cast<double>(msg.acked_below));
  Pubend& pe = pubend(msg.pubend);
  const auto accepted =
      pe.accept_publish(msg.publisher, msg.seq, msg.acked_below, msg.event, now());
  if (accepted.duplicate) {
    ++stats_.duplicates;
    m_duplicates_->inc();
    send(from, std::make_shared<PublishAckMsg>(msg.publisher, msg.seq, accepted.tick));
    return;
  }
  // Announce only once durable (only-once logging is the paper's point: the
  // event exists nowhere else yet, so it must hit stable storage before the
  // system takes responsibility for it).
  const Tick tick = accepted.tick;
  auto event = msg.event;
  const PubendId p = msg.pubend;
  res_.log_volume.sync(guarded([this, from, p, tick, event = std::move(event),
                                publisher = msg.publisher, seq = msg.seq] {
    Pubend& pend = pubend(p);
    const TickRange region = pend.announce_data(tick, event);
    fanout(p, pend.ticks().items(region.from, region.to));
    send(from, std::make_shared<PublishAckMsg>(publisher, seq, tick));
  }));
}

void PublisherHostingBroker::fanout(PubendId p,
                                    const std::vector<routing::KnowledgeItem>& items) {
  if (items.empty()) return;
  for (auto& [ep, c] : children_) {
    auto it = c.streams.find(p);
    GRYPHON_CHECK(it != c.streams.end());
    send_items(c, p, it->second.on_items(items));
  }
}

void PublisherHostingBroker::send_items(Child& c, PubendId p,
                                        const std::vector<routing::KnowledgeItem>& items) {
  if (items.empty()) return;
  auto filtered = filter_items(items, &c.filter);
  const std::size_t chunk = config_.costs.max_items_per_msg;
  for (std::size_t i = 0; i < filtered.size(); i += chunk) {
    const auto end = std::min(filtered.size(), i + chunk);
    send(c.endpoint,
         std::make_shared<StreamDataMsg>(
             p, std::vector<routing::KnowledgeItem>(filtered.begin() + i,
                                                    filtered.begin() + end)));
  }
}

void PublisherHostingBroker::on_nack(sim::EndpointId from, const NackMsg& msg) {
  ++stats_.nacks_received;
  m_nacks_->inc();
  for (const TickRange& r : msg.ranges) {
    m_nack_span_->add(static_cast<double>(r.to - r.from + 1));
  }
  Child& c = child(from);
  Pubend& pe = pubend(msg.pubend);
  auto it = c.streams.find(msg.pubend);
  GRYPHON_CHECK(it != c.streams.end());
  auto outcome = it->second.on_nack(msg.ranges, pe.ticks());
  // The pubend is authoritative: every announced tick is D, S or L, so the
  // only unknown ranges a well-behaved child could produce lie beyond the
  // announcement horizon (e.g. a nack raced with a crash-recovery reset);
  // they stay pending and the fresh stream will cover them.
  std::size_t served_events = 0;
  for (const auto& item : outcome.respond) {
    if (item.value == routing::TickValue::kD) ++served_events;
  }
  stats_.nack_response_events += served_events;
  m_nack_events_served_->inc(served_events);
  // Serving cached events costs CPU proportional to the events shipped.
  cpu_then(static_cast<SimDuration>(served_events) *
               config_.costs.per_nack_response_event,
           [this, from, p = msg.pubend, items = std::move(outcome.respond)]() mutable {
             Child& c2 = child(from);
             send_items(c2, p, items);
           });
}

void PublisherHostingBroker::on_release_update(sim::EndpointId from,
                                               const ReleaseUpdateMsg& msg) {
  Child& c = child(from);
  auto it = c.streams.find(msg.pubend);
  GRYPHON_CHECK(it != c.streams.end());
  // Taken as reported, not max-merged: a subscription migrating onto a
  // child legitimately LOWERS its release pin (links are FIFO, so there is
  // no reordering to defend against). A lowered pin only delays future
  // releases — the lost prefix itself never regresses.
  it->second.released = msg.released;
  it->second.latest_delivered = std::max(it->second.latest_delivered, msg.latest_delivered);
  refresh_release_mins(msg.pubend);
}

void PublisherHostingBroker::refresh_release_mins(PubendId p) {
  if (children_.empty()) return;
  Tick rel = kTickInfinity;
  Tick del = kTickInfinity;
  for (auto& [ep, c] : children_) {
    const ChildStream& s = c.streams.at(p);
    rel = std::min(rel, s.released);
    del = std::min(del, s.latest_delivered);
  }
  pubend(p).update_mins(rel, del);
}

void PublisherHostingBroker::persist_subscription(sim::EndpointId child_ep,
                                                  SubscriberId sub,
                                                  const std::string& predicate,
                                                  bool add) {
  std::vector<std::byte> value;
  if (add) {
    value.resize(predicate.size());
    std::memcpy(value.data(), predicate.data(), predicate.size());
  }
  res_.database.commit(
      0, {{kSubsTable, subs_key(res_.peer_key(child_ep), sub), std::move(value)}});
}

void PublisherHostingBroker::on_subscribe(sim::EndpointId from, const SubscribeMsg& msg) {
  Child& c = child(from);
  c.filter.add(msg.subscriber, matching::parse_predicate(msg.predicate_text));
  persist_subscription(from, msg.subscriber, msg.predicate_text, /*add=*/true);
  // Acknowledge with the application boundary: everything after these heads
  // is filtered with this subscription included (idempotent on re-sends).
  std::vector<std::pair<PubendId, Tick>> heads;
  heads.reserve(pubends_.size());
  for (auto& [p, pe] : pubends_) heads.emplace_back(p, pe->head());
  send(from, std::make_shared<SubscribeAckMsg>(msg.subscriber, std::move(heads)));
}

void PublisherHostingBroker::on_unsubscribe(sim::EndpointId from,
                                            const UnsubscribeMsg& msg) {
  Child& c = child(from);
  c.filter.remove(msg.subscriber);
  persist_subscription(from, msg.subscriber, {}, /*add=*/false);
}

void PublisherHostingBroker::on_broker_resume(sim::EndpointId from,
                                              const BrokerResumeMsg& msg) {
  Child& c = child(from);
  for (const auto& [p, resume] : msg.resume_from) {
    Pubend& pe = pubend(p);
    // The fresh stream resumes at the head; the span the child missed while
    // down — (its resume point, head] — is recovered through its curiosity
    // stream under the child's own flow control (paper §5.3: the constream
    // "nacks the events it missed"), not by an unbounded replay burst.
    (void)resume;
    auto it = c.streams.find(p);
    GRYPHON_CHECK(it != c.streams.end());
    it->second.reset(pe.head());
  }
}

}  // namespace gryphon::core
