#include "core/intermediate.hpp"

#include <algorithm>
#include <cstring>
#include <map>

namespace gryphon::core {

namespace {
constexpr const char* kSubsTable = "imb_child_subs";

std::string subs_key(const std::string& child, SubscriberId sub) {
  return child + ':' + std::to_string(sub.value());
}
}  // namespace

IntermediateBroker::IntermediateBroker(NodeResources& resources, BrokerConfig config,
                                       const std::vector<PubendId>& pubends)
    : Broker(resources, config) {
  for (PubendId p : pubends) pubends_.emplace(p, PerPubend{});
  auto& m = res_.metrics;
  m_items_relayed_ = m.counter("imb.items_relayed");
  m_nacks_from_children_ = m.counter("imb.nacks_from_children");
  m_nacks_consolidated_upstream_ = m.counter("imb.nacks_forwarded_upstream");
  m_cache_hit_events_ = m.counter("imb.cache_hit_events");
  m_cache_miss_ticks_ = m.counter("imb.cache_miss_ticks");
}

void IntermediateBroker::add_child(sim::EndpointId child) {
  GRYPHON_CHECK(!children_.contains(child));
  Child c;
  c.endpoint = child;
  for (auto& [p, state] : pubends_) c.streams.emplace(p, ChildStream{kTickZero});
  children_.emplace(child, std::move(c));
}

void IntermediateBroker::start(bool fresh) {
  // Resume handshake with the parent.
  std::vector<std::pair<PubendId, Tick>> resume;
  resume.reserve(pubends_.size());
  for (auto& [p, state] : pubends_) {
    resume.emplace_back(p, fresh ? kTickZero : Tick{-1});
  }
  send(parent_, std::make_shared<BrokerResumeMsg>(std::move(resume)));

  // Retry unanswered consolidated nacks (covers a parent restart losing
  // pending-nack state).
  every(config_.costs.nack_retry, [this] {
    for (auto& [p, state] : pubends_) {
      if (state.upstream_pending.empty()) continue;
      send(parent_, std::make_shared<NackMsg>(p, state.upstream_pending.ranges()));
      ++stats_.nacks_forwarded_upstream;
      m_nacks_consolidated_upstream_->inc();
    }
  });

  // Release aggregation upstream.
  every(config_.costs.release_update_interval, [this] { send_release_mins(); });
}

void IntermediateBroker::recover() {
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
    // Re-announce upstream: the parent may have restarted too; adds are
    // idempotent.
    send(parent_, std::make_shared<SubscribeMsg>(sub, text));
  }
}

IntermediateBroker::Child& IntermediateBroker::child(sim::EndpointId ep) {
  auto it = children_.find(ep);
  GRYPHON_CHECK_MSG(it != children_.end(), "message from unknown child " << ep);
  return it->second;
}

IntermediateBroker::PerPubend& IntermediateBroker::per(PubendId p) {
  auto it = pubends_.find(p);
  GRYPHON_CHECK_MSG(it != pubends_.end(), "unknown pubend " << p);
  return it->second;
}

const IntermediateBroker::PerPubend& IntermediateBroker::per(PubendId p) const {
  auto it = pubends_.find(p);
  GRYPHON_CHECK_MSG(it != pubends_.end(), "unknown pubend " << p);
  return it->second;
}

SimDuration IntermediateBroker::cost_of(const Msg& msg) const {
  const auto& costs = config_.costs;
  switch (msg.kind()) {
    case MsgKind::kStreamData: {
      const auto& m = static_cast<const StreamDataMsg&>(msg);
      std::size_t n_data = 0;
      for (const auto& item : m.items) {
        if (item.value == routing::TickValue::kD) ++n_data;
      }
      return costs.control_process +
             static_cast<SimDuration>(n_data) *
                 static_cast<SimDuration>(children_.size()) * costs.per_child_forward;
    }
    case MsgKind::kNack:
      return costs.nack_process;
    default:
      return costs.control_process;
  }
}

void IntermediateBroker::handle(sim::EndpointId from, const Msg& msg) {
  switch (msg.kind()) {
    case MsgKind::kStreamData:
      GRYPHON_CHECK_MSG(from == parent_, "stream data from non-parent");
      on_stream_data(static_cast<const StreamDataMsg&>(msg));
      break;
    case MsgKind::kNack:
      on_nack(from, static_cast<const NackMsg&>(msg));
      break;
    case MsgKind::kReleaseUpdate:
      on_release_update(from, static_cast<const ReleaseUpdateMsg&>(msg));
      break;
    case MsgKind::kSubscribe: {
      const auto& m = static_cast<const SubscribeMsg&>(msg);
      child(from).filter.add(m.subscriber, matching::parse_predicate(m.predicate_text));
      persist_subscription(from, m.subscriber, m.predicate_text, true);
      subscribe_origin_[m.subscriber] = from;  // route the PHB's ack back
      send(parent_, std::make_shared<SubscribeMsg>(m.subscriber, m.predicate_text));
      break;
    }
    case MsgKind::kSubscribeAck: {
      const auto& m = static_cast<const SubscribeAckMsg&>(msg);
      auto it = subscribe_origin_.find(m.subscriber);
      if (it != subscribe_origin_.end()) {
        send(it->second, std::make_shared<SubscribeAckMsg>(m.subscriber, m.heads));
      }
      break;
    }
    case MsgKind::kUnsubscribe: {
      const auto& m = static_cast<const UnsubscribeMsg&>(msg);
      child(from).filter.remove(m.subscriber);
      persist_subscription(from, m.subscriber, {}, false);
      send(parent_, std::make_shared<UnsubscribeMsg>(m.subscriber));
      break;
    }
    case MsgKind::kBrokerResume:
      on_broker_resume(from, static_cast<const BrokerResumeMsg&>(msg));
      break;
    default:
      GRYPHON_CHECK_MSG(false, "intermediate cannot handle message kind "
                                   << static_cast<int>(msg.kind()));
  }
}

void IntermediateBroker::on_stream_data(const StreamDataMsg& msg) {
  PerPubend& state = per(msg.pubend);
  stats_.items_relayed += msg.items.size();
  m_items_relayed_->inc(msg.items.size());

  // Route to children first (directly from the incoming items, so responses
  // for ranges this node chooses not to cache still reach curious children).
  for (auto& [ep, c] : children_) {
    auto it = c.streams.find(msg.pubend);
    GRYPHON_CHECK(it != c.streams.end());
    send_items(c, msg.pubend, it->second.on_items(msg.items));
  }

  // Then fold into the local cache and trim it.
  for (const auto& item : msg.items) {
    state.cache.apply(item);
    state.upstream_pending.subtract(item.range);
  }
  const Tick evict = state.cache.head() - config_.costs.cache_span_ticks;
  if (evict > state.cache.origin()) state.cache.discard_upto(evict);
}

void IntermediateBroker::on_nack(sim::EndpointId from, const NackMsg& msg) {
  ++stats_.nacks_from_children;
  m_nacks_from_children_->inc();
  Child& c = child(from);
  PerPubend& state = per(msg.pubend);
  auto it = c.streams.find(msg.pubend);
  GRYPHON_CHECK(it != c.streams.end());

  if (msg.authoritative_only) {
    // The local cache's silence may predate the relevant subscription:
    // record curiosity and pass the question through to the pubend.
    for (const TickRange& r : msg.ranges) it->second.add_pending(r);
    send(parent_,
         std::make_shared<NackMsg>(msg.pubend, msg.ranges, /*authoritative=*/true));
    ++stats_.nacks_forwarded_upstream;
    m_nacks_consolidated_upstream_->inc();
    return;
  }

  auto outcome = it->second.on_nack(msg.ranges, state.cache);

  std::size_t served = 0;
  for (const auto& item : outcome.respond) {
    if (item.value == routing::TickValue::kD) ++served;
  }
  stats_.nack_events_served_from_cache += served;
  m_cache_hit_events_->inc(served);
  if (!outcome.respond.empty()) {
    cpu_then(static_cast<SimDuration>(served) * config_.costs.per_nack_response_event,
             [this, from, p = msg.pubend, items = std::move(outcome.respond)] {
               send_items(child(from), p, items);
             });
  }

  // Consolidate the unknown ranges upstream: forward only what is not
  // already outstanding.
  std::vector<TickRange> forward;
  for (const TickRange& r : outcome.unknown) {
    for (const TickRange& fresh : state.upstream_pending.complement_within(r.from, r.to)) {
      forward.push_back(fresh);
      state.upstream_pending.add(fresh);
    }
  }
  if (!forward.empty()) {
    ++stats_.nacks_forwarded_upstream;
    m_nacks_consolidated_upstream_->inc();
    std::uint64_t miss_ticks = 0;
    for (const TickRange& r : forward) {
      miss_ticks += static_cast<std::uint64_t>(r.to - r.from + 1);
    }
    m_cache_miss_ticks_->inc(miss_ticks);
    send(parent_, std::make_shared<NackMsg>(msg.pubend, std::move(forward)));
  }
}

void IntermediateBroker::on_release_update(sim::EndpointId from,
                                           const ReleaseUpdateMsg& msg) {
  Child& c = child(from);
  auto it = c.streams.find(msg.pubend);
  GRYPHON_CHECK(it != c.streams.end());
  // As at the PHB: released is taken as reported (migrations may lower it).
  it->second.released = msg.released;
  it->second.latest_delivered = std::max(it->second.latest_delivered, msg.latest_delivered);
}

void IntermediateBroker::send_release_mins() {
  if (children_.empty()) return;
  for (auto& [p, state] : pubends_) {
    Tick rel = kTickInfinity;
    Tick del = kTickInfinity;
    for (auto& [ep, c] : children_) {
      const ChildStream& s = c.streams.at(p);
      rel = std::min(rel, s.released);
      del = std::min(del, s.latest_delivered);
    }
    if (del == kTickZero && rel == kTickZero) continue;  // nothing reported yet
    send(parent_, std::make_shared<ReleaseUpdateMsg>(p, rel, del));
  }
}

void IntermediateBroker::on_broker_resume(sim::EndpointId from,
                                          const BrokerResumeMsg& msg) {
  Child& c = child(from);
  for (const auto& [p, resume] : msg.resume_from) {
    PerPubend& state = per(p);
    // As at the PHB: resume the fresh stream from the local head; the
    // missed span comes back as flow-controlled nacks (served from this
    // cache where it still holds the span, consolidated upstream where not).
    (void)resume;
    auto it = c.streams.find(p);
    GRYPHON_CHECK(it != c.streams.end());
    it->second.reset(state.cache.head());
  }
}

void IntermediateBroker::send_items(Child& c, PubendId p,
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

void IntermediateBroker::persist_subscription(sim::EndpointId child_ep, SubscriberId sub,
                                              const std::string& predicate, bool add) {
  std::vector<std::byte> value;
  if (add) {
    value.resize(predicate.size());
    std::memcpy(value.data(), predicate.data(), predicate.size());
  }
  res_.database.commit(
      0, {{kSubsTable, subs_key(res_.peer_key(child_ep), sub), std::move(value)}});
}

}  // namespace gryphon::core
