#include "core/child_stream.hpp"

#include <algorithm>
#include <cstring>

#include "matching/parser.hpp"
#include "util/assert.hpp"

namespace gryphon::core {

using routing::KnowledgeItem;
using routing::TickValue;

std::vector<KnowledgeItem> filter_items(const std::vector<KnowledgeItem>& items,
                                        const matching::SubscriptionIndex* filter) {
  std::vector<KnowledgeItem> out;
  out.reserve(items.size());
  auto push = [&out](KnowledgeItem item) {
    if (!out.empty() && item.value != TickValue::kD &&
        out.back().value == item.value && out.back().range.to + 1 == item.range.from) {
      out.back().range.to = item.range.to;  // merge adjacent S/S or L/L
      return;
    }
    out.push_back(std::move(item));
  };
  for (const auto& item : items) {
    if (item.value == TickValue::kD && filter != nullptr &&
        !filter->matches_any(*item.event)) {
      push({TickValue::kS, item.range, nullptr});
    } else {
      push(item);
    }
  }
  return out;
}

std::vector<KnowledgeItem> ChildStream::on_items(
    const std::vector<KnowledgeItem>& items) {
  std::vector<KnowledgeItem> out;
  Tick max_end = sent_upto_;
  for (const auto& item : items) {
    const TickRange r = item.range;
    max_end = std::max(max_end, r.to);
    if (item.value == TickValue::kD) {
      if (r.from > sent_upto_ || pending_nacks_.contains(r.from)) {
        out.push_back(item);
        pending_nacks_.subtract(r);
      }
      continue;
    }
    // S/L range: the child wants the pending sub-ranges plus the fresh tail.
    IntervalSet wanted;
    for (const TickRange& p : pending_nacks_.intersection(r.from, r.to)) wanted.add(p);
    if (r.to > sent_upto_) wanted.add(std::max(r.from, sent_upto_ + 1), r.to);
    for (const TickRange& w : wanted.ranges()) {
      out.push_back({item.value, w, nullptr});
      pending_nacks_.subtract(w);
    }
  }
  sent_upto_ = max_end;
  return out;
}

ChildStream::NackOutcome ChildStream::on_nack(const std::vector<TickRange>& ranges,
                                              const routing::TickMap& cache) {
  NackOutcome outcome;
  for (const TickRange& r : ranges) {
    GRYPHON_CHECK(r.from <= r.to);
    // Serve the parts the cache knows; everything else becomes pending.
    IntervalSet known;
    for (const auto& item : cache.items(r.from, r.to)) {
      outcome.respond.push_back(item);
      known.add(item.range);
    }
    for (const TickRange& q : known.complement_within(r.from, r.to)) {
      pending_nacks_.add(q);
      outcome.unknown.push_back(q);
    }
  }
  return outcome;
}

// ------------------------------------------------------------ ParentBroker

namespace {
std::string subs_key(const std::string& child, SubscriberId sub) {
  return child + ':' + std::to_string(sub.value());
}
}  // namespace

ParentBroker::ParentBroker(NodeResources& resources, BrokerConfig config,
                           const std::vector<PubendId>& pubends, const char* subs_table)
    : Broker(resources, config), subs_table_(subs_table), pubend_ids_(pubends) {}

void ParentBroker::add_child(sim::EndpointId ep) {
  GRYPHON_CHECK_MSG(!children_.contains(ep), "duplicate child " << ep);
  Child c;
  c.endpoint = ep;
  for (PubendId p : pubend_ids_) c.streams.emplace(p, ChildStream{new_link_start(p)});
  children_.emplace(ep, std::move(c));
}

ParentBroker::Child& ParentBroker::child(sim::EndpointId ep) {
  auto it = children_.find(ep);
  GRYPHON_CHECK_MSG(it != children_.end(), "message from unknown child " << ep);
  return it->second;
}

ChildStream& ParentBroker::stream(sim::EndpointId ep, PubendId p) {
  Child& c = child(ep);
  auto it = c.streams.find(p);
  GRYPHON_CHECK(it != c.streams.end());
  return it->second;
}

void ParentBroker::fanout(PubendId p, const std::vector<KnowledgeItem>& items) {
  if (items.empty()) return;
  for (auto& [ep, c] : children_) {
    auto it = c.streams.find(p);
    GRYPHON_CHECK(it != c.streams.end());
    send_items(c, p, it->second.on_items(items));
  }
}

void ParentBroker::send_items(Child& c, PubendId p, const std::vector<KnowledgeItem>& items) {
  if (items.empty()) return;
  auto filtered = filter_items(items, &c.filter);
  const std::size_t chunk = config_.costs.max_items_per_msg;
  for (std::size_t i = 0; i < filtered.size(); i += chunk) {
    const auto end = std::min(filtered.size(), i + chunk);
    send(c.endpoint, std::make_shared<StreamDataMsg>(
                         p, std::vector<KnowledgeItem>(filtered.begin() + i,
                                                       filtered.begin() + end)));
  }
}

ParentBroker::NackServed ParentBroker::serve_nack(sim::EndpointId from, const NackMsg& msg,
                                                  const routing::TickMap& cache) {
  auto outcome = stream(from, msg.pubend).on_nack(msg.ranges, cache);
  NackServed served;
  served.unknown = std::move(outcome.unknown);
  for (const auto& item : outcome.respond) {
    if (item.value == TickValue::kD) ++served.events;
  }
  if (!outcome.respond.empty()) {
    // Serving cached events costs CPU proportional to the events shipped.
    cpu_then(static_cast<SimDuration>(served.events) * config_.costs.per_nack_response_event,
             [this, from, p = msg.pubend, items = std::move(outcome.respond)] {
               send_items(child(from), p, items);
             });
  }
  return served;
}

void ParentBroker::note_release_update(sim::EndpointId from, const ReleaseUpdateMsg& msg) {
  ChildStream& s = stream(from, msg.pubend);
  // Taken as reported, not max-merged: a subscription migrating onto a
  // child legitimately LOWERS its release pin (links are FIFO, so there is
  // no reordering to defend against). A lowered pin only delays future
  // releases — the lost prefix itself never regresses.
  s.released = msg.released;
  s.latest_delivered = std::max(s.latest_delivered, msg.latest_delivered);
}

std::optional<ParentBroker::ReleaseMins> ParentBroker::release_mins(PubendId p) const {
  if (children_.empty()) return std::nullopt;
  ReleaseMins mins{kTickInfinity, kTickInfinity};
  for (const auto& [ep, c] : children_) {
    const ChildStream& s = c.streams.at(p);
    mins.released = std::min(mins.released, s.released);
    mins.latest_delivered = std::min(mins.latest_delivered, s.latest_delivered);
  }
  return mins;
}

void ParentBroker::resume_child(sim::EndpointId from, const BrokerResumeMsg& msg) {
  for (const auto& [p, resume] : msg.resume_from) {
    (void)resume;
    stream(from, p).reset(head(p));
  }
}

void ParentBroker::add_child_subscription(sim::EndpointId from, SubscriberId sub,
                                          const std::string& predicate) {
  child(from).filter.add(sub, matching::parse_predicate(predicate));
  persist_subscription(from, sub, predicate, /*add=*/true);
}

void ParentBroker::remove_child_subscription(sim::EndpointId from, SubscriberId sub) {
  child(from).filter.remove(sub);
  persist_subscription(from, sub, {}, /*add=*/false);
}

void ParentBroker::persist_subscription(sim::EndpointId child_ep, SubscriberId sub,
                                        const std::string& predicate, bool add) {
  std::vector<std::byte> value;
  if (add) {
    value.resize(predicate.size());
    std::memcpy(value.data(), predicate.data(), predicate.size());
  }
  res_.database.commit(
      0, {{subs_table_, subs_key(res_.peer_key(child_ep), sub), std::move(value)}});
}

std::vector<std::pair<SubscriberId, std::string>> ParentBroker::recover_child_filters() {
  // Keys name children as NodeResources::peer_key does, which survives a
  // restart that renumbers the endpoints.
  std::map<std::string, sim::EndpointId> child_by_key;
  for (const auto& [ep, c] : children_) child_by_key.emplace(res_.peer_key(ep), ep);
  std::vector<std::pair<SubscriberId, std::string>> restored;
  for (const auto& [key, value] : res_.database.scan(subs_table_)) {
    const auto colon = key.rfind(':');
    GRYPHON_CHECK(colon != std::string::npos);
    const auto found = child_by_key.find(key.substr(0, colon));
    if (found == child_by_key.end()) continue;
    const SubscriberId sub{static_cast<std::uint32_t>(std::stoul(key.substr(colon + 1)))};
    std::string text(reinterpret_cast<const char*>(value.data()), value.size());
    children_.at(found->second).filter.add(sub, matching::parse_predicate(text));
    restored.emplace_back(sub, std::move(text));
  }
  return restored;
}

}  // namespace gryphon::core
