#include "harness/oracle.hpp"

#include <algorithm>
#include <sstream>

#include "util/assert.hpp"

namespace gryphon::harness {

void DeliveryOracle::register_subscriber(const core::DurableSubscriber* client,
                                         matching::PredicatePtr predicate, int machine) {
  GRYPHON_CHECK(client != nullptr && predicate != nullptr);
  SubState state;
  state.client = client;
  state.predicate = std::move(predicate);
  state.machine = machine;
  subs_.emplace(client->id(), std::move(state));
  machine_rates_.try_emplace(machine, sec(1));
}

void DeliveryOracle::on_published(PublisherId, PubendId pubend, Tick tick,
                                  const matching::EventDataPtr& event,
                                  SimTime publish_time, SimTime ack_time) {
  auto [it, inserted] = published_[pubend].emplace(tick, event);
  if (!inserted) return;  // duplicate ack of a retried publish
  publish_times_[pubend].emplace(tick, publish_time);
  publish_latency_.add(to_millis(ack_time - publish_time));
  ++published_count_;
}

void DeliveryOracle::on_event(SubscriberId s, PubendId p, Tick t,
                              const matching::EventDataPtr& event, bool catchup,
                              SimTime now) {
  auto it = subs_.find(s);
  GRYPHON_CHECK_MSG(it != subs_.end(), "delivery to unregistered subscriber " << s);
  SubState& state = it->second;

  const bool matches = state.predicate->matches(*event);
  if (!matches) note_violation(s, p, t, "spurious delivery (predicate mismatch)");
  GRYPHON_CHECK_MSG(matches,
                    "spurious delivery: event at " << p << ':' << t
                                                   << " does not match subscriber " << s);
  const bool fresh = state.delivered[p].insert(t);
  if (!fresh) note_violation(s, p, t, "duplicate delivery");
  GRYPHON_CHECK_MSG(fresh, "duplicate delivery " << p << ':' << t << " to " << s);

  ++delivered_count_;
  delivery_rate_.record(now);
  machine_rates_.at(state.machine).record(now);
  if (!catchup) {
    auto [floor_it, first] = state.constream_floor.try_emplace(p, t);
    if (!first && t > floor_it->second) floor_it->second = t;
  }
  if (catchup) {
    ++catchup_delivered_count_;
  } else if (auto pt = publish_times_.find(p); pt != publish_times_.end()) {
    if (auto tick_it = pt->second.find(t); tick_it != pt->second.end()) {
      e2e_latency_.add(to_millis(now - tick_it->second));
    }
  }
}

void DeliveryOracle::on_silence(SubscriberId, PubendId, Tick, SimTime) {}

void DeliveryOracle::on_gap(SubscriberId s, PubendId p, TickRange range, SimTime) {
  auto it = subs_.find(s);
  GRYPHON_CHECK(it != subs_.end());
  SubState& state = it->second;
  GRYPHON_CHECK_MSG(range.from <= range.to,
                    "malformed gap [" << range.from << ',' << range.to << "] for "
                                      << s << " on " << p);
  // A gap asserts "these will never arrive" — it may not cover an event we
  // already saw delivered …
  if (auto d = state.delivered.find(p); d != state.delivered.end()) {
    const auto covered = d->second.first_in(range.from, range.to);
    if (covered) note_violation(s, p, *covered, "gap covers delivered event");
    GRYPHON_CHECK_MSG(!covered, "gap [" << range.from << ',' << range.to << "] to " << s
                                        << " covers delivered event " << p << ':'
                                        << covered.value_or(0));
  }
  // … and may not open at/behind the live constream position (the constream
  // is lossless; only catchup may declare holes, always ahead of it).
  if (auto f = state.constream_floor.find(p); f != state.constream_floor.end()) {
    if (range.from <= f->second) {
      note_violation(s, p, range.from, "gap opens behind the constream position");
    }
    GRYPHON_CHECK_MSG(range.from > f->second,
                      "gap [" << range.from << ',' << range.to << "] to " << s
                              << " opens behind the constream position " << p << ':'
                              << f->second);
  }
  state.gaps[p].add(range);
  ++gap_count_;
}

void DeliveryOracle::on_connected(SubscriberId s, SimTime) {
  auto it = subs_.find(s);
  GRYPHON_CHECK(it != subs_.end());
  SubState& state = it->second;
  if (!state.saw_first_connect) {
    state.saw_first_connect = true;
    state.start_ct = state.client->checkpoint();
    return;
  }
  // Reconnection with a CT behind what we saw delivered: the acknowledgment
  // was lost (e.g. a JMS auto-ack CT commit dying with the SHB), so the
  // suffix past the CT is legitimately re-deliverable. Forget it; the
  // exactly-once check then requires it to be delivered again.
  const core::CheckpointToken& ct = state.client->checkpoint();
  for (auto& [p, ticks] : state.delivered) {
    ticks.erase_above(ct.of(p));
  }
  for (auto& [p, gaps] : state.gaps) {
    if (!gaps.empty()) gaps.subtract(ct.of(p) + 1, kTickInfinity - 1);
  }
  for (auto& [p, floor] : state.constream_floor) {
    floor = std::min(floor, ct.of(p));
  }
  // The re-deliverable suffix must be re-verified once it is re-delivered.
  for (auto& [p, upto] : state.verified_upto) {
    upto = std::min(upto, ct.of(p));
  }
}

void DeliveryOracle::reset_subscriber(SubscriberId s) {
  auto it = subs_.find(s);
  GRYPHON_CHECK(it != subs_.end());
  it->second.delivered.clear();
  it->second.gaps.clear();
  it->second.constream_floor.clear();
  it->second.verified_upto.clear();
  it->second.saw_first_connect = false;
}

void DeliveryOracle::verify_stream(SubscriberId s, const SubState& state, PubendId p,
                                   const std::map<Tick, matching::EventDataPtr>& events,
                                   Tick lo, Tick hi,
                                   std::vector<std::string>& out) const {
  const auto delivered_it = state.delivered.find(p);
  const auto gaps_it = state.gaps.find(p);
  const Tick upto = state.client->checkpoint().of(p);
  for (auto e = events.upper_bound(lo); e != events.end() && e->first <= hi; ++e) {
    const Tick t = e->first;
    if (!state.predicate->matches(*e->second)) continue;
    const bool got =
        delivered_it != state.delivered.end() && delivered_it->second.contains(t);
    const bool gapped = gaps_it != state.gaps.end() && gaps_it->second.contains(t);
    if (!got && !gapped) {
      std::ostringstream os;
      os << "subscriber " << s << " missed matching event " << p << ':' << t
         << " (horizon " << upto << ", no gap notification)";
      // Capture the pass's first finding — the one error messages quote —
      // as the flight-recorder focus.
      if (out.empty()) note_violation(s, p, t, os.str());
      out.push_back(os.str());
    }
  }
  // Deliveries in range must correspond to known published events.
  if (delivered_it != state.delivered.end()) {
    delivered_it->second.for_each_in(lo, hi, [&](Tick t) {
      if (!events.contains(t)) {
        std::ostringstream os;
        os << "subscriber " << s << " received unknown event " << p << ':' << t;
        if (out.empty()) note_violation(s, p, t, os.str());
        out.push_back(os.str());
      }
    });
  }
}

void DeliveryOracle::note_violation(SubscriberId s, PubendId p, Tick t,
                                    std::string what) const {
  last_violation_.valid = true;
  last_violation_.subscriber = s;
  last_violation_.pubend = p;
  last_violation_.tick = t;
  last_violation_.what = std::move(what);
}

std::vector<std::string> DeliveryOracle::verify(SubscriberId s) const {
  auto it = subs_.find(s);
  GRYPHON_CHECK_MSG(it != subs_.end(), "unregistered subscriber " << s);
  const SubState& state = it->second;
  std::vector<std::string> violations;
  if (!state.saw_first_connect) return violations;  // never joined: vacuous

  const core::CheckpointToken& horizon = state.client->checkpoint();
  for (const auto& [p, events] : published_) {
    verify_stream(s, state, p, events, state.start_ct.of(p), horizon.of(p), violations);
    // Deliveries outside (start, horizon] must still be known events.
    if (auto d = state.delivered.find(p); d != state.delivered.end()) {
      auto check_unknown = [&](Tick t) {
        if (!events.contains(t)) {
          std::ostringstream os;
          os << "subscriber " << s << " received unknown event " << p << ':' << t;
          violations.push_back(os.str());
        }
      };
      d->second.for_each_in(INT64_MIN, state.start_ct.of(p), check_unknown);
      d->second.for_each_in(horizon.of(p), kTickInfinity, check_unknown);
    }
  }
  return violations;
}

std::vector<std::string> DeliveryOracle::verify_all() const {
  std::vector<std::string> all;
  for (const auto& [s, state] : subs_) {
    auto v = verify(s);
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

std::vector<std::string> DeliveryOracle::verify_all_incremental() {
  std::vector<std::string> all;
  for (auto& [s, state] : subs_) {
    if (!state.saw_first_connect) continue;
    const core::CheckpointToken& horizon = state.client->checkpoint();
    for (const auto& [p, events] : published_) {
      const Tick hi = horizon.of(p);
      const Tick lo = std::max(state.start_ct.of(p), state.verified_upto[p]);
      if (hi <= lo) continue;  // nothing new acknowledged on this stream
      verify_stream(s, state, p, events, lo, hi, all);
      state.verified_upto[p] = hi;
    }
  }
  return all;
}

const RateMeter& DeliveryOracle::machine_rate(int machine) const {
  auto it = machine_rates_.find(machine);
  GRYPHON_CHECK_MSG(it != machine_rates_.end(), "unknown machine " << machine);
  return it->second;
}

std::vector<int> DeliveryOracle::machines() const {
  std::vector<int> out;
  out.reserve(machine_rates_.size());
  for (const auto& [m, meter] : machine_rates_) out.push_back(m);
  return out;
}

const std::map<Tick, matching::EventDataPtr>& DeliveryOracle::published(
    PubendId p) const {
  static const std::map<Tick, matching::EventDataPtr> kEmpty;
  auto it = published_.find(p);
  return it == published_.end() ? kEmpty : it->second;
}

}  // namespace gryphon::harness
