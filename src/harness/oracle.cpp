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
  state.machine_rate = &machine_rates_.try_emplace(machine, sec(1)).first->second;
  const SubscriberId id = client->id();
  if (subs_.emplace(id, std::move(state)).second) {
    sub_order_.insert(std::upper_bound(sub_order_.begin(), sub_order_.end(), id), id);
  }
}

DeliveryOracle::StreamState& DeliveryOracle::stream(SubState& s, PubendId p) {
  if (p.value() >= s.streams.size()) s.streams.resize(p.value() + 1);
  return s.streams[p.value()];
}

const DeliveryOracle::StreamState* DeliveryOracle::find_stream(const SubState& s,
                                                               PubendId p) {
  return p.value() < s.streams.size() ? &s.streams[p.value()] : nullptr;
}

DeliveryOracle::SubState& DeliveryOracle::sub_state(SubscriberId s) {
  auto it = subs_.find(s);
  GRYPHON_CHECK_MSG(it != subs_.end(), "unregistered subscriber " << s);
  return it->second;
}

void DeliveryOracle::on_published(PublisherId, PubendId pubend, Tick tick,
                                  const matching::EventDataPtr& event,
                                  SimTime publish_time, SimTime ack_time) {
  auto [it, inserted] = published_[pubend].emplace(tick, event);
  if (!inserted) return;  // duplicate ack of a retried publish
  if (pubend.value() >= publish_times_.size()) publish_times_.resize(pubend.value() + 1);
  publish_times_[pubend.value()].emplace(tick, publish_time);
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
  StreamState& st = stream(state, p);
  const bool fresh = st.delivered.insert(t);
  if (!fresh) note_violation(s, p, t, "duplicate delivery");
  GRYPHON_CHECK_MSG(fresh, "duplicate delivery " << p << ':' << t << " to " << s);

  ++delivered_count_;
  delivery_rate_.record(now);
  state.machine_rate->record(now);
  if (catchup) {
    ++catchup_delivered_count_;
    return;
  }
  if (!st.constream_floor || t > *st.constream_floor) st.constream_floor = t;
  if (p.value() < publish_times_.size()) {
    const auto& times = publish_times_[p.value()];
    if (auto tick_it = times.find(t); tick_it != times.end()) {
      e2e_latency_.add(to_millis(now - tick_it->second));
    }
  }
}

void DeliveryOracle::on_silence(SubscriberId, PubendId, Tick, SimTime) {}

void DeliveryOracle::on_gap(SubscriberId s, PubendId p, TickRange range, SimTime) {
  SubState& state = sub_state(s);
  GRYPHON_CHECK_MSG(range.from <= range.to,
                    "malformed gap [" << range.from << ',' << range.to << "] for "
                                      << s << " on " << p);
  StreamState& st = stream(state, p);
  // A gap asserts "these will never arrive" — it may not cover an event we
  // already saw delivered …
  const auto covered = st.delivered.first_in(range.from, range.to);
  if (covered) note_violation(s, p, *covered, "gap covers delivered event");
  GRYPHON_CHECK_MSG(!covered, "gap [" << range.from << ',' << range.to << "] to " << s
                                      << " covers delivered event " << p << ':'
                                      << covered.value_or(0));
  // … and may not open at/behind the live constream position (the constream
  // is lossless; only catchup may declare holes, always ahead of it).
  if (st.constream_floor) {
    const Tick floor = *st.constream_floor;
    if (range.from <= floor) {
      note_violation(s, p, range.from, "gap opens behind the constream position");
    }
    GRYPHON_CHECK_MSG(range.from > floor,
                      "gap [" << range.from << ',' << range.to << "] to " << s
                              << " opens behind the constream position " << p << ':'
                              << floor);
  }
  st.gaps.add(range);
  ++gap_count_;
}

void DeliveryOracle::on_connected(SubscriberId s, SimTime) {
  SubState& state = sub_state(s);
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
  for (std::size_t v = 0; v < state.streams.size(); ++v) {
    StreamState& st = state.streams[v];
    const Tick upto = ct.of(PubendId{static_cast<std::uint32_t>(v)});
    st.delivered.erase_above(upto);
    if (!st.gaps.empty()) st.gaps.subtract(upto + 1, kTickInfinity - 1);
    if (st.constream_floor) st.constream_floor = std::min(*st.constream_floor, upto);
    // The re-deliverable suffix must be re-verified once it is re-delivered.
    st.verified_upto = std::min(st.verified_upto, upto);
  }
}

void DeliveryOracle::reset_subscriber(SubscriberId s) {
  SubState& state = sub_state(s);
  state.streams.clear();
  state.saw_first_connect = false;
}

void DeliveryOracle::verify_stream(SubscriberId s, const SubState& state, PubendId p,
                                   const std::map<Tick, matching::EventDataPtr>& events,
                                   Tick lo, Tick hi,
                                   std::vector<std::string>& out) const {
  const StreamState* st = find_stream(state, p);
  const Tick upto = state.client->checkpoint().of(p);
  for (auto e = events.upper_bound(lo); e != events.end() && e->first <= hi; ++e) {
    const Tick t = e->first;
    if (!state.predicate->matches(*e->second)) continue;
    const bool got = st != nullptr && st->delivered.contains(t);
    const bool gapped = st != nullptr && st->gaps.contains(t);
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
  if (st != nullptr) {
    st->delivered.for_each_in(lo, hi, [&](Tick t) {
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
    if (const StreamState* st = find_stream(state, p); st != nullptr) {
      auto check_unknown = [&](Tick t) {
        if (!events.contains(t)) {
          std::ostringstream os;
          os << "subscriber " << s << " received unknown event " << p << ':' << t;
          violations.push_back(os.str());
        }
      };
      st->delivered.for_each_in(INT64_MIN, state.start_ct.of(p), check_unknown);
      st->delivered.for_each_in(horizon.of(p), kTickInfinity, check_unknown);
    }
  }
  return violations;
}

std::vector<std::string> DeliveryOracle::verify_all() const {
  std::vector<std::string> all;
  for (SubscriberId s : sub_order_) {
    auto v = verify(s);
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

std::vector<std::string> DeliveryOracle::verify_all_incremental() {
  std::vector<std::string> all;
  for (SubscriberId s : sub_order_) {
    SubState& state = subs_.at(s);
    if (!state.saw_first_connect) continue;
    const core::CheckpointToken& horizon = state.client->checkpoint();
    for (const auto& [p, events] : published_) {
      const Tick hi = horizon.of(p);
      const Tick lo = std::max(state.start_ct.of(p), stream(state, p).verified_upto);
      if (hi <= lo) continue;  // nothing new acknowledged on this stream
      verify_stream(s, state, p, events, lo, hi, all);
      stream(state, p).verified_upto = hi;
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
