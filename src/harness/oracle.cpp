#include "harness/oracle.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "util/assert.hpp"

namespace gryphon::harness {
namespace {

/// Calls fn(t) for every tick in `runs`, ascending.
template <typename Fn>
void for_each_tick(const std::vector<TickRange>& runs, Fn fn) {
  for (const TickRange& r : runs) {
    for (Tick t = r.from; t <= r.to; ++t) fn(t);
  }
}

}  // namespace

void DeliveryOracle::register_subscriber(const core::DurableSubscriber* client,
                                         matching::PredicatePtr predicate, int machine) {
  GRYPHON_CHECK(client != nullptr && predicate != nullptr);
  SubState state;
  state.client = client;
  state.predicate = std::move(predicate);
  state.machine_rate = &machine_rates_.try_emplace(machine, sec(1)).first->second;
  const SubscriberId id = client->id();
  auto [it, inserted] = subs_.emplace(id, std::move(state));
  if (!inserted) return;
  sub_order_.insert(std::upper_bound(sub_order_.begin(), sub_order_.end(), id), id);
  SubState& sub = it->second;
  const auto [group, fresh] = group_of_.try_emplace(sub.predicate->to_string(),
                                                    static_cast<std::uint32_t>(groups_.size()));
  if (fresh) {
    index_.add(SubscriberId{group->second}, sub.predicate);
    groups_.emplace_back();
  }
  groups_[group->second].push_back(static_cast<std::uint32_t>(slots_.size()));
  slots_.push_back(&sub);
  for (const auto& [p, events] : published_) owe_published_above(sub, stream(sub, p), p, kTickZero);
}

DeliveryOracle::StreamState& DeliveryOracle::stream(SubState& s, PubendId p) {
  if (p.value() >= s.streams.size()) s.streams.resize(p.value() + 1);
  return s.streams[p.value()];
}

DeliveryOracle::SubState& DeliveryOracle::sub_state(SubscriberId s) {
  auto it = subs_.find(s);
  GRYPHON_CHECK_MSG(it != subs_.end(), "unregistered subscriber " << s);
  return it->second;
}

void DeliveryOracle::set_head(StreamState& st, std::size_t head) {
  st.head = head;
  if (st.head == st.owed.size()) {
    st.owed.clear();
    st.head = 0;
  } else if (2 * st.head >= st.owed.size()) {
    // Moves fewer entries than were popped since the last compaction.
    st.owed.erase(st.owed.begin(), st.owed.begin() + static_cast<std::ptrdiff_t>(st.head));
    st.head = 0;
  }
}

void DeliveryOracle::on_published(PublisherId, PubendId pubend, Tick tick,
                                  const matching::EventDataPtr& event,
                                  SimTime publish_time, SimTime ack_time) {
  auto [it, inserted] = published_[pubend].emplace(tick, event);
  if (!inserted) return;  // duplicate ack of a retried publish
  if (pubend.value() >= publish_times_.size()) publish_times_.resize(pubend.value() + 1);
  // Acks from different publishers may arrive out of tick order.
  auto& times = publish_times_[pubend.value()];
  const std::pair<Tick, SimTime> entry{tick, publish_time};
  times.insert(std::upper_bound(times.begin(), times.end(), entry), entry);
  publish_latency_.add(to_millis(ack_time - publish_time));
  ++published_count_;

  index_.match_into(*event, matched_);
  if (cross_check_rng_.next_below(kCrossCheckEvery) == 0) cross_check(pubend, tick, *event);
  for (SubscriberId group : matched_) {
    for (std::uint32_t slot : groups_[group.value()]) {
      SubState& state = *slots_[slot];
      if (state.saw_first_connect && tick <= state.start_ct.of(pubend)) continue;
      StreamState& st = stream(state, pubend);
      if (st.gaps.contains(tick) || st.extra.contains(tick)) continue;  // excused, delivered
      if (tick <= st.delivered_max) {
        st.passed.add(tick, tick);
      } else {
        const auto head = st.owed.begin() + static_cast<std::ptrdiff_t>(st.head);
        st.owed.insert(std::upper_bound(head, st.owed.end(), tick), tick);
      }
    }
  }
}

void DeliveryOracle::cross_check(PubendId p, Tick t, const matching::EventData& event) {
  ++cross_checks_;
  std::vector<std::uint32_t> indexed;
  for (SubscriberId group : matched_) {
    indexed.insert(indexed.end(), groups_[group.value()].begin(), groups_[group.value()].end());
  }
  std::sort(indexed.begin(), indexed.end());
  std::vector<std::uint32_t> scanned;
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    ++predicate_evals_;
    if (slots_[slot]->predicate->matches(event)) scanned.push_back(slot);
  }
  GRYPHON_CHECK_MSG(indexed == scanned,
                    "the oracle's subscription index disagrees with a predicate scan on "
                        << p << ':' << t);
}

void DeliveryOracle::on_event(SubscriberId s, PubendId p, Tick t,
                              const matching::EventDataPtr& event, bool catchup,
                              SimTime now) {
  auto it = subs_.find(s);
  GRYPHON_CHECK_MSG(it != subs_.end(), "delivery to unregistered subscriber " << s);
  SubState& state = it->second;
  StreamState& st = stream(state, p);
  if (st.head < st.owed.size() && st.owed[st.head] == t) {
    // The owed head: matching and fresh by construction.
    set_head(st, st.head + 1);
    st.delivered_max = t;
  } else {
    deliver_rare(s, state, st, p, t, *event);
  }

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
    const auto at = std::lower_bound(times.begin(), times.end(),
                                     std::pair{t, std::numeric_limits<SimTime>::min()});
    if (at != times.end() && at->first == t) e2e_latency_.add(to_millis(now - at->second));
  }
}

void DeliveryOracle::deliver_rare(SubscriberId s, SubState& state, StreamState& st,
                                  PubendId p, Tick t, const matching::EventData& event) {
  ++predicate_evals_;
  const bool matches = state.predicate->matches(event);
  if (!matches) note_violation(s, p, t, "spurious delivery (predicate mismatch)");
  GRYPHON_CHECK_MSG(matches,
                    "spurious delivery: event at " << p << ':' << t
                                                   << " does not match subscriber " << s);
  const bool fresh = !delivered(state, st, p, t);
  if (!fresh) note_violation(s, p, t, "duplicate delivery");
  GRYPHON_CHECK_MSG(fresh, "duplicate delivery " << p << ':' << t << " to " << s);

  if (t > st.delivered_max) {
    // The client moved past every owed tick below t.
    const auto head = st.owed.begin() + static_cast<std::ptrdiff_t>(st.head);
    const auto skipped = std::lower_bound(head, st.owed.end(), t);
    for (auto o = head; o != skipped; ++o) st.passed.add(*o, *o);
    const bool owed = skipped != st.owed.end() && *skipped == t;
    set_head(st, static_cast<std::size_t>(skipped - st.owed.begin()) + (owed ? 1 : 0));
    st.delivered_max = t;
    if (owed) return;
  } else if (st.passed.contains(t)) {
    st.passed.subtract(t, t);
    return;
  }
  st.extra.add(t, t);  // not owed: gapped, unknown, unacknowledged or pre-start
}

bool DeliveryOracle::delivered(const SubState& s, const StreamState& st, PubendId p,
                               Tick t) const {
  if (t > st.delivered_max) return false;
  if (st.extra.contains(t)) return true;
  if (st.gaps.contains(t) || st.passed.contains(t)) return false;
  if (s.saw_first_connect && t <= s.start_ct.of(p)) return false;  // never owed
  // Expected, not owed, not excused: delivered.
  const auto& events = published(p);
  const auto e = events.find(t);
  if (e == events.end()) return false;
  ++predicate_evals_;
  return s.predicate->matches(*e->second);
}

void DeliveryOracle::owe_published_above(const SubState& s, StreamState& st, PubendId p,
                                         Tick above) {
  const auto& events = published(p);
  for (auto e = events.upper_bound(above); e != events.end(); ++e) {
    ++predicate_evals_;
    if (s.predicate->matches(*e->second)) st.owed.push_back(e->first);
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
  std::optional<Tick> covered;
  if (const auto x = st.extra.intersection(range.from, range.to); !x.empty()) {
    covered = x.front().from;
  }
  const auto& events = published(p);
  for (auto e = events.lower_bound(range.from);
       e != events.end() && e->first <= std::min(range.to, st.delivered_max) &&
       (!covered || e->first < *covered);
       ++e) {
    if (delivered(state, st, p, e->first)) covered = e->first;
  }
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
  // Gapped ticks are excused, no longer owed.
  const auto head = st.owed.begin() + static_cast<std::ptrdiff_t>(st.head);
  st.owed.erase(std::lower_bound(head, st.owed.end(), range.from),
                std::upper_bound(head, st.owed.end(), range.to));
  set_head(st, st.head);
  st.passed.subtract(range);
  ++gap_count_;
}

void DeliveryOracle::on_connected(SubscriberId s, SimTime) {
  SubState& state = sub_state(s);
  const core::CheckpointToken& ct = state.client->checkpoint();
  const bool first = !state.saw_first_connect;
  state.saw_first_connect = true;
  if (first) state.start_ct = ct;
  for (std::size_t v = 0; v < state.streams.size(); ++v) {
    StreamState& st = state.streams[v];
    const PubendId p{static_cast<std::uint32_t>(v)};
    const Tick upto = ct.of(p);
    const auto head = st.owed.begin() + static_cast<std::ptrdiff_t>(st.head);
    if (first) {
      // Ticks at or below the start CT predate the subscription: not owed.
      set_head(st, static_cast<std::size_t>(std::upper_bound(head, st.owed.end(), upto) -
                                            st.owed.begin()));
      continue;
    }
    // Reconnection with a CT behind what we saw delivered (or gapped): the
    // acknowledgment was lost (e.g. a JMS auto-ack CT commit dying with the
    // SHB), so the suffix past the CT is legitimately re-deliverable. Forget
    // it; the exactly-once check then requires it to be delivered again.
    if (st.delivered_max > upto || (!st.gaps.empty() && st.gaps.max() > upto)) {
      st.extra.subtract(upto + 1, kTickInfinity - 1);
      st.passed.subtract(upto + 1, kTickInfinity - 1);
      st.gaps.subtract(upto + 1, kTickInfinity - 1);
      st.owed.erase(std::upper_bound(head, st.owed.end(), upto), st.owed.end());
      owe_published_above(state, st, p, std::max(upto, state.start_ct.of(p)));
      set_head(st, st.head);
      st.delivered_max = std::min(st.delivered_max, upto);
    }
    if (st.constream_floor) st.constream_floor = std::min(*st.constream_floor, upto);
    // The re-deliverable suffix must be re-verified once it is re-delivered.
    st.verified_upto = std::min(st.verified_upto, upto);
  }
}

void DeliveryOracle::reset_subscriber(SubscriberId s) {
  SubState& state = sub_state(s);
  state.streams.clear();
  state.saw_first_connect = false;
  for (const auto& [p, events] : published_) owe_published_above(state, stream(state, p), p, kTickZero);
}

void DeliveryOracle::verify_stream(SubscriberId s, const SubState& state, PubendId p,
                                   const std::map<Tick, matching::EventDataPtr>& events,
                                   Tick lo, Tick hi, bool all_deliveries,
                                   std::vector<std::string>& out) const {
  if (p.value() >= state.streams.size()) return;  // never owed or delivered anything
  const StreamState* st = &state.streams[p.value()];
  const Tick upto = state.client->checkpoint().of(p);
  // Capture the pass's first finding — the one error messages quote — as
  // the flight-recorder focus.
  auto report = [&](Tick t, const std::ostringstream& os) {
    if (out.empty()) note_violation(s, p, t, os.str());
    out.push_back(os.str());
  };
  auto missed = [&](Tick t) {
    std::ostringstream os;
    os << "subscriber " << s << " missed matching event " << p << ':' << t << " (horizon "
       << upto << ", no gap notification)";
    report(t, os);
  };
  // Every owed tick the client acknowledged is a miss (passed ones first).
  if (lo < hi) {
    for_each_tick(st->passed.intersection(lo + 1, hi), missed);
    for (auto o = std::upper_bound(st->owed.begin() + static_cast<std::ptrdiff_t>(st->head),
                                   st->owed.end(), lo);
         o != st->owed.end() && *o <= hi; ++o) {
      missed(*o);
    }
  }
  // Deliveries must be published events (owed ticks are by construction).
  for_each_tick(all_deliveries ? st->extra.ranges() : st->extra.intersection(lo + 1, hi),
                [&](Tick t) {
                  if (events.contains(t)) return;
                  std::ostringstream os;
                  os << "subscriber " << s << " received unknown event " << p << ':' << t;
                  report(t, os);
                });
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
    verify_stream(s, state, p, events, state.start_ct.of(p), horizon.of(p),
                  /*all_deliveries=*/true, violations);
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
      verify_stream(s, state, p, events, lo, hi, /*all_deliveries=*/false, all);
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
