#include "core/pubend.hpp"

#include <algorithm>

#include "util/byte_buffer.hpp"
#include "util/logging.hpp"

namespace gryphon::core {

namespace {
constexpr const char* kPubendMetaTable = "pubend_meta";

std::vector<std::byte> encode_i64(std::int64_t v) {
  BufWriter w;
  w.put_i64(v);
  return w.take();
}
}  // namespace

Pubend::Pubend(PubendId id, NodeResources& resources, ReleasePolicyPtr policy)
    : id_(id), res_(resources), policy_(std::move(policy)) {
  GRYPHON_CHECK(policy_ != nullptr);
  log_stream_ = res_.log_volume.open_stream("events:" + std::to_string(id_.value()));
  auto& m = res_.metrics;
  m_events_logged_ = m.counter("pubend.events_logged");
  m_persisted_ = m.counter("pubend.events_persisted");
  m_ticks_chopped_ = m.counter("pubend.ticks_chopped");
  m_pressure_released_ = m.counter("pubend.pressure_released_ticks");
}

std::string Pubend::meta_key(const char* what) const {
  return std::to_string(id_.value()) + ':' + what;
}

void Pubend::recover() {
  // Durable boundary of the L prefix (committed on every release application).
  if (auto v = res_.database.get(kPubendMetaTable, meta_key("lost_upto"))) {
    BufReader r(*v);
    lost_upto_ = r.get_i64();
  }
  if (auto v = res_.database.get(kPubendMetaTable, meta_key("last_tick"))) {
    BufReader r(*v);
    last_assigned_ = r.get_i64();
  }
  if (lost_upto_ > kTickZero) ticks_.force_lost(kTickZero + 1, lost_upto_);

  // Replay the durable log suffix: D ticks, with S in between (the pubend is
  // authoritative — every non-D tick up to the last logged one is S).
  auto& volume = res_.log_volume;
  Tick prev = lost_upto_;
  storage::LogIndex rechop_upto = storage::kNoIndex;
  for (storage::LogIndex i = volume.first_index(log_stream_);
       i <= volume.durable_index(log_stream_); ++i) {
    const auto bytes = volume.read(log_stream_, i);
    if (!bytes) continue;
    LoggedEvent e = decode_logged_event(*bytes);
    if (e.tick <= lost_upto_) {
      // Resurrected below the released boundary: the release-protocol chop
      // frame for these records was still in the page cache at the crash,
      // but the DB commit of lost_upto was durable. The ticks are already
      // forced-lost; drop the records again instead of replaying them.
      rechop_upto = i;
      last_assigned_ = std::max(last_assigned_, e.tick);
      continue;
    }
    GRYPHON_CHECK(e.tick > prev);
    if (e.tick > prev + 1) ticks_.set_silence(prev + 1, e.tick - 1);
    ticks_.set_data(e.tick, e.event);
    retained_records_.emplace_back(e.tick, i);
    accepted_pubs_[e.publisher][e.seq] = e.tick;
    prev = e.tick;
    last_assigned_ = std::max(last_assigned_, e.tick);
  }
  if (rechop_upto != storage::kNoIndex) volume.chop(log_stream_, rechop_upto);
  announced_upto_ = std::max(prev, lost_upto_);
  last_assigned_ = std::max(last_assigned_, announced_upto_);
  released_min_ = std::min(released_min_, announced_upto_);
}

Pubend::Accepted Pubend::accept_publish(PublisherId publisher, std::uint64_t seq,
                                        std::uint64_t acked_below,
                                        const matching::EventDataPtr& event,
                                        SimTime now) {
  auto& window = accepted_pubs_[publisher];
  window.erase(window.begin(), window.lower_bound(acked_below));
  if (auto it = window.find(seq); it != window.end()) {
    return {true, it->second};  // retry of an accepted publish: re-ack its tick
  }
  if (seq < acked_below) {
    // The publisher already saw this seq's ack, so it cannot be waiting for
    // this one; any tick satisfies the (discarded) duplicate ack.
    return {true, last_assigned_};
  }
  const Tick tick =
      std::max({last_assigned_ + 1, announced_upto_ + 1, tick_of_simtime(now)});
  last_assigned_ = tick;
  window.emplace(seq, tick);
  pending_durable_.insert(tick);

  const storage::LogIndex idx = res_.log_volume.append(
      log_stream_, encode_logged_event({tick, publisher, seq, event},
                                       res_.log_volume.acquire_buffer()));
  retained_records_.emplace_back(tick, idx);
  ++events_logged_;
  m_events_logged_->inc();
  res_.tracer.record(now, id_.value(), tick, TraceMilestone::kPublish);
  return {false, tick};
}

TickRange Pubend::announce_data(Tick tick, matching::EventDataPtr event) {
  GRYPHON_CHECK_MSG(tick > announced_upto_,
                    "announce " << tick << " behind horizon " << announced_upto_);
  pending_durable_.erase(tick);
  const Tick from = announced_upto_ + 1;
  if (tick > from) ticks_.set_silence(from, tick - 1);
  ticks_.set_data(tick, std::move(event));
  announced_upto_ = tick;
  m_persisted_->inc();
  res_.tracer.record(res_.sim.now(), id_.value(), tick, TraceMilestone::kPersist);
  return {from, tick};
}

std::optional<TickRange> Pubend::announce_silence(SimTime now) {
  // Silence may not pass an accepted event still waiting for durability.
  Tick horizon = tick_of_simtime(now) - 1;
  if (!pending_durable_.empty()) {
    horizon = std::min(horizon, *pending_durable_.begin() - 1);
  }
  if (horizon <= announced_upto_) return std::nullopt;
  const TickRange region{announced_upto_ + 1, horizon};
  ticks_.set_silence(region.from, region.to);
  announced_upto_ = horizon;
  return region;
}

void Pubend::update_mins(Tick released_min, Tick delivered_min) {
  GRYPHON_CHECK(released_min <= delivered_min);
  // A regressed Tr (a subscription migrated onto some SHB with an older
  // checkpoint) simply delays future releases; the already-lost prefix is
  // monotone regardless.
  released_min_ = released_min;
  delivered_min_ = std::max(delivered_min_, delivered_min);
}

std::optional<TickRange> Pubend::apply_release(SimTime now) {
  const Tick boundary = std::min(
      policy_->release_upto(released_min_, delivered_min_, tick_of_simtime(now)),
      announced_upto_);
  if (boundary <= lost_upto_) return std::nullopt;
  const TickRange lost{lost_upto_ + 1, boundary};
  ticks_.force_lost(lost.from, lost.to);

  // Chop the event log behind the boundary.
  storage::LogIndex chop_to = storage::kNoIndex;
  while (!retained_records_.empty() && retained_records_.front().first <= boundary) {
    chop_to = retained_records_.front().second;
    retained_records_.pop_front();
  }
  if (chop_to != storage::kNoIndex) res_.log_volume.chop(log_stream_, chop_to);
  lost_upto_ = boundary;
  m_ticks_chopped_->inc(static_cast<std::uint64_t>(lost.to - lost.from + 1));
  if (policy_->pressure() > 0.0) {
    // Degradation accounting: ticks chopped while the adaptive policy was
    // squeezing retention below its relaxed maximum.
    m_pressure_released_->inc(static_cast<std::uint64_t>(lost.to - lost.from + 1));
  }
  res_.tracer.record_range(now, id_.value(), lost.from, lost.to,
                           TraceMilestone::kReleaseToL);
  GRYPHON_LOG(kDebug, res_.name,
              "pubend " << id_ << " released ticks " << lost.from << ".." << lost.to
                        << " (Tr=" << released_min_ << " Td=" << delivered_min_ << ")");

  // Persist the boundary so recovery reproduces the L prefix. Group-batched
  // by the database; no callback needed (recovery tolerates a stale value —
  // it just recovers a smaller L prefix and re-releases).
  res_.database.commit(0, {{kPubendMetaTable, meta_key("lost_upto"), encode_i64(lost_upto_)},
                           {kPubendMetaTable, meta_key("last_tick"), encode_i64(last_assigned_)}});
  return lost;
}

}  // namespace gryphon::core
