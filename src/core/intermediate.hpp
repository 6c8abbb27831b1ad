// Intermediate broker (paper §3): a pure cache-and-relay node.
//
// Downstream (ParentBroker): routes knowledge to children, content-filtered
// per link, serving nack responses from its volatile event cache. Upstream:
// forwards subscription changes, aggregates release mins, and
// *consolidates* nacks — overlapping curiosity from several children
// becomes one upstream nack, and the single response fans back out to
// every curious child. The cache is a TickMap with bounded span; losing
// cached knowledge never affects correctness, only where nacks must travel.
#pragma once

#include <map>
#include <vector>

#include "core/child_stream.hpp"
#include "routing/tick_map.hpp"

namespace gryphon::core {

class IntermediateBroker final : public ParentBroker {
 public:
  IntermediateBroker(NodeResources& resources, BrokerConfig config,
                     const std::vector<PubendId>& pubends);

  void set_parent(sim::EndpointId parent) { parent_ = parent; }

  /// Starts timers and performs the resume handshake with the parent.
  /// `fresh` distinguishes first boot (resume from stream start) from a
  /// restart (resume from the parent's head; children repair via nacks).
  void start(bool fresh = true);

  /// Restart path: reload child subscription filters; cache starts cold.
  void recover();

  [[nodiscard]] Tick cache_head(PubendId p) const { return per(p).cache.head(); }
  [[nodiscard]] std::size_t cached_events(PubendId p) const {
    return per(p).cache.retained_events();
  }

  struct Stats {
    std::uint64_t items_relayed = 0;
    std::uint64_t nacks_from_children = 0;
    std::uint64_t nacks_forwarded_upstream = 0;
    std::uint64_t nack_events_served_from_cache = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 protected:
  void handle(sim::EndpointId from, const Msg& msg) override;
  [[nodiscard]] SimDuration cost_of(const Msg& msg) const override;
  [[nodiscard]] Tick head(PubendId p) const override { return cache_head(p); }
  /// A new link streams everything relayed from now on, not only what lies
  /// past the cache head.
  [[nodiscard]] Tick new_link_start(PubendId) const override { return kTickZero; }

 private:
  struct PerPubend {
    routing::TickMap cache{kTickZero};
    IntervalSet upstream_pending;  // consolidated nacks awaiting response
  };

  PerPubend& per(PubendId p);
  [[nodiscard]] const PerPubend& per(PubendId p) const;

  void on_stream_data(const StreamDataMsg& msg);
  void on_nack(sim::EndpointId from, const NackMsg& msg);
  void send_release_mins();

  sim::EndpointId parent_ = 0;
  std::map<PubendId, PerPubend> pubends_;
  /// Which child to route a pending SubscribeAck back to.
  std::map<SubscriberId, sim::EndpointId> subscribe_origin_;
  Stats stats_;

  // Registry slots, resolved once at construction.
  MetricsRegistry::Counter* m_items_relayed_;
  MetricsRegistry::Counter* m_nacks_from_children_;
  MetricsRegistry::Counter* m_nacks_consolidated_upstream_;
  MetricsRegistry::Counter* m_cache_hit_events_;
  MetricsRegistry::Counter* m_cache_miss_ticks_;
};

}  // namespace gryphon::core
