// Publisher Hosting Broker.
//
// Hosts pubends: accepts publishes, logs each event once (group-committed),
// and announces durable events/silence down the broker tree. Toward its
// children it is a ParentBroker (per-link content filtering, nack serving,
// release minima) whose nack cache is the pubends' authoritative ladder. It
// feeds the release minima to the pubends and applies the early-release
// policy.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/child_stream.hpp"
#include "core/pubend.hpp"

namespace gryphon::core {

class PublisherHostingBroker final : public ParentBroker {
 public:
  PublisherHostingBroker(NodeResources& resources, BrokerConfig config,
                         const std::vector<PubendId>& pubends,
                         ReleasePolicyPtr policy = std::make_shared<NoEarlyReleasePolicy>());

  /// Starts timers (silence generation, release application). Call once
  /// after wiring, or after a restart recovery.
  void start();

  /// Restart path: rebuild pubends from the log, child subscription filters
  /// from the database.
  void recover();

  [[nodiscard]] Pubend& pubend(PubendId p);
  [[nodiscard]] std::vector<PubendId> pubend_ids() const;

  struct Stats {
    std::uint64_t publishes = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t nacks_received = 0;
    std::uint64_t nack_response_events = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 protected:
  void handle(sim::EndpointId from, const Msg& msg) override;
  [[nodiscard]] SimDuration cost_of(const Msg& msg) const override;
  [[nodiscard]] Tick head(PubendId p) const override;

 private:
  void on_publish(sim::EndpointId from, const PublishMsg& msg);
  void on_nack(sim::EndpointId from, const NackMsg& msg);
  void on_subscribe(sim::EndpointId from, const SubscribeMsg& msg);

  /// Recomputes release mins for a pubend and feeds them to it.
  void refresh_release_mins(PubendId p);

  std::map<PubendId, std::unique_ptr<Pubend>> pubends_;
  ReleasePolicyPtr policy_;
  Stats stats_;

  // Registry slots, resolved once at construction (hot path = one add
  // through the pointer). The probes are broker-owned so a crash removes
  // their callbacks with the broker; the cumulative slots live on in the
  // node's registry.
  MetricsRegistry::Counter* m_publishes_;
  MetricsRegistry::Counter* m_duplicates_;
  MetricsRegistry::Counter* m_nacks_;
  MetricsRegistry::Counter* m_nack_events_served_;
  MetricsRegistry::Gauge* m_ack_floor_;
  Histogram* m_nack_span_;
  std::vector<MetricsRegistry::Probe> probes_;
};

}  // namespace gryphon::core
