// The parent side of a broker-tree link, shared by the PHB and the
// intermediate broker.
//
// ChildStream is the per-(child link, pubend) downstream stream state. Two
// flows reach a child: the fresh in-order stream (everything past
// sent_upto) and responses to the child's nacks (pending_nacks). on_items()
// routes incoming/locally-generated knowledge into both, so a nack response
// fetched from upstream for one child is forwarded to every child that is
// curious about it — the nack-consolidation fan-out of paper §3.
//
// ParentBroker is the role both brokers play for their children (paper §3):
// knowledge flows down each link filtered by that child's subscriptions,
// curiosity comes up and is served from a local TickMap, and the children's
// released/latestDelivered reports are reduced to per-pubend minima.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/broker.hpp"
#include "matching/subscription_index.hpp"
#include "routing/tick_map.hpp"
#include "util/interval_set.hpp"
#include "util/time.hpp"

namespace gryphon::core {

/// Converts items for a downstream link: D events that match no subscription
/// in `filter` become S (content filtering at interior nodes); adjacent
/// S/S and L/L ranges are merged. A null filter forwards everything.
[[nodiscard]] std::vector<routing::KnowledgeItem> filter_items(
    const std::vector<routing::KnowledgeItem>& items,
    const matching::SubscriptionIndex* filter);

class ChildStream {
 public:
  explicit ChildStream(Tick start = kTickZero) : sent_upto_(start) {}

  [[nodiscard]] Tick sent_upto() const { return sent_upto_; }

  /// Child (re)connected: resume the fresh stream from `resume`, dropping
  /// stale curiosity.
  void reset(Tick resume) {
    sent_upto_ = resume;
    pending_nacks_.clear();
  }

  /// Routes knowledge (tick-ordered items) to this child: returns the parts
  /// it should receive — nack responses plus fresh stream past sent_upto —
  /// and advances sent_upto/pending accordingly.
  [[nodiscard]] std::vector<routing::KnowledgeItem> on_items(
      const std::vector<routing::KnowledgeItem>& items);

  struct NackOutcome {
    /// Items servable right now from the local cache.
    std::vector<routing::KnowledgeItem> respond;
    /// Ranges unknown locally; recorded pending here, to be consolidated
    /// upstream by the caller.
    std::vector<TickRange> unknown;
  };

  /// Child nacked `ranges`; serve what `cache` knows, remember the rest.
  [[nodiscard]] NackOutcome on_nack(const std::vector<TickRange>& ranges,
                                    const routing::TickMap& cache);

  /// Records curiosity without serving (authoritative-only nacks passing
  /// through: the response from upstream will be routed here).
  void add_pending(TickRange r) { pending_nacks_.add(r); }

  [[nodiscard]] const IntervalSet& pending_nacks() const { return pending_nacks_; }

  /// Release-protocol values last reported by this child.
  Tick released = kTickZero;
  Tick latest_delivered = kTickZero;

 private:
  Tick sent_upto_;
  IntervalSet pending_nacks_;
};

class ParentBroker : public Broker {
 public:
  /// Registers a downstream broker link (topology wiring; links themselves
  /// are created by the harness). Its streams start past new_link_start(p).
  void add_child(sim::EndpointId child);

 protected:
  /// `subs_table` names the Database table holding the child filters.
  ParentBroker(NodeResources& resources, BrokerConfig config,
               const std::vector<PubendId>& pubends, const char* subs_table);

  /// Highest tick of pubend p known here: a resuming child's fresh stream
  /// restarts past it.
  [[nodiscard]] virtual Tick head(PubendId p) const = 0;
  /// Where a newly added link's stream of pubend p starts.
  [[nodiscard]] virtual Tick new_link_start(PubendId p) const { return head(p); }

  ChildStream& stream(sim::EndpointId ep, PubendId p);
  [[nodiscard]] std::size_t child_count() const { return children_.size(); }

  /// Routes knowledge of pubend p (tick-ordered items) to every child.
  void fanout(PubendId p, const std::vector<routing::KnowledgeItem>& items);

  struct NackServed {
    /// D items in the response.
    std::size_t events = 0;
    /// Ranges `cache` does not know; left pending on the child's stream.
    std::vector<TickRange> unknown;
  };

  /// Serves a child's nack from `cache`: the known items are sent back after
  /// per_nack_response_event of CPU per D item.
  NackServed serve_nack(sim::EndpointId from, const NackMsg& msg,
                        const routing::TickMap& cache);

  /// Records a child's release-protocol report.
  void note_release_update(sim::EndpointId from, const ReleaseUpdateMsg& msg);

  struct ReleaseMins {
    Tick released;
    Tick latest_delivered;
  };
  /// Minima of the children's reports for pubend p; none without children.
  [[nodiscard]] std::optional<ReleaseMins> release_mins(PubendId p) const;

  /// A child resumed: each named stream restarts past head(p). The span the
  /// child missed while down is recovered through its curiosity stream under
  /// its own flow control (paper §5.3: the constream "nacks the events it
  /// missed"), not by an unbounded replay burst.
  void resume_child(sim::EndpointId from, const BrokerResumeMsg& msg);

  /// Adds / removes a subscription in the child's filter and persists it.
  void add_child_subscription(sim::EndpointId from, SubscriberId sub,
                              const std::string& predicate);
  void remove_child_subscription(sim::EndpointId from, SubscriberId sub);

  /// Restart path: reloads the child filters persisted on every
  /// (un)subscribe and returns the restored rows in key order.
  std::vector<std::pair<SubscriberId, std::string>> recover_child_filters();

 private:
  struct Child {
    sim::EndpointId endpoint;
    matching::SubscriptionIndex filter;
    std::map<PubendId, ChildStream> streams;
  };

  Child& child(sim::EndpointId ep);
  /// Sends items to one child, filtered and chunked.
  void send_items(Child& c, PubendId p, const std::vector<routing::KnowledgeItem>& items);
  void persist_subscription(sim::EndpointId child, SubscriberId sub,
                            const std::string& predicate, bool add);

  const char* subs_table_;
  std::vector<PubendId> pubend_ids_;
  std::map<sim::EndpointId, Child> children_;
};

}  // namespace gryphon::core
