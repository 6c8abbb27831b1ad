// The wire-message vocabulary of the broker network and the client protocol.
//
// Broker <-> broker:
//   StreamDataMsg     knowledge (D/S/L items) flowing down the tree, both
//                     fresh in-order streaming and nack responses
//   NackMsg           curiosity flowing up: "these ranges are Q for me"
//   ReleaseUpdateMsg  (released, latestDelivered) mins flowing up
//   SubscribeMsg /    subscription (predicate) propagation up the tree, for
//   UnsubscribeMsg    link-level filtering
//   BrokerResumeMsg   child (re)connects and tells the parent where to
//                     resume each pubend's stream
//
// Client <-> broker:
//   PublishMsg / PublishAckMsg          publisher <-> PHB (at-least-once +
//                                       pubend-side dedup = exactly-once log)
//   ConnectMsg / ConnectedMsg /         durable subscriber session control
//   DisconnectMsg / UnsubscribeReqMsg
//   AckMsg                              subscriber pushes its CT (paper §2)
//   EventDeliveryMsg / SilenceDeliveryMsg / GapDeliveryMsg
//                                       the three message kinds of §2
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/checkpoint_token.hpp"
#include "matching/event.hpp"
#include "routing/tick_map.hpp"
#include "sim/message.hpp"
#include "util/ids.hpp"
#include "util/interval_set.hpp"
#include "util/time.hpp"

namespace gryphon::core {

enum class MsgKind : std::uint8_t {
  kStreamData,
  kNack,
  kReleaseUpdate,
  kSubscribe,
  kSubscribeAck,
  kUnsubscribe,
  kBrokerResume,
  kPublish,
  kPublishAck,
  kConnect,
  kConnected,
  kDisconnect,
  kUnsubscribeReq,
  kAck,
  kEventDelivery,
  kSilenceDelivery,
  kGapDelivery,
  kJmsConsumed,
};

/// The largest valid kind byte; the frame layer rejects anything above it.
constexpr auto kMaxMsgKind = static_cast<std::uint8_t>(MsgKind::kJmsConsumed);

/// Fixed per-message envelope size — exactly the wire frame header
/// (wire/frame.hpp: magic, version, kind, length, CRC32C, padded to 64
/// bytes). Single source of truth; the frame static-asserts against it.
constexpr std::size_t kEnvelopeBytes = 64;

class Msg : public sim::Message {
 public:
  explicit Msg(MsgKind kind) : kind_(kind) {}
  [[nodiscard]] MsgKind kind() const { return kind_; }

  /// kEnvelopeBytes + the payload's byte count, counted by running the
  /// payload encoder (core/message_codec.cpp) over a ByteCounter. The
  /// encoder is the only description of a payload, so the bandwidth model
  /// prices exactly the bytes the wire codec writes, in every wire mode.
  [[nodiscard]] std::size_t wire_size() const final;

 private:
  MsgKind kind_;
};

// ---------------------------------------------------------------- brokers

struct StreamDataMsg final : Msg {
  StreamDataMsg(PubendId p, std::vector<routing::KnowledgeItem> its)
      : Msg(MsgKind::kStreamData), pubend(p), items(std::move(its)) {}

  PubendId pubend;
  std::vector<routing::KnowledgeItem> items;
};

struct NackMsg final : Msg {
  NackMsg(PubendId p, std::vector<TickRange> rs, bool authoritative = false)
      : Msg(MsgKind::kNack),
        pubend(p),
        ranges(std::move(rs)),
        authoritative_only(authoritative) {}

  PubendId pubend;
  std::vector<TickRange> ranges;
  /// Refiltering recovery (reconnect-anywhere): intermediate caches must
  /// not answer — their S knowledge was filtered against an older
  /// subscription set; only the pubend's ladder is authoritative.
  bool authoritative_only;
};

struct ReleaseUpdateMsg final : Msg {
  ReleaseUpdateMsg(PubendId p, Tick rel, Tick ld)
      : Msg(MsgKind::kReleaseUpdate), pubend(p), released(rel), latest_delivered(ld) {}

  PubendId pubend;
  Tick released;
  Tick latest_delivered;
};

struct SubscribeMsg final : Msg {
  SubscribeMsg(SubscriberId s, std::string pred)
      : Msg(MsgKind::kSubscribe), subscriber(s), predicate_text(std::move(pred)) {}

  SubscriberId subscriber;
  std::string predicate_text;
};

struct SubscribeAckMsg final : Msg {
  SubscribeAckMsg(SubscriberId s, std::vector<std::pair<PubendId, Tick>> hs)
      : Msg(MsgKind::kSubscribeAck), subscriber(s), heads(std::move(hs)) {}

  SubscriberId subscriber;
  /// Pubend heads at the instant the PHB applied the subscription: every
  /// tick after these is filtered with the new subscription included. The
  /// SHB needs this boundary to start new subscribers without a propagation
  /// hole and to bound refiltering for migrated ones.
  std::vector<std::pair<PubendId, Tick>> heads;
};

struct UnsubscribeMsg final : Msg {
  explicit UnsubscribeMsg(SubscriberId s) : Msg(MsgKind::kUnsubscribe), subscriber(s) {}

  SubscriberId subscriber;
};

struct BrokerResumeMsg final : Msg {
  explicit BrokerResumeMsg(std::vector<std::pair<PubendId, Tick>> points)
      : Msg(MsgKind::kBrokerResume), resume_from(std::move(points)) {}

  /// Per pubend: the child has everything <= tick; stream from tick+1.
  std::vector<std::pair<PubendId, Tick>> resume_from;
};

// ---------------------------------------------------------------- publishers

struct PublishMsg final : Msg {
  PublishMsg(PublisherId pub, std::uint64_t s, std::uint64_t floor, PubendId p,
             matching::EventDataPtr ev)
      : Msg(MsgKind::kPublish),
        publisher(pub),
        seq(s),
        acked_below(floor),
        pubend(p),
        event(std::move(ev)) {}

  PublisherId publisher;
  std::uint64_t seq;  // publisher-assigned, for PHB-side dedup on retry
  /// Cumulative ack floor: every seq below this has been acked to the
  /// publisher and will never be retried. Lets the pubend prune its exact
  /// per-seq dedup window (a plain "latest seq" comparison is wrong: after a
  /// PHB outage, retried old seqs arrive behind fresh higher seqs and would
  /// be dropped-but-acked as duplicates).
  std::uint64_t acked_below;
  PubendId pubend;
  matching::EventDataPtr event;
};

struct PublishAckMsg final : Msg {
  PublishAckMsg(PublisherId pub, std::uint64_t s, Tick t)
      : Msg(MsgKind::kPublishAck), publisher(pub), seq(s), assigned_tick(t) {}

  PublisherId publisher;
  std::uint64_t seq;
  Tick assigned_tick;
};

// ---------------------------------------------------------------- subscribers

struct ConnectMsg final : Msg {
  ConnectMsg(SubscriberId s, bool first, std::string pred, CheckpointToken token,
             bool jms = false, bool stored_ct = false)
      : Msg(MsgKind::kConnect),
        subscriber(s),
        first_connect(first),
        predicate_text(std::move(pred)),
        ct(std::move(token)),
        jms_auto_ack(jms),
        use_stored_ct(stored_ct) {}

  SubscriberId subscriber;
  bool first_connect;          // create the durable subscription
  std::string predicate_text;  // used when the SHB does not know the sub yet
  CheckpointToken ct;          // resumption point (ignored on first connect)
  bool jms_auto_ack;           // SHB-managed CT, committed per event (§5.2)
  bool use_stored_ct;          // resume from the SHB's stored CT (JMS mode)
};

struct ConnectedMsg final : Msg {
  ConnectedMsg(SubscriberId s, CheckpointToken token)
      : Msg(MsgKind::kConnected), subscriber(s), initial_ct(std::move(token)) {}

  SubscriberId subscriber;
  /// On first connect: the starting CT (latestDelivered of every pubend).
  CheckpointToken initial_ct;
};

struct DisconnectMsg final : Msg {
  explicit DisconnectMsg(SubscriberId s) : Msg(MsgKind::kDisconnect), subscriber(s) {}

  SubscriberId subscriber;
};

struct UnsubscribeReqMsg final : Msg {
  explicit UnsubscribeReqMsg(SubscriberId s)
      : Msg(MsgKind::kUnsubscribeReq), subscriber(s) {}

  SubscriberId subscriber;
};

struct AckMsg final : Msg {
  AckMsg(SubscriberId s, CheckpointToken token)
      : Msg(MsgKind::kAck), subscriber(s), ct(std::move(token)) {}

  SubscriberId subscriber;
  CheckpointToken ct;
};

struct EventDeliveryMsg final : Msg {
  EventDeliveryMsg(SubscriberId s, PubendId p, Tick t, matching::EventDataPtr ev,
                   bool catchup)
      : Msg(MsgKind::kEventDelivery),
        subscriber(s),
        pubend(p),
        tick(t),
        event(std::move(ev)),
        from_catchup(catchup) {}

  SubscriberId subscriber;
  PubendId pubend;
  Tick tick;
  matching::EventDataPtr event;
  bool from_catchup;  // diagnostics only
};

struct SilenceDeliveryMsg final : Msg {
  SilenceDeliveryMsg(SubscriberId s, PubendId p, Tick t)
      : Msg(MsgKind::kSilenceDelivery), subscriber(s), pubend(p), upto(t) {}

  SubscriberId subscriber;
  PubendId pubend;
  Tick upto;  // guarantees no matching events in (previous, upto]
};

struct JmsConsumedMsg final : Msg {
  JmsConsumedMsg(SubscriberId s, PubendId p, Tick t)
      : Msg(MsgKind::kJmsConsumed), subscriber(s), pubend(p), tick(t) {}

  SubscriberId subscriber;
  PubendId pubend;
  Tick tick;
};

struct GapDeliveryMsg final : Msg {
  GapDeliveryMsg(SubscriberId s, PubendId p, TickRange r)
      : Msg(MsgKind::kGapDelivery), subscriber(s), pubend(p), range(r) {}

  SubscriberId subscriber;
  PubendId pubend;
  TickRange range;  // there MAY have been matching events in (prev, range.to]
};

}  // namespace gryphon::core
