#include "core/message_codec.hpp"

#include "core/event_codec.hpp"
#include "routing/ticks.hpp"
#include "util/assert.hpp"

namespace gryphon::core {
namespace {

// ConnectMsg flag bits.
constexpr std::uint8_t kFlagFirstConnect = 1u << 0;
constexpr std::uint8_t kFlagJmsAutoAck = 1u << 1;
constexpr std::uint8_t kFlagUseStoredCt = 1u << 2;
constexpr std::uint8_t kKnownConnectFlags =
    kFlagFirstConnect | kFlagJmsAutoAck | kFlagUseStoredCt;

template <typename W>
void put_range(W& w, const TickRange& r) {
  w.put_i64(r.from);
  w.put_i64(r.to);
}

TickRange get_range(BufReader& r) {
  const Tick from = r.get_i64();
  const Tick to = r.get_i64();
  return TickRange{from, to};
}

template <typename W>
void put_heads(W& w, const std::vector<std::pair<PubendId, Tick>>& heads) {
  w.put_u32(static_cast<std::uint32_t>(heads.size()));
  for (const auto& [p, t] : heads) {
    w.put_u32(p.value());
    w.put_i64(t);
  }
}

std::vector<std::pair<PubendId, Tick>> get_heads(BufReader& r) {
  const auto n = r.get_u32();
  std::vector<std::pair<PubendId, Tick>> heads;
  heads.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const PubendId p{r.get_u32()};
    const Tick t = r.get_i64();
    heads.emplace_back(p, t);
  }
  return heads;
}

/// Thrown (and caught inside decode_payload()) when a CRC-valid payload is
/// structurally invalid — encoder version skew, never wire damage.
struct BadPayload {
  const char* reason;
};

template <typename W>
void encode_payload_to(W& w, const Msg& msg) {
  switch (msg.kind()) {
    case MsgKind::kStreamData: {
      const auto& m = static_cast<const StreamDataMsg&>(msg);
      w.put_u32(m.pubend.value());
      w.put_u32(static_cast<std::uint32_t>(m.items.size()));
      for (const auto& item : m.items) {
        w.put_u8(static_cast<std::uint8_t>(item.value));
        put_range(w, item.range);
        if (item.value == routing::TickValue::kD) {
          GRYPHON_CHECK_MSG(item.event != nullptr, "D item without event");
          encode_event_data(w, *item.event);
        }
      }
      return;
    }
    case MsgKind::kNack: {
      const auto& m = static_cast<const NackMsg&>(msg);
      w.put_u32(m.pubend.value());
      w.put_u8(m.authoritative_only ? 1 : 0);
      w.put_u32(static_cast<std::uint32_t>(m.ranges.size()));
      for (const auto& r : m.ranges) put_range(w, r);
      return;
    }
    case MsgKind::kReleaseUpdate: {
      const auto& m = static_cast<const ReleaseUpdateMsg&>(msg);
      w.put_u32(m.pubend.value());
      w.put_i64(m.released);
      w.put_i64(m.latest_delivered);
      return;
    }
    case MsgKind::kSubscribe: {
      const auto& m = static_cast<const SubscribeMsg&>(msg);
      w.put_u32(m.subscriber.value());
      w.put_string(m.predicate_text);
      return;
    }
    case MsgKind::kSubscribeAck: {
      const auto& m = static_cast<const SubscribeAckMsg&>(msg);
      w.put_u32(m.subscriber.value());
      put_heads(w, m.heads);
      return;
    }
    case MsgKind::kUnsubscribe: {
      const auto& m = static_cast<const UnsubscribeMsg&>(msg);
      w.put_u32(m.subscriber.value());
      return;
    }
    case MsgKind::kBrokerResume: {
      const auto& m = static_cast<const BrokerResumeMsg&>(msg);
      put_heads(w, m.resume_from);
      return;
    }
    case MsgKind::kPublish: {
      const auto& m = static_cast<const PublishMsg&>(msg);
      w.put_u32(m.publisher.value());
      w.put_u64(m.seq);
      w.put_u64(m.acked_below);
      w.put_u32(m.pubend.value());
      GRYPHON_CHECK_MSG(m.event != nullptr, "publish without event");
      encode_event_data(w, *m.event);
      return;
    }
    case MsgKind::kPublishAck: {
      const auto& m = static_cast<const PublishAckMsg&>(msg);
      w.put_u32(m.publisher.value());
      w.put_u64(m.seq);
      w.put_i64(m.assigned_tick);
      return;
    }
    case MsgKind::kConnect: {
      const auto& m = static_cast<const ConnectMsg&>(msg);
      w.put_u32(m.subscriber.value());
      std::uint8_t flags = 0;
      if (m.first_connect) flags |= kFlagFirstConnect;
      if (m.jms_auto_ack) flags |= kFlagJmsAutoAck;
      if (m.use_stored_ct) flags |= kFlagUseStoredCt;
      w.put_u8(flags);
      w.put_string(m.predicate_text);
      m.ct.serialize(w);
      return;
    }
    case MsgKind::kConnected: {
      const auto& m = static_cast<const ConnectedMsg&>(msg);
      w.put_u32(m.subscriber.value());
      m.initial_ct.serialize(w);
      return;
    }
    case MsgKind::kDisconnect: {
      const auto& m = static_cast<const DisconnectMsg&>(msg);
      w.put_u32(m.subscriber.value());
      return;
    }
    case MsgKind::kUnsubscribeReq: {
      const auto& m = static_cast<const UnsubscribeReqMsg&>(msg);
      w.put_u32(m.subscriber.value());
      return;
    }
    case MsgKind::kAck: {
      const auto& m = static_cast<const AckMsg&>(msg);
      w.put_u32(m.subscriber.value());
      m.ct.serialize(w);
      return;
    }
    case MsgKind::kEventDelivery: {
      const auto& m = static_cast<const EventDeliveryMsg&>(msg);
      w.put_u32(m.subscriber.value());
      w.put_u32(m.pubend.value());
      w.put_i64(m.tick);
      w.put_u8(m.from_catchup ? 1 : 0);
      GRYPHON_CHECK_MSG(m.event != nullptr, "delivery without event");
      encode_event_data(w, *m.event);
      return;
    }
    case MsgKind::kSilenceDelivery: {
      const auto& m = static_cast<const SilenceDeliveryMsg&>(msg);
      w.put_u32(m.subscriber.value());
      w.put_u32(m.pubend.value());
      w.put_i64(m.upto);
      return;
    }
    case MsgKind::kGapDelivery: {
      const auto& m = static_cast<const GapDeliveryMsg&>(msg);
      w.put_u32(m.subscriber.value());
      w.put_u32(m.pubend.value());
      put_range(w, m.range);
      return;
    }
    case MsgKind::kJmsConsumed: {
      const auto& m = static_cast<const JmsConsumedMsg&>(msg);
      w.put_u32(m.subscriber.value());
      w.put_u32(m.pubend.value());
      w.put_i64(m.tick);
      return;
    }
  }
  GRYPHON_CHECK_MSG(false, "unencodable message kind "
                               << static_cast<int>(msg.kind()));
}

/// A wire bool is exactly 0 or 1; anything else is a non-canonical payload.
bool get_bool(BufReader& r) {
  const std::uint8_t b = r.get_u8();
  if (b > 1) throw BadPayload{"bad bool byte"};
  return b != 0;
}

std::shared_ptr<const Msg> decode_fields(MsgKind kind, BufReader& r,
                                         const std::shared_ptr<const void>& owner) {
  switch (kind) {
    case MsgKind::kStreamData: {
      const PubendId pubend{r.get_u32()};
      const auto n = r.get_u32();
      std::vector<routing::KnowledgeItem> items;
      items.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        routing::KnowledgeItem item;
        const auto tag = r.get_u8();
        if (tag < static_cast<std::uint8_t>(routing::TickValue::kS) ||
            tag > static_cast<std::uint8_t>(routing::TickValue::kL)) {
          throw BadPayload{"bad knowledge tag"};
        }
        item.value = static_cast<routing::TickValue>(tag);
        item.range = get_range(r);
        if (item.value == routing::TickValue::kD) {
          if (item.range.from != item.range.to) throw BadPayload{"bad D range"};
          item.event = decode_event_data(r, owner);
        }
        items.push_back(std::move(item));
      }
      return std::make_shared<StreamDataMsg>(pubend, std::move(items));
    }
    case MsgKind::kNack: {
      const PubendId pubend{r.get_u32()};
      const bool authoritative = get_bool(r);
      const auto n = r.get_u32();
      std::vector<TickRange> ranges;
      ranges.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) ranges.push_back(get_range(r));
      return std::make_shared<NackMsg>(pubend, std::move(ranges), authoritative);
    }
    case MsgKind::kReleaseUpdate: {
      const PubendId pubend{r.get_u32()};
      const Tick released = r.get_i64();
      const Tick latest = r.get_i64();
      return std::make_shared<ReleaseUpdateMsg>(pubend, released, latest);
    }
    case MsgKind::kSubscribe: {
      const SubscriberId sub{r.get_u32()};
      return std::make_shared<SubscribeMsg>(sub, r.get_string());
    }
    case MsgKind::kSubscribeAck: {
      const SubscriberId sub{r.get_u32()};
      return std::make_shared<SubscribeAckMsg>(sub, get_heads(r));
    }
    case MsgKind::kUnsubscribe:
      return std::make_shared<UnsubscribeMsg>(SubscriberId{r.get_u32()});
    case MsgKind::kBrokerResume:
      return std::make_shared<BrokerResumeMsg>(get_heads(r));
    case MsgKind::kPublish: {
      const PublisherId pub{r.get_u32()};
      const std::uint64_t seq = r.get_u64();
      const std::uint64_t acked_below = r.get_u64();
      const PubendId pubend{r.get_u32()};
      auto event = decode_event_data(r, owner);
      return std::make_shared<PublishMsg>(pub, seq, acked_below, pubend,
                                          std::move(event));
    }
    case MsgKind::kPublishAck: {
      const PublisherId pub{r.get_u32()};
      const std::uint64_t seq = r.get_u64();
      const Tick tick = r.get_i64();
      return std::make_shared<PublishAckMsg>(pub, seq, tick);
    }
    case MsgKind::kConnect: {
      const SubscriberId sub{r.get_u32()};
      const std::uint8_t flags = r.get_u8();
      if ((flags & ~kKnownConnectFlags) != 0) throw BadPayload{"bad connect flags"};
      std::string pred = r.get_string();
      auto ct = CheckpointToken::deserialize(r);
      return std::make_shared<ConnectMsg>(
          sub, (flags & kFlagFirstConnect) != 0, std::move(pred), std::move(ct),
          (flags & kFlagJmsAutoAck) != 0, (flags & kFlagUseStoredCt) != 0);
    }
    case MsgKind::kConnected: {
      const SubscriberId sub{r.get_u32()};
      return std::make_shared<ConnectedMsg>(sub, CheckpointToken::deserialize(r));
    }
    case MsgKind::kDisconnect:
      return std::make_shared<DisconnectMsg>(SubscriberId{r.get_u32()});
    case MsgKind::kUnsubscribeReq:
      return std::make_shared<UnsubscribeReqMsg>(SubscriberId{r.get_u32()});
    case MsgKind::kAck: {
      const SubscriberId sub{r.get_u32()};
      return std::make_shared<AckMsg>(sub, CheckpointToken::deserialize(r));
    }
    case MsgKind::kEventDelivery: {
      const SubscriberId sub{r.get_u32()};
      const PubendId pubend{r.get_u32()};
      const Tick tick = r.get_i64();
      const bool catchup = get_bool(r);
      auto event = decode_event_data(r, owner);
      return std::make_shared<EventDeliveryMsg>(sub, pubend, tick, std::move(event),
                                                catchup);
    }
    case MsgKind::kSilenceDelivery: {
      const SubscriberId sub{r.get_u32()};
      const PubendId pubend{r.get_u32()};
      return std::make_shared<SilenceDeliveryMsg>(sub, pubend, r.get_i64());
    }
    case MsgKind::kGapDelivery: {
      const SubscriberId sub{r.get_u32()};
      const PubendId pubend{r.get_u32()};
      return std::make_shared<GapDeliveryMsg>(sub, pubend, get_range(r));
    }
    case MsgKind::kJmsConsumed: {
      const SubscriberId sub{r.get_u32()};
      const PubendId pubend{r.get_u32()};
      return std::make_shared<JmsConsumedMsg>(sub, pubend, r.get_i64());
    }
  }
  throw BadPayload{"unknown message kind"};
}

}  // namespace

std::size_t Msg::wire_size() const {
  ByteCounter counter;
  encode_payload_to(counter, *this);
  return kEnvelopeBytes + counter.size();
}

void encode_payload(BufWriter& w, const Msg& msg) { encode_payload_to(w, msg); }

PayloadDecode decode_payload(MsgKind kind, std::span<const std::byte> payload,
                             const std::shared_ptr<const void>& owner) {
  // Payloads reach here behind a passed CRC, so a structural failure is
  // encoder version skew rather than wire damage — rejected all the same.
  PayloadDecode res;
  try {
    BufReader r(payload);
    res.msg = decode_fields(kind, r, owner);
    if (!r.done()) {
      res.msg = nullptr;
      res.reason = "trailing payload bytes";
    }
  } catch (const BadPayload& bad) {
    res.msg = nullptr;
    res.reason = bad.reason;
  } catch (const InvariantViolation&) {
    res.msg = nullptr;
    res.reason = "truncated payload field";
  }
  return res;
}

}  // namespace gryphon::core
