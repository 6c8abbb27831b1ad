// Wire-protocol tests: frame/codec round-trips for every MsgKind, the
// decode-never-throws rejection contract (every torn prefix and every
// flipped byte of every sample frame must be rejected), wire_size() equal
// to the encoded frame over a fixed and a seeded random corpus, structural rejects
// behind a valid CRC, and the System-level guarantees: struct- and
// codec-mode runs are schedule-identical on the same seed, and seeded
// frame corruption under chaos never breaks exactly-once.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/chaos.hpp"
#include "harness/system.hpp"
#include "harness/workload.hpp"
#include "storage/crc32c.hpp"
#include "util/byte_buffer.hpp"
#include "util/rng.hpp"
#include "wire/codec.hpp"
#include "wire/codec_transport.hpp"
#include "wire/frame.hpp"

namespace gryphon {
namespace {

using core::CheckpointToken;
using core::MsgKind;

matching::EventDataPtr sample_event() {
  return std::make_shared<matching::EventData>(
      std::map<std::string, matching::Value>{{"sym", matching::Value("IBM")},
                                             {"price", matching::Value(101.5)},
                                             {"g", matching::Value(3)},
                                             {"urgent", matching::Value(true)}},
      "payload-bytes", 250);
}

CheckpointToken sample_ct() {
  CheckpointToken ct;
  ct.set(PubendId{1}, 100);
  ct.set(PubendId{7}, 12345678901LL);
  return ct;
}

/// One representative message per MsgKind (several with both empty and
/// populated variants) — the corpus every frame-level test runs over.
std::vector<std::shared_ptr<core::Msg>> sample_messages() {
  std::vector<std::shared_ptr<core::Msg>> msgs;

  std::vector<routing::KnowledgeItem> items;
  items.push_back({routing::TickValue::kS, TickRange{1, 9}, nullptr});
  items.push_back({routing::TickValue::kD, TickRange{10, 10}, sample_event()});
  items.push_back({routing::TickValue::kL, TickRange{11, 20}, nullptr});
  msgs.push_back(std::make_shared<core::StreamDataMsg>(PubendId{3}, std::move(items)));
  msgs.push_back(std::make_shared<core::StreamDataMsg>(
      PubendId{4}, std::vector<routing::KnowledgeItem>{}));

  msgs.push_back(std::make_shared<core::NackMsg>(
      PubendId{2}, std::vector<TickRange>{{5, 9}, {20, 31}}, true));
  msgs.push_back(
      std::make_shared<core::NackMsg>(PubendId{2}, std::vector<TickRange>{}, false));
  msgs.push_back(std::make_shared<core::ReleaseUpdateMsg>(PubendId{1}, 500, 777));
  msgs.push_back(std::make_shared<core::SubscribeMsg>(SubscriberId{9}, "g = 3"));
  msgs.push_back(std::make_shared<core::SubscribeMsg>(SubscriberId{10}, ""));
  msgs.push_back(std::make_shared<core::SubscribeAckMsg>(
      SubscriberId{9},
      std::vector<std::pair<PubendId, Tick>>{{PubendId{1}, 40}, {PubendId{2}, 0}}));
  msgs.push_back(std::make_shared<core::UnsubscribeMsg>(SubscriberId{9}));
  msgs.push_back(std::make_shared<core::BrokerResumeMsg>(
      std::vector<std::pair<PubendId, Tick>>{{PubendId{1}, 123}}));
  msgs.push_back(std::make_shared<core::BrokerResumeMsg>(
      std::vector<std::pair<PubendId, Tick>>{}));

  msgs.push_back(std::make_shared<core::PublishMsg>(PublisherId{5}, 42, 40,
                                                    PubendId{1}, sample_event()));
  msgs.push_back(std::make_shared<core::PublishAckMsg>(PublisherId{5}, 42, 999));

  msgs.push_back(std::make_shared<core::ConnectMsg>(SubscriberId{7}, true, "g = 1",
                                                    CheckpointToken{}));
  msgs.push_back(std::make_shared<core::ConnectMsg>(SubscriberId{7}, false, "",
                                                    sample_ct(), true, true));
  msgs.push_back(std::make_shared<core::ConnectedMsg>(SubscriberId{7}, sample_ct()));
  msgs.push_back(std::make_shared<core::DisconnectMsg>(SubscriberId{7}));
  msgs.push_back(std::make_shared<core::UnsubscribeReqMsg>(SubscriberId{7}));
  msgs.push_back(std::make_shared<core::AckMsg>(SubscriberId{7}, sample_ct()));
  msgs.push_back(std::make_shared<core::EventDeliveryMsg>(
      SubscriberId{7}, PubendId{1}, 1234, sample_event(), true));
  msgs.push_back(std::make_shared<core::SilenceDeliveryMsg>(SubscriberId{7},
                                                            PubendId{1}, 1300));
  msgs.push_back(
      std::make_shared<core::GapDeliveryMsg>(SubscriberId{7}, PubendId{1},
                                             TickRange{1301, 1400}));
  msgs.push_back(std::make_shared<core::JmsConsumedMsg>(SubscriberId{7}, PubendId{1},
                                                        1234));
  return msgs;
}

/// A seeded random corpus, `per_kind` messages of every MsgKind: StreamData
/// with 0-64 items mixing S, D and L; events with int, double, bool and
/// string attributes and empty, short or padded payloads; checkpoint tokens
/// from empty to many entries. It reaches the shapes the fixed corpus above
/// never builds (integer/string attribute mixes, empty payloads, long item
/// lists).
std::vector<std::shared_ptr<core::Msg>> random_messages(std::uint64_t seed,
                                                        int per_kind) {
  Rng rng(seed);
  const auto below = [&](std::uint64_t n) { return rng.next_below(n); };
  const auto text = [&](std::uint64_t max_len) {
    std::string s(below(max_len + 1), ' ');
    for (char& c : s) c = static_cast<char>('a' + below(26));
    return s;
  };
  const auto tick = [&] { return static_cast<Tick>(below(1ull << 40)); };
  const auto range = [&] {
    const Tick from = tick();
    return TickRange{from, from + static_cast<Tick>(below(1000))};
  };
  const auto event = [&] {
    matching::EventData::AttributeList attrs;
    const std::uint64_t n = below(6);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string name = "a" + std::to_string(i);
      switch (below(4)) {
        case 0:
          attrs.emplace_back(name, static_cast<std::int64_t>(below(1u << 20)) - (1 << 19));
          break;
        case 1:
          attrs.emplace_back(name, static_cast<double>(below(1'000'000)) / 64.0);
          break;
        case 2:
          attrs.emplace_back(name, below(2) == 1);
          break;
        default:
          attrs.emplace_back(name, text(40));
          break;
      }
    }
    std::string payload = below(3) == 0 ? std::string() : text(300);
    const std::size_t padded = below(2) == 0 ? 0 : payload.size() + below(2048);
    return std::make_shared<matching::EventData>(std::move(attrs), std::move(payload),
                                                 padded);
  };
  const auto token = [&] {
    CheckpointToken ct;
    const std::uint64_t n = below(2) == 0 ? 0 : below(16);
    for (std::uint64_t i = 0; i < n; ++i) {
      ct.set(PubendId{static_cast<std::uint32_t>(below(64))}, tick());
    }
    return ct;
  };
  const auto heads = [&] {
    std::vector<std::pair<PubendId, Tick>> hs(below(8));
    for (auto& [p, t] : hs) {
      p = PubendId{static_cast<std::uint32_t>(below(64))};
      t = tick();
    }
    return hs;
  };
  const auto id = [&] { return static_cast<std::uint32_t>(below(1u << 30)); };

  std::vector<std::shared_ptr<core::Msg>> msgs;
  for (int i = 0; i < per_kind; ++i) {
    for (unsigned k = 0; k <= core::kMaxMsgKind; ++k) {
      switch (static_cast<MsgKind>(k)) {
        case MsgKind::kStreamData: {
          std::vector<routing::KnowledgeItem> items(below(65));
          for (auto& item : items) {
            switch (below(3)) {
              case 0:
                item = {routing::TickValue::kS, range(), nullptr};
                break;
              case 1: {
                const Tick t = tick();
                item = {routing::TickValue::kD, TickRange{t, t}, event()};
                break;
              }
              default:
                item = {routing::TickValue::kL, range(), nullptr};
                break;
            }
          }
          msgs.push_back(std::make_shared<core::StreamDataMsg>(PubendId{id()},
                                                               std::move(items)));
          break;
        }
        case MsgKind::kNack: {
          std::vector<TickRange> ranges(below(20));
          for (auto& r : ranges) r = range();
          msgs.push_back(std::make_shared<core::NackMsg>(PubendId{id()}, std::move(ranges),
                                                         below(2) == 1));
          break;
        }
        case MsgKind::kReleaseUpdate:
          msgs.push_back(
              std::make_shared<core::ReleaseUpdateMsg>(PubendId{id()}, tick(), tick()));
          break;
        case MsgKind::kSubscribe:
          msgs.push_back(std::make_shared<core::SubscribeMsg>(SubscriberId{id()}, text(80)));
          break;
        case MsgKind::kSubscribeAck:
          msgs.push_back(
              std::make_shared<core::SubscribeAckMsg>(SubscriberId{id()}, heads()));
          break;
        case MsgKind::kUnsubscribe:
          msgs.push_back(std::make_shared<core::UnsubscribeMsg>(SubscriberId{id()}));
          break;
        case MsgKind::kBrokerResume:
          msgs.push_back(std::make_shared<core::BrokerResumeMsg>(heads()));
          break;
        case MsgKind::kPublish:
          msgs.push_back(std::make_shared<core::PublishMsg>(
              PublisherId{id()}, rng.next_u64(), rng.next_u64(), PubendId{id()}, event()));
          break;
        case MsgKind::kPublishAck:
          msgs.push_back(std::make_shared<core::PublishAckMsg>(PublisherId{id()},
                                                               rng.next_u64(), tick()));
          break;
        case MsgKind::kConnect:
          msgs.push_back(std::make_shared<core::ConnectMsg>(
              SubscriberId{id()}, below(2) == 1, text(80), token(), below(2) == 1,
              below(2) == 1));
          break;
        case MsgKind::kConnected:
          msgs.push_back(std::make_shared<core::ConnectedMsg>(SubscriberId{id()}, token()));
          break;
        case MsgKind::kDisconnect:
          msgs.push_back(std::make_shared<core::DisconnectMsg>(SubscriberId{id()}));
          break;
        case MsgKind::kUnsubscribeReq:
          msgs.push_back(std::make_shared<core::UnsubscribeReqMsg>(SubscriberId{id()}));
          break;
        case MsgKind::kAck:
          msgs.push_back(std::make_shared<core::AckMsg>(SubscriberId{id()}, token()));
          break;
        case MsgKind::kEventDelivery:
          msgs.push_back(std::make_shared<core::EventDeliveryMsg>(
              SubscriberId{id()}, PubendId{id()}, tick(), event(), below(2) == 1));
          break;
        case MsgKind::kSilenceDelivery:
          msgs.push_back(std::make_shared<core::SilenceDeliveryMsg>(SubscriberId{id()},
                                                                    PubendId{id()}, tick()));
          break;
        case MsgKind::kGapDelivery:
          msgs.push_back(std::make_shared<core::GapDeliveryMsg>(SubscriberId{id()},
                                                                PubendId{id()}, range()));
          break;
        case MsgKind::kJmsConsumed:
          msgs.push_back(std::make_shared<core::JmsConsumedMsg>(SubscriberId{id()},
                                                                PubendId{id()}, tick()));
          break;
      }
    }
  }
  return msgs;
}

/// Recomputes and patches the frame CRC after a deliberate header mutation,
/// so structural checks *behind* the CRC can be exercised in isolation.
void patch_crc(std::vector<std::byte>& frame) {
  std::span<const std::byte> all(frame);
  std::uint32_t crc = storage::crc32c(all.subspan(0, 16));
  crc = storage::crc32c(all.subspan(20), crc);
  std::memcpy(frame.data() + 16, &crc, sizeof crc);
}

// ------------------------------------------------------------- round trips

TEST(WireCodec, SampleCorpusCoversEveryMsgKind) {
  std::vector<bool> seen(std::size_t{core::kMaxMsgKind} + 1, false);
  for (const auto& msg : sample_messages()) {
    seen[static_cast<std::size_t>(msg->kind())] = true;
  }
  for (std::size_t k = 0; k < seen.size(); ++k) {
    EXPECT_TRUE(seen[k]) << "no sample message for kind " << k;
  }
}

TEST(WireCodec, EveryKindRoundTripsCanonicallyAtParity) {
  auto corpus = sample_messages();
  for (const std::uint64_t seed : {1, 2, 3}) {
    const auto more = random_messages(seed, /*per_kind=*/8);
    corpus.insert(corpus.end(), more.begin(), more.end());
  }
  for (const auto& msg : corpus) {
    const auto frame = wire::encode(*msg);
    // wire_size() is the encoder run over a byte counter: the frame's size.
    EXPECT_EQ(msg->wire_size(), frame.size())
        << "kind " << static_cast<int>(msg->kind());
    const auto r = wire::decode(frame);
    ASSERT_NE(r.msg, nullptr) << "kind " << static_cast<int>(msg->kind())
                              << " rejected: " << (r.reason ? r.reason : "?");
    EXPECT_EQ(r.consumed, frame.size());
    EXPECT_EQ(r.msg->kind(), msg->kind());
    // One canonical encoding: re-encoding the decode reproduces the frame.
    EXPECT_EQ(wire::encode(*r.msg), frame)
        << "kind " << static_cast<int>(msg->kind());
  }
}

TEST(WireCodec, DecodedFieldsSurviveTheTrip) {
  {
    const core::PublishMsg in(PublisherId{5}, 42, 40, PubendId{1}, sample_event());
    const auto r = wire::decode(wire::encode(in));
    ASSERT_NE(r.msg, nullptr);
    const auto& out = static_cast<const core::PublishMsg&>(*r.msg);
    EXPECT_EQ(out.publisher, PublisherId{5});
    EXPECT_EQ(out.seq, 42u);
    EXPECT_EQ(out.acked_below, 40u);
    EXPECT_EQ(out.pubend, PubendId{1});
    EXPECT_EQ(out.event->payload(), "payload-bytes");
    EXPECT_EQ(out.event->payload_size(), 250u);
    EXPECT_EQ(*out.event->attribute("sym"), matching::Value("IBM"));
    EXPECT_EQ(*out.event->attribute("urgent"), matching::Value(true));
  }
  {
    const core::ConnectMsg in(SubscriberId{7}, false, "g = 2", sample_ct(), true,
                              false);
    const auto r = wire::decode(wire::encode(in));
    ASSERT_NE(r.msg, nullptr);
    const auto& out = static_cast<const core::ConnectMsg&>(*r.msg);
    EXPECT_FALSE(out.first_connect);
    EXPECT_TRUE(out.jms_auto_ack);
    EXPECT_FALSE(out.use_stored_ct);
    EXPECT_EQ(out.predicate_text, "g = 2");
    EXPECT_EQ(out.ct.of(PubendId{7}), 12345678901LL);
  }
  {
    std::vector<routing::KnowledgeItem> items;
    items.push_back({routing::TickValue::kD, TickRange{10, 10}, sample_event()});
    const core::StreamDataMsg in(PubendId{3}, std::move(items));
    const auto r = wire::decode(wire::encode(in));
    ASSERT_NE(r.msg, nullptr);
    const auto& out = static_cast<const core::StreamDataMsg&>(*r.msg);
    ASSERT_EQ(out.items.size(), 1u);
    EXPECT_EQ(out.items[0].value, routing::TickValue::kD);
    EXPECT_EQ(out.items[0].range.from, 10);
    ASSERT_NE(out.items[0].event, nullptr);
    EXPECT_EQ(*out.items[0].event->attribute("g"), matching::Value(3));
  }
}

// --------------------------------------------------------------- rejection

TEST(WireCodec, EveryTornPrefixOfEveryFrameIsRejected) {
  for (const auto& msg : sample_messages()) {
    const auto frame = wire::encode(*msg);
    for (std::size_t len = 0; len < frame.size(); ++len) {
      const auto r = wire::decode({frame.data(), len});
      EXPECT_EQ(r.consumed, 0u) << "kind " << static_cast<int>(msg->kind())
                                << " prefix " << len;
      EXPECT_EQ(r.msg, nullptr);
      EXPECT_NE(r.reason, nullptr);
    }
  }
}

TEST(WireCodec, EveryFlippedByteOfEveryFrameIsRejected) {
  for (const auto& msg : sample_messages()) {
    const auto frame = wire::encode(*msg);
    for (std::size_t pos = 0; pos < frame.size(); ++pos) {
      for (const std::uint8_t pattern : {0x01, 0xFF}) {
        auto mutated = frame;
        mutated[pos] ^= static_cast<std::byte>(pattern);
        const auto r = wire::decode(mutated);
        EXPECT_EQ(r.msg, nullptr) << "kind " << static_cast<int>(msg->kind())
                                  << " byte " << pos << " xor "
                                  << static_cast<int>(pattern);
        EXPECT_NE(r.reason, nullptr);
      }
    }
  }
}

TEST(WireCodec, TrailingBytesAfterAFrameAreRejected) {
  auto frame = wire::encode(core::DisconnectMsg(SubscriberId{1}));
  frame.push_back(std::byte{0});
  const auto r = wire::decode(frame);
  EXPECT_EQ(r.msg, nullptr);
  EXPECT_STREQ(r.reason, "trailing bytes after frame");
}

// A valid CRC does not make a payload valid: structural failures are
// encoder version skew and must be rejected (never thrown) all the same.
TEST(WireCodec, StructurallyInvalidPayloadsBehindAValidCrcAreRejected) {
  const auto reject_reason = [](std::uint8_t kind,
                                const std::vector<std::byte>& payload) {
    std::vector<std::byte> frame;
    wire::append_frame(frame, kind, payload);
    const auto r = wire::decode(frame);
    EXPECT_EQ(r.msg, nullptr);
    return std::string(r.reason ? r.reason : "(accepted)");
  };

  // Unknown message kind: the frame layer rejects a kind above kMaxMsgKind.
  EXPECT_EQ(reject_reason(core::kMaxMsgKind + 1, {}),
            "unknown message kind");

  // A truncated payload field: Disconnect needs 4 bytes, gets none.
  EXPECT_EQ(reject_reason(static_cast<std::uint8_t>(MsgKind::kDisconnect), {}),
            "truncated payload field");

  {  // Trailing payload bytes behind a complete Disconnect.
    BufWriter w;
    w.put_u32(7);
    w.put_u8(0);
    EXPECT_EQ(reject_reason(static_cast<std::uint8_t>(MsgKind::kDisconnect),
                            w.take()),
              "trailing payload bytes");
  }
  {  // Unknown connect flag bits.
    BufWriter w;
    w.put_u32(7);
    w.put_u8(0xF8);        // flags beyond the known three bits
    w.put_string("");      // predicate
    w.put_u32(0);          // empty checkpoint token
    EXPECT_EQ(reject_reason(static_cast<std::uint8_t>(MsgKind::kConnect), w.take()),
              "bad connect flags");
  }
  {  // A wire bool must be exactly 0 or 1.
    BufWriter w;
    w.put_u32(1);  // pubend
    w.put_u8(2);   // authoritative_only = 2?
    w.put_u32(0);  // no ranges
    EXPECT_EQ(reject_reason(static_cast<std::uint8_t>(MsgKind::kNack), w.take()),
              "bad bool byte");
  }
  {  // Knowledge tag outside [kS, kL] (kQ never travels).
    BufWriter w;
    w.put_u32(1);  // pubend
    w.put_u32(1);  // one item
    w.put_u8(0);   // kQ
    w.put_i64(1);
    w.put_i64(1);
    EXPECT_EQ(reject_reason(static_cast<std::uint8_t>(MsgKind::kStreamData),
                            w.take()),
              "bad knowledge tag");
  }
}

TEST(WireCodec, NonzeroHeaderPaddingIsRejectedEvenWithAValidCrc) {
  auto frame = wire::encode(core::DisconnectMsg(SubscriberId{1}));
  frame[wire::kFrameHeaderBytes - 1] = std::byte{1};
  patch_crc(frame);
  const auto r = wire::decode(frame);
  EXPECT_EQ(r.msg, nullptr);
  EXPECT_STREQ(r.reason, "nonzero header padding");
}

TEST(WireCodec, FrameHeaderEqualsTheAnalyticEnvelope) {
  EXPECT_EQ(wire::kFrameHeaderBytes, core::kEnvelopeBytes);
  // The envelope-only messages really are header + tiny payload.
  const core::DisconnectMsg m(SubscriberId{1});
  EXPECT_EQ(wire::encode(m).size(), core::kEnvelopeBytes + 4);
}

// ---------------------------------------------------------------- transport

/// Frame bytes as an owned vector (tests mutate copies to mangle them).
std::vector<std::byte> frame_copy(const sim::MessagePtr& msg) {
  const auto bytes = msg->wire_bytes();
  return {bytes.begin(), bytes.end()};
}

wire::CodecTransport::Options always_verify() {
  wire::CodecTransport::Options opts;
  opts.verify_every = 1;
  return opts;
}

TEST(CodecTransport, EncodesToFramesAndRejectsMangledOnes) {
  wire::CodecTransport transport(always_verify());
  auto msg = std::make_shared<core::SilenceDeliveryMsg>(SubscriberId{3}, PubendId{1},
                                                        42);
  const std::size_t wire_size = msg->wire_size();
  sim::MessagePtr on_wire = transport.to_wire(1, 2, std::move(msg));
  ASSERT_NE(on_wire, nullptr);
  ASSERT_FALSE(on_wire->wire_bytes().empty());
  ASSERT_NE(on_wire->wire_owner(), nullptr);  // frames carry their arena
  EXPECT_EQ(on_wire->wire_size(), wire_size);  // parity through FrameMessage

  // A flipped byte must come back as a nullptr (counted reject), not a throw.
  auto mangled_bytes = frame_copy(on_wire);
  mangled_bytes[wire::kFrameHeaderBytes] ^= std::byte{0x40};
  sim::MessagePtr mangled =
      std::make_shared<sim::FrameMessage>(std::move(mangled_bytes));
  EXPECT_EQ(transport.from_wire(1, 2, std::move(mangled)), nullptr);
  EXPECT_EQ(transport.frames_rejected(), 1u);

  // The clean frame decodes back to the original message.
  sim::MessagePtr back = transport.from_wire(1, 2, std::move(on_wire));
  ASSERT_NE(back, nullptr);
  const auto& out = static_cast<const core::SilenceDeliveryMsg&>(
      static_cast<const core::Msg&>(*back));
  EXPECT_EQ(out.subscriber, SubscriberId{3});
  EXPECT_EQ(out.upto, 42);
  EXPECT_EQ(transport.frames_encoded(), 1u);
  EXPECT_EQ(transport.frames_decoded(), 1u);
}

// Zero-copy decode: the decoded message's payload is a view into the frame,
// pinned by the frame's arena — and must stay valid after every other
// reference to the frame (and the transport itself) is gone.
TEST(CodecTransport, ZeroCopyDecodedMessageOutlivesItsFrame) {
  sim::MessagePtr back;
  std::span<const std::byte> frame_bytes;
  {
    wire::CodecTransport transport(always_verify());
    auto msg = std::make_shared<core::PublishMsg>(PublisherId{5}, 42, 40,
                                                  PubendId{1}, sample_event());
    sim::MessagePtr on_wire = transport.to_wire(1, 2, std::move(msg));
    frame_bytes = on_wire->wire_bytes();
    back = transport.from_wire(1, 2, std::move(on_wire));
    ASSERT_NE(back, nullptr);
    // on_wire and the transport (with its pool and open arena) die here.
  }
  const auto& out = static_cast<const core::PublishMsg&>(
      static_cast<const core::Msg&>(*back));
  const std::string_view payload = out.event->payload();
  EXPECT_EQ(payload, "payload-bytes");
  EXPECT_EQ(out.event->payload_size(), 250u);
  // Really zero-copy: the payload characters live inside the frame's bytes.
  const auto* lo = reinterpret_cast<const char*>(frame_bytes.data());
  EXPECT_GE(payload.data(), lo);
  EXPECT_LT(payload.data(), lo + frame_bytes.size());
}

// Coalescing: consecutive sends append into one shared arena — same
// ownership handle, disjoint views — and a mangled copy of one frame
// rejects while its arena siblings still decode cleanly.
TEST(CodecTransport, CoalescedFramesShareOneArenaAndFailIndependently) {
  wire::CodecTransport transport(always_verify());
  std::vector<sim::MessagePtr> on_wire;
  for (int i = 0; i < 8; ++i) {
    on_wire.push_back(transport.to_wire(
        1, 2,
        std::make_shared<core::SilenceDeliveryMsg>(SubscriberId{3}, PubendId{1},
                                                   100 + i)));
  }
  EXPECT_EQ(transport.frames_encoded(), 8u);
  EXPECT_EQ(transport.arenas_opened(), 1u);  // all eight coalesced
  for (int i = 1; i < 8; ++i) {
    EXPECT_EQ(on_wire[0]->wire_owner(), on_wire[static_cast<std::size_t>(i)]->wire_owner());
  }

  // Mangle a copy of frame 3 (chaos corruption copies, never scribbles on
  // the shared arena): it must reject without disturbing its siblings.
  auto mangled_bytes = frame_copy(on_wire[3]);
  mangled_bytes[wire::kFrameHeaderBytes] ^= std::byte{0x40};
  EXPECT_EQ(transport.from_wire(
                1, 2, std::make_shared<sim::FrameMessage>(std::move(mangled_bytes))),
            nullptr);
  for (int i = 0; i < 8; ++i) {
    sim::MessagePtr back = transport.from_wire(1, 2, on_wire[static_cast<std::size_t>(i)]);
    ASSERT_NE(back, nullptr) << "sibling " << i;
    EXPECT_EQ(static_cast<const core::SilenceDeliveryMsg&>(
                  static_cast<const core::Msg&>(*back))
                  .upto,
              100 + i);
  }
  EXPECT_EQ(transport.frames_rejected(), 1u);
  EXPECT_EQ(transport.frames_decoded(), 8u);
}

// Pool exhaustion is an allocation, never an error: with every arena pinned
// by an in-flight frame the pool has nothing to recycle, falls back to the
// heap, and parity + decode still hold for every frame.
TEST(CodecTransport, PoolExhaustionFallsBackToHeapWithoutBreakingParity) {
  wire::CodecTransport::Options opts = always_verify();
  opts.arena_bytes = 128;  // every frame seals its arena (frames are > 64B)
  wire::CodecTransport transport(opts);
  std::vector<sim::MessagePtr> in_flight;  // pins every arena: nothing recycles
  for (int i = 0; i < 64; ++i) {
    auto msg = std::make_shared<core::SilenceDeliveryMsg>(SubscriberId{3},
                                                          PubendId{1}, i);
    const std::size_t want = msg->wire_size();
    in_flight.push_back(transport.to_wire(1, 2, std::move(msg)));
    EXPECT_EQ(in_flight.back()->wire_size(), want);
  }
  EXPECT_GT(transport.pool().heap_fallbacks(), 8u);  // past the pool bound
  for (auto& msg : in_flight) {
    ASSERT_NE(transport.from_wire(1, 2, msg), nullptr);
  }
  EXPECT_EQ(transport.frames_decoded(), 64u);
}

// The canonical re-encode check samples a seeded, deterministic 1-in-N of
// decodes: same options => same sample, verify_every <= 1 => every frame.
TEST(CodecTransport, SampledVerificationIsSeededAndDeterministic) {
  const auto verifies_for = [](std::uint32_t every, std::uint64_t seed) {
    wire::CodecTransport::Options opts;
    opts.verify_every = every;
    opts.verify_seed = seed;
    wire::CodecTransport transport(opts);
    for (int i = 0; i < 256; ++i) {
      auto on_wire = transport.to_wire(
          1, 2,
          std::make_shared<core::SilenceDeliveryMsg>(SubscriberId{3}, PubendId{1},
                                                     i));
      EXPECT_NE(transport.from_wire(1, 2, std::move(on_wire)), nullptr);
    }
    return transport.verifies_run();
  };
  EXPECT_EQ(verifies_for(1, 7), 256u);  // always-on
  const std::uint64_t sampled = verifies_for(8, 7);
  EXPECT_GT(sampled, 0u);     // the sample really fires…
  EXPECT_LT(sampled, 256u);   // …but not on every frame
  EXPECT_EQ(verifies_for(8, 7), sampled);  // deterministic in the seed
  EXPECT_NE(verifies_for(8, 12345), sampled);  // and seeded (w.h.p.)
}

// ------------------------------------------------------------ system level

struct RunFingerprint {
  std::uint64_t published;
  std::uint64_t delivered;
  std::uint64_t catchup_delivered;
  std::uint64_t tasks;
  std::uint64_t net_messages;
  std::uint64_t net_bytes;
  std::uint64_t decode_rejects;
  std::vector<std::uint64_t> per_sub;

  friend bool operator==(const RunFingerprint&, const RunFingerprint&) = default;
};

RunFingerprint run_scenario(harness::WireMode wire) {
  harness::SystemConfig config;
  config.num_pubends = 2;
  config.num_intermediates = 1;
  config.num_shbs = 2;
  config.wire = wire;
  config.wire_verify_every = 1;  // tests always run the canonical check
  harness::System system(config);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 300;
  harness::start_paper_publishers(system, wl);
  auto subs = harness::add_group_subscribers(system, 0, 4, 4, 1);
  auto more = harness::add_group_subscribers(system, 1, 4, 4, 100);
  subs.insert(subs.end(), more.begin(), more.end());
  system.run_for(sec(4));
  subs[0]->disconnect();
  system.run_for(sec(2));
  system.crash_shb(1);
  system.run_for(sec(2));
  system.restart_shb(1);
  subs[0]->connect();
  system.run_for(sec(10));
  system.verify_exactly_once();

  RunFingerprint fp;
  fp.published = system.oracle().published_count();
  fp.delivered = system.oracle().delivered_count();
  fp.catchup_delivered = system.oracle().catchup_delivered_count();
  fp.tasks = system.simulator().executed_tasks();
  fp.net_messages = system.network().delivered_messages();
  fp.net_bytes = system.network().delivered_bytes();
  fp.decode_rejects = system.network().decode_rejects();
  for (auto* sub : subs) fp.per_sub.push_back(sub->events_received());
  return fp;
}

TEST(WireSystem, StructAndCodecRunsAreScheduleIdenticalOnTheSameSeed) {
  // Wire-size parity is what makes this hold: wire_size() counts exactly the
  // bytes the codec writes, so the bandwidth model computes
  // identical departure/arrival times and the whole run is bit-identical.
  const auto s = run_scenario(harness::WireMode::kStruct);
  const auto c = run_scenario(harness::WireMode::kCodec);
  EXPECT_EQ(s, c);
  EXPECT_EQ(c.decode_rejects, 0u);  // clean run: nothing to reject
  EXPECT_GT(c.delivered, 1000u);
  EXPECT_GT(c.net_bytes, 100'000u);
}

void run_frame_corruption_chaos(harness::WireMode wire) {
  harness::SystemConfig sc;
  sc.num_pubends = 2;
  sc.num_intermediates = 1;
  sc.num_shbs = 2;
  sc.wire = wire;
  sc.wire_verify_every = 1;  // tests always run the canonical check
  harness::System system(sc);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 300;
  harness::start_paper_publishers(system, wl);
  harness::add_group_subscribers(system, 0, 4, 4, 1);
  harness::add_group_subscribers(system, 1, 4, 4, 100);
  system.run_for(sec(3));

  harness::ChaosConfig config;
  config.seed = 7;
  config.horizon = sec(8);
  // Frame corruption only: every fault in the timeline is a corruption
  // window, so the run measures exactly the new fault kind.
  config.weights = {};
  config.weights.partition = 0;
  config.weights.flap = 0;
  config.weights.degrade = 0;
  config.weights.disk_stall = 0;
  config.weights.torn_sync = 0;
  config.weights.crash_restart = 0;
  config.weights.crash_during_recovery = 0;
  config.weights.double_fault = 0;
  config.weights.frame_corrupt = 1;
  harness::ChaosSchedule chaos(system, config);
  chaos.run();  // throws on any invariant violation

  // The windows really did mangle traffic…
  EXPECT_GT(system.network().corrupted_frames(), 0u);
  if (wire == harness::WireMode::kCodec) {
    // …and in codec mode every mangled frame surfaced as a decode reject
    // (flips and truncations can never pass the CRC).
    EXPECT_EQ(system.network().decode_rejects(),
              system.network().corrupted_frames());
  } else {
    // Struct messages have no bytes to flip: mangles become silent drops.
    EXPECT_EQ(system.network().decode_rejects(), 0u);
  }
}

TEST(WireSystem, FrameCorruptionChaosKeepsExactlyOnceUnderCodec) {
  run_frame_corruption_chaos(harness::WireMode::kCodec);
}

TEST(WireSystem, FrameCorruptionChaosKeepsExactlyOnceUnderStruct) {
  run_frame_corruption_chaos(harness::WireMode::kStruct);
}

}  // namespace
}  // namespace gryphon
