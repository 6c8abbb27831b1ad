// Unit tests for core building blocks in isolation: checkpoint tokens,
// event codec, ChildStream fan-out/nack logic, release policies, Pubend
// ladder + release protocol, and the baseline per-subscriber event log.
#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "core/baseline_event_log.hpp"
#include "core/checkpoint_token.hpp"
#include "core/child_stream.hpp"
#include "core/event_codec.hpp"
#include "core/node_resources.hpp"
#include "core/pubend.hpp"
#include "core/release_policy.hpp"
#include "matching/parser.hpp"

namespace gryphon::core {
namespace {

matching::EventDataPtr event(int g = 0) {
  return std::make_shared<matching::EventData>(
      std::map<std::string, matching::Value>{{"g", matching::Value(g)}}, "", 64);
}

// -------------------------------------------------------- CheckpointToken

TEST(CheckpointToken, AdvanceIsMonotonic) {
  CheckpointToken ct;
  EXPECT_EQ(ct.of(PubendId{1}), kTickZero);
  ct.advance(PubendId{1}, 10);
  ct.advance(PubendId{1}, 5);  // no-op
  EXPECT_EQ(ct.of(PubendId{1}), 10);
  ct.set(PubendId{1}, 3);  // explicit set may rewind (deliberate old CT)
  EXPECT_EQ(ct.of(PubendId{1}), 3);
}

TEST(CheckpointToken, MergeAndDomination) {
  CheckpointToken a;
  a.set(PubendId{1}, 10);
  a.set(PubendId{2}, 5);
  CheckpointToken b;
  b.set(PubendId{1}, 7);
  b.set(PubendId{2}, 9);
  EXPECT_FALSE(a.dominated_by(b));
  a.merge(b);
  EXPECT_EQ(a.of(PubendId{1}), 10);
  EXPECT_EQ(a.of(PubendId{2}), 9);
  EXPECT_TRUE(b.dominated_by(a));
}

TEST(CheckpointToken, SerializationRoundTrip) {
  CheckpointToken ct;
  ct.set(PubendId{1}, 100);
  ct.set(PubendId{7}, 12345678901LL);
  BufWriter w;
  ct.serialize(w);
  auto bytes = w.take();
  EXPECT_EQ(bytes.size(), 4 + 2 * 12);
  BufReader r(bytes);
  const auto back = CheckpointToken::deserialize(r);
  EXPECT_EQ(back.of(PubendId{1}), 100);
  EXPECT_EQ(back.of(PubendId{7}), 12345678901LL);
  EXPECT_TRUE(r.done());
}

// ------------------------------------------------------------ event codec

TEST(EventCodec, RoundTripsEverything) {
  auto ev = std::make_shared<matching::EventData>(
      std::map<std::string, matching::Value>{{"sym", matching::Value("IBM")},
                                             {"price", matching::Value(101.5)},
                                             {"urgent", matching::Value(true)}},
      "payload-bytes", 250);
  const LoggedEvent in{4242, PublisherId{9}, 77, ev};
  const auto bytes = encode_logged_event(in);
  const LoggedEvent out = decode_logged_event(bytes);
  EXPECT_EQ(out.tick, 4242);
  EXPECT_EQ(out.publisher, PublisherId{9});
  EXPECT_EQ(out.seq, 77u);
  EXPECT_EQ(out.event->payload(), "payload-bytes");
  EXPECT_EQ(out.event->payload_size(), 250u);
  EXPECT_EQ(*out.event->attribute("sym"), matching::Value("IBM"));
  EXPECT_EQ(*out.event->attribute("price"), matching::Value(101.5));
  EXPECT_EQ(*out.event->attribute("urgent"), matching::Value(true));
}

TEST(EventCodec, CorruptRecordThrows) {
  auto bytes = encode_logged_event({1, PublisherId{1}, 1, event()});
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(decode_logged_event(bytes), InvariantViolation);
}

// ------------------------------------------------------------ ChildStream

TEST(ChildStream, FreshStreamingAdvancesSentUpto) {
  ChildStream cs(10);
  std::vector<routing::KnowledgeItem> items{
      {routing::TickValue::kS, {11, 14}, nullptr},
      {routing::TickValue::kD, {15, 15}, event()},
  };
  const auto out = cs.on_items(items);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(cs.sent_upto(), 15);
  // Replaying the same items yields nothing new.
  EXPECT_TRUE(cs.on_items(items).empty());
}

TEST(ChildStream, StaleKnowledgeOnlyFlowsToPendingNacks) {
  ChildStream cs(100);
  routing::TickMap cache(0);  // empty cache: nacks all go pending
  const auto outcome = cs.on_nack({{40, 60}}, cache);
  EXPECT_TRUE(outcome.respond.empty());
  ASSERT_EQ(outcome.unknown.size(), 1u);
  EXPECT_EQ(outcome.unknown[0], (TickRange{40, 60}));

  // Old knowledge arrives: only the nacked window is forwarded.
  std::vector<routing::KnowledgeItem> items{
      {routing::TickValue::kS, {30, 70}, nullptr}};
  const auto out = cs.on_items(items);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].range, (TickRange{40, 60}));
  EXPECT_TRUE(cs.pending_nacks().empty());
  EXPECT_EQ(cs.sent_upto(), 100);  // stale data does not move the cursor
}

TEST(ChildStream, NackServedFromCache) {
  ChildStream cs(100);
  routing::TickMap cache(0);
  cache.set_silence(40, 49);
  cache.set_data(50, event());
  const auto outcome = cs.on_nack({{40, 55}}, cache);
  ASSERT_EQ(outcome.respond.size(), 2u);
  ASSERT_EQ(outcome.unknown.size(), 1u);
  EXPECT_EQ(outcome.unknown[0], (TickRange{51, 55}));
  EXPECT_TRUE(cs.pending_nacks().covers(51, 55));
}

TEST(ChildStream, ResetDropsCuriosity) {
  ChildStream cs(0);
  routing::TickMap cache(0);
  (void)cs.on_nack({{1, 10}}, cache);
  EXPECT_FALSE(cs.pending_nacks().empty());
  cs.reset(50);
  EXPECT_TRUE(cs.pending_nacks().empty());
  EXPECT_EQ(cs.sent_upto(), 50);
}

TEST(FilterItems, ConvertsNonMatchingDataToSilenceAndMerges) {
  matching::SubscriptionIndex filter;
  filter.add(SubscriberId{1}, matching::parse_predicate("g == 1"));
  std::vector<routing::KnowledgeItem> items{
      {routing::TickValue::kS, {1, 4}, nullptr},
      {routing::TickValue::kD, {5, 5}, event(2)},   // filtered out
      {routing::TickValue::kS, {6, 9}, nullptr},
      {routing::TickValue::kD, {10, 10}, event(1)},  // kept
  };
  const auto out = filter_items(items, &filter);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].value, routing::TickValue::kS);
  EXPECT_EQ(out[0].range, (TickRange{1, 9}));  // S runs merged across the 5
  EXPECT_EQ(out[1].value, routing::TickValue::kD);
  // Null filter forwards everything.
  EXPECT_EQ(filter_items(items, nullptr).size(), 4u);
}

// --------------------------------------------------------- ReleasePolicy

TEST(ReleasePolicy, NoEarlyReleaseSticksToTr) {
  NoEarlyReleasePolicy p;
  EXPECT_EQ(p.release_upto(100, 500, 10'000), 100);
}

TEST(ReleasePolicy, MaxRetainHonorsTdAndRetention) {
  MaxRetainPolicy p(1000);
  // T - maxRetain - 1 within (Tr, Td]: release up to it.
  EXPECT_EQ(p.release_upto(100, 5000, 4000), 2999);
  // Never beyond Td.
  EXPECT_EQ(p.release_upto(100, 2000, 9000), 2000);
  // Never below Tr.
  EXPECT_EQ(p.release_upto(100, 5000, 500), 100);
}

// ----------------------------------------------------------------- Pubend

struct PubendFixture : ::testing::Test {
  sim::Simulator sim;
  sim::LinkNetwork net{sim};
  BrokerConfig config{};
  NodeResources node{sim, net, "phb", config, storage::DiskConfig{msec(2), 1e9, 1e9, msec(1)}};
};

TEST_F(PubendFixture, AssignsMonotonicTicksAndDedups) {
  Pubend pe(PubendId{1}, node, std::make_shared<NoEarlyReleasePolicy>());
  const auto a = pe.accept_publish(PublisherId{1}, 1, 1, event(), sim.now());
  const auto b = pe.accept_publish(PublisherId{1}, 2, 1, event(), sim.now());
  EXPECT_FALSE(a.duplicate);
  EXPECT_LT(a.tick, b.tick);
  // A retry of an accepted seq is acked with the tick it was assigned the
  // first time, without re-logging — even when later seqs were accepted in
  // between (a retried backlog after a PHB outage arrives exactly so).
  const auto dup = pe.accept_publish(PublisherId{1}, 1, 1, event(), sim.now());
  EXPECT_TRUE(dup.duplicate);
  EXPECT_EQ(dup.tick, a.tick);
  EXPECT_EQ(pe.events_logged(), 2u);
}

TEST_F(PubendFixture, AnnouncesDataWithSilenceFill) {
  Pubend pe(PubendId{1}, node, std::make_shared<NoEarlyReleasePolicy>());
  const auto a = pe.accept_publish(PublisherId{1}, 1, 1, event(), sec(1));
  const auto region = pe.announce_data(a.tick, event());
  EXPECT_EQ(region.to, a.tick);
  EXPECT_EQ(pe.head(), a.tick);
  EXPECT_EQ(pe.ticks().value_at(a.tick), routing::TickValue::kD);
  if (a.tick > 1) {
    EXPECT_EQ(pe.ticks().value_at(a.tick - 1), routing::TickValue::kS);
  }
}

TEST_F(PubendFixture, SilenceStopsAtPendingUnloggedEvent) {
  Pubend pe(PubendId{1}, node, std::make_shared<NoEarlyReleasePolicy>());
  const auto a = pe.accept_publish(PublisherId{1}, 1, 1, event(), sec(1));
  // Event accepted but not yet announced: silence may not pass it.
  const auto region = pe.announce_silence(sec(5));
  ASSERT_TRUE(region.has_value());
  EXPECT_EQ(region->to, a.tick - 1);
  pe.announce_data(a.tick, event());
  const auto region2 = pe.announce_silence(sec(5));
  ASSERT_TRUE(region2.has_value());
  EXPECT_EQ(region2->to, tick_of_simtime(sec(5)) - 1);
  EXPECT_FALSE(pe.announce_silence(sec(5)).has_value());  // nothing new
}

TEST_F(PubendFixture, ReleaseConvertsPrefixToLostAndChopsLog) {
  Pubend pe(PubendId{1}, node, std::make_shared<NoEarlyReleasePolicy>());
  std::vector<Tick> ticks;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    const auto acc = pe.accept_publish(PublisherId{1}, i, i, event(), sec(i));
    pe.announce_data(acc.tick, event());
    ticks.push_back(acc.tick);
  }
  EXPECT_EQ(pe.retained_events(), 5u);
  pe.update_mins(ticks[2], ticks[3]);
  const auto lost = pe.apply_release(sec(10));
  ASSERT_TRUE(lost.has_value());
  EXPECT_EQ(lost->to, ticks[2]);
  EXPECT_EQ(pe.lost_upto(), ticks[2]);
  EXPECT_EQ(pe.retained_events(), 2u);
  EXPECT_EQ(pe.ticks().value_at(ticks[1]), routing::TickValue::kL);
  EXPECT_EQ(pe.ticks().value_at(ticks[3]), routing::TickValue::kD);
  // No further release without new mins.
  EXPECT_FALSE(pe.apply_release(sec(11)).has_value());
}

TEST_F(PubendFixture, ReleasedMinMayRegressButLossIsMonotone) {
  // A migration can legitimately lower Tr; delivered stays monotone, and a
  // regressed Tr only delays future releases — it never un-loses a prefix.
  Pubend pe(PubendId{1}, node, std::make_shared<NoEarlyReleasePolicy>());
  std::vector<Tick> ticks;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    const auto acc = pe.accept_publish(PublisherId{1}, i, i, event(), sec(i));
    pe.announce_data(acc.tick, event());
    ticks.push_back(acc.tick);
  }
  pe.update_mins(ticks[1], ticks[2]);
  ASSERT_TRUE(pe.apply_release(sec(9)).has_value());
  const Tick lost = pe.lost_upto();
  EXPECT_EQ(lost, ticks[1]);

  pe.update_mins(ticks[0], ticks[2]);  // regressed pin (migration)
  EXPECT_EQ(pe.released_min(), ticks[0]);
  EXPECT_EQ(pe.delivered_min(), ticks[2]);
  EXPECT_FALSE(pe.apply_release(sec(10)).has_value());
  EXPECT_EQ(pe.lost_upto(), lost);  // loss never regresses
}

TEST_F(PubendFixture, RecoveryRebuildsLadderAndDedup) {
  {
    Pubend pe(PubendId{1}, node, std::make_shared<NoEarlyReleasePolicy>());
    for (std::uint64_t i = 1; i <= 3; ++i) {
      const auto acc = pe.accept_publish(PublisherId{7}, i, i, event(), sec(i));
      pe.announce_data(acc.tick, event());
    }
    node.log_volume.sync([] {});
    sim.run_until_idle();
  }
  node.crash();
  node.restart();
  Pubend pe2(PubendId{1}, node, std::make_shared<NoEarlyReleasePolicy>());
  pe2.recover();
  EXPECT_EQ(pe2.head(), tick_of_simtime(sec(3)));
  EXPECT_EQ(pe2.ticks().value_at(pe2.head()), routing::TickValue::kD);
  // Replayed publishes are recognized as duplicates.
  const auto dup = pe2.accept_publish(PublisherId{7}, 3, 3, event(), sec(10));
  EXPECT_TRUE(dup.duplicate);
  const auto fresh = pe2.accept_publish(PublisherId{7}, 4, 4, event(), sec(10));
  EXPECT_FALSE(fresh.duplicate);
  EXPECT_GT(fresh.tick, pe2.head());
}

// -------------------------------------------------- PerSubscriberEventLog

TEST(PerSubscriberEventLog, WritesFullEventPerMatchingSubscriber) {
  sim::Simulator sim;
  storage::SimDisk disk(sim, "d", {msec(2), 1e9, 1e9, msec(1)});
  storage::LogVolume volume(disk);
  PerSubscriberEventLog log(volume);
  log.register_subscriber(SubscriberId{1});
  log.register_subscriber(SubscriberId{2});
  log.register_subscriber(SubscriberId{3});

  auto ev = event();
  log.log_event(100, ev, {SubscriberId{1}, SubscriberId{3}});
  EXPECT_EQ(log.records_written(), 2u);
  const auto per_event = encode_logged_event({100, PublisherId{0}, 0, ev}).size();
  EXPECT_EQ(log.payload_bytes_written(), 2 * per_event);

  log.log_event(101, ev, {SubscriberId{1}});
  log.ack(SubscriberId{1}, 100);  // chops the first record of sub 1 only
  EXPECT_EQ(log.records_written(), 3u);
}

}  // namespace
}  // namespace gryphon::core
