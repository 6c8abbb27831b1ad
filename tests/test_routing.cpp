// Unit tests: TickMap knowledge-stream semantics — accumulation rules,
// doubt horizon, item extraction/application, loss, discarding.
#include <gtest/gtest.h>

#include "routing/tick_map.hpp"
#include "util/rng.hpp"

namespace gryphon::routing {
namespace {

matching::EventDataPtr event(int g = 0) {
  return std::make_shared<matching::EventData>(
      std::map<std::string, matching::Value>{{"g", matching::Value(g)}}, "", 64);
}

TEST(TickMap, StartsAllQ) {
  TickMap map(0);
  EXPECT_EQ(map.value_at(1), TickValue::kQ);
  EXPECT_EQ(map.value_at(1000), TickValue::kQ);
  EXPECT_EQ(map.head(), 0);
  EXPECT_EQ(map.doubt_horizon(0), 0);
}

TEST(TickMap, DataAndSilenceAccumulate) {
  TickMap map(0);
  map.set_silence(1, 4);
  map.set_data(5, event());
  EXPECT_EQ(map.value_at(3), TickValue::kS);
  EXPECT_EQ(map.value_at(5), TickValue::kD);
  EXPECT_NE(map.event_at(5), nullptr);
  EXPECT_EQ(map.event_at(4), nullptr);
  EXPECT_EQ(map.head(), 5);
  EXPECT_EQ(map.doubt_horizon(0), 5);
}

TEST(TickMap, DoubtHorizonStopsAtFirstQ) {
  TickMap map(0);
  map.set_silence(1, 10);
  map.set_silence(15, 20);
  EXPECT_EQ(map.doubt_horizon(0), 10);
  EXPECT_EQ(map.doubt_horizon(10), 10);
  EXPECT_EQ(map.doubt_horizon(14), 20);
  map.set_data(12, event());
  EXPECT_EQ(map.doubt_horizon(10), 10);  // 11 still Q
  map.set_silence(11, 11);
  map.set_silence(13, 14);
  EXPECT_EQ(map.doubt_horizon(10), 20);
}

TEST(TickMap, SilenceDoesNotOverrideKnowledge) {
  TickMap map(0);
  map.set_data(5, event());
  map.set_lost(7, 8);
  map.set_silence(1, 10);  // fills only Q gaps
  EXPECT_EQ(map.value_at(5), TickValue::kD);
  EXPECT_EQ(map.value_at(7), TickValue::kL);
  EXPECT_EQ(map.value_at(6), TickValue::kS);
}

TEST(TickMap, DataUpgradesSilence) {
  // With dynamic subscriptions, S means "irrelevant to the link's filter set
  // at the time"; an authoritative re-fetch after a subscription change
  // (reconnect-anywhere) may upgrade it to the concrete event.
  TickMap map(0);
  map.set_silence(1, 10);
  map.set_data(5, event());
  EXPECT_EQ(map.value_at(5), TickValue::kD);
  EXPECT_EQ(map.value_at(4), TickValue::kS);
  EXPECT_EQ(map.value_at(6), TickValue::kS);
  EXPECT_EQ(map.doubt_horizon(0), 10);
}

TEST(TickMap, DataUpgradesLost) {
  TickMap map(0);
  map.set_lost(1, 10);
  map.set_data(5, event());
  EXPECT_EQ(map.value_at(5), TickValue::kD);
  EXPECT_EQ(map.value_at(4), TickValue::kL);
  EXPECT_EQ(map.value_at(6), TickValue::kL);
}

TEST(TickMap, DataIsIdempotent) {
  TickMap map(0);
  map.set_data(5, event(1));
  map.set_data(5, event(2));  // redelivery ignored
  EXPECT_EQ(map.retained_events(), 1u);
}

TEST(TickMap, ForceLostOverridesAndDropsEvents) {
  TickMap map(0);
  map.set_data(5, event());
  map.set_silence(1, 4);
  map.force_lost(1, 6);
  EXPECT_EQ(map.value_at(5), TickValue::kL);
  EXPECT_EQ(map.value_at(1), TickValue::kL);
  EXPECT_EQ(map.retained_events(), 0u);
  EXPECT_EQ(map.retained_event_bytes(), 0u);
}

TEST(TickMap, QRangesComplementsKnowledge) {
  TickMap map(0);
  map.set_silence(3, 5);
  map.set_data(8, event());
  const auto q = map.q_ranges(1, 10);
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q[0], (TickRange{1, 2}));
  EXPECT_EQ(q[1], (TickRange{6, 7}));
  EXPECT_EQ(q[2], (TickRange{9, 10}));
}

TEST(TickMap, ItemsRoundTripThroughApply) {
  TickMap src(0);
  src.set_silence(1, 4);
  src.set_data(5, event(1));
  src.set_lost(6, 9);
  src.set_data(12, event(2));

  TickMap dst(0);
  for (const auto& item : src.items(1, 20)) dst.apply(item);
  for (Tick t = 1; t <= 12; ++t) {
    EXPECT_EQ(dst.value_at(t), src.value_at(t)) << "tick " << t;
  }
  EXPECT_EQ(dst.value_at(13), TickValue::kQ);
}

TEST(TickMap, ItemsAreOrderedAndSkipQ) {
  TickMap map(0);
  map.set_data(5, event());
  map.set_silence(1, 3);
  map.set_lost(10, 12);
  const auto items = map.items(1, 20);
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].value, TickValue::kS);
  EXPECT_EQ(items[0].range, (TickRange{1, 3}));
  EXPECT_EQ(items[1].value, TickValue::kD);
  EXPECT_EQ(items[1].range, (TickRange{5, 5}));
  EXPECT_EQ(items[2].value, TickValue::kL);
  EXPECT_EQ(items[2].range, (TickRange{10, 12}));
}

TEST(TickMap, ItemsClipToRequestedWindow) {
  TickMap map(0);
  map.set_silence(1, 100);
  const auto items = map.items(40, 60);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].range, (TickRange{40, 60}));
}

TEST(TickMap, DiscardForgetsPrefix) {
  TickMap map(0);
  map.set_silence(1, 4);
  map.set_data(5, event());
  map.set_data(9, event());
  map.discard_upto(5);
  EXPECT_EQ(map.origin(), 5);
  EXPECT_EQ(map.retained_events(), 1u);
  EXPECT_EQ(map.value_at(9), TickValue::kD);
  // Stale knowledge below the origin is ignored, not an error.
  map.set_data(3, event());
  map.set_silence(1, 2);
  EXPECT_EQ(map.retained_events(), 1u);
  EXPECT_THROW(static_cast<void>(map.value_at(5)), InvariantViolation);  // at/below origin
}

TEST(TickMap, ForEachDataAndCount) {
  TickMap map(0);
  for (Tick t = 2; t <= 20; t += 2) map.set_data(t, event(static_cast<int>(t)));
  EXPECT_EQ(map.data_count(1, 20), 10u);
  EXPECT_EQ(map.data_count(5, 9), 2u);  // D at 6 and 8
  std::vector<Tick> seen;
  map.for_each_data(6, 12, [&](Tick t, const matching::EventDataPtr&) {
    seen.push_back(t);
  });
  EXPECT_EQ(seen, (std::vector<Tick>{6, 8, 10, 12}));
}

TEST(TickMap, RandomizedConsistencyWithReferenceModel) {
  Rng rng(99);
  TickMap map(0);
  std::map<Tick, TickValue> reference;  // absent = Q
  auto ref_value = [&](Tick t) {
    auto it = reference.find(t);
    return it == reference.end() ? TickValue::kQ : it->second;
  };
  for (int op = 0; op < 3000; ++op) {
    const Tick a = rng.next_in(1, 300);
    const Tick b = a + rng.next_in(0, 10);
    switch (rng.next_below(3)) {
      case 0:
        if (ref_value(a) != TickValue::kS) {
          map.set_data(a, event());
          reference[a] = TickValue::kD;
        }
        break;
      case 1:
        map.set_silence(a, b);
        for (Tick t = a; t <= b; ++t) {
          if (ref_value(t) == TickValue::kQ) reference[t] = TickValue::kS;
        }
        break;
      default:
        map.set_lost(a, b);
        for (Tick t = a; t <= b; ++t) {
          if (ref_value(t) == TickValue::kQ) reference[t] = TickValue::kL;
        }
        break;
    }
  }
  for (Tick t = 1; t <= 310; ++t) {
    EXPECT_EQ(map.value_at(t), ref_value(t)) << "tick " << t;
  }
  // Doubt horizons agree with a linear scan of the reference.
  for (Tick base : {Tick{0}, Tick{50}, Tick{100}, Tick{250}}) {
    Tick expected = base;
    while (ref_value(expected + 1) != TickValue::kQ) ++expected;
    EXPECT_EQ(map.doubt_horizon(base), expected) << "base " << base;
  }
}

// Full-lifecycle property test: random upgrade sequences including the
// pubend-side rewrites (force_lost) and cache eviction (discard_upto),
// checked tick-by-tick against a naive per-tick reference model, and
// round-tripped through items()/apply() into a fresh map.
TEST(TickMap, RandomizedLifecycleWithForceLostAndDiscard) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    TickMap map(0);
    std::map<Tick, TickValue> reference;  // absent = Q
    Tick origin = 0;
    auto ref_value = [&](Tick t) {
      auto it = reference.find(t);
      return it == reference.end() ? TickValue::kQ : it->second;
    };
    Tick high = 0;  // highest tick any operation touched
    for (int op = 0; op < 2000; ++op) {
      const Tick a = origin + rng.next_in(1, 400);
      const Tick b = a + rng.next_in(0, 12);
      high = std::max(high, b);
      switch (rng.next_below(16)) {
        case 0:
        case 1:
        case 2:
        case 3:
        case 4:
          if (a > origin && ref_value(a) != TickValue::kS) {
            map.set_data(a, event());
            reference[a] = TickValue::kD;
          }
          break;
        case 5:
        case 6:
        case 7:
        case 8:
        case 9:
          map.set_silence(a, b);
          for (Tick t = std::max(a, origin + 1); t <= b; ++t) {
            if (ref_value(t) == TickValue::kQ) reference[t] = TickValue::kS;
          }
          break;
        case 10:
        case 11:
        case 12:
        case 13:
          map.set_lost(a, b);
          for (Tick t = std::max(a, origin + 1); t <= b; ++t) {
            if (ref_value(t) == TickValue::kQ) reference[t] = TickValue::kL;
          }
          break;
        case 14:
          // Pubend release: rewrites the range to L unconditionally,
          // dropping any retained payloads.
          map.force_lost(a, b);
          for (Tick t = std::max(a, origin + 1); t <= b; ++t) {
            reference[t] = TickValue::kL;
          }
          break;
        default: {
          // Eviction/consumption of a short prefix above the origin.
          const Tick cut = origin + rng.next_in(1, 20);
          map.discard_upto(cut);
          origin = std::max(origin, cut);
          reference.erase(reference.begin(), reference.upper_bound(origin));
          break;
        }
      }
    }
    ASSERT_EQ(map.origin(), origin) << "seed " << seed;
    ASSERT_GT(high, origin) << "seed " << seed;
    std::size_t ref_events = 0;
    for (Tick t = origin + 1; t <= high; ++t) {
      ASSERT_EQ(map.value_at(t), ref_value(t)) << "seed " << seed << " tick " << t;
      if (ref_value(t) == TickValue::kD) ++ref_events;
    }
    ASSERT_EQ(map.retained_events(), ref_events) << "seed " << seed;

    // Round trip: everything the map knows must transfer through
    // items()/apply() into a fresh map with identical per-tick values.
    TickMap copy(origin);
    for (const KnowledgeItem& item : map.items(origin + 1, high)) copy.apply(item);
    for (Tick t = origin + 1; t <= high; ++t) {
      ASSERT_EQ(copy.value_at(t), map.value_at(t)) << "seed " << seed << " tick " << t;
    }
  }
}

}  // namespace
}  // namespace gryphon::routing
