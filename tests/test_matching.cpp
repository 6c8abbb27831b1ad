// Unit tests: values, predicates, the selector parser, subscription index.
#include <gtest/gtest.h>

#include "matching/event.hpp"
#include "matching/parser.hpp"
#include "matching/predicate.hpp"
#include "matching/subscription_index.hpp"
#include "util/rng.hpp"

namespace gryphon::matching {
namespace {

EventData make_event(std::map<std::string, Value> attrs) {
  return EventData(std::move(attrs), "", 0);
}

// ------------------------------------------------------------------ Value

TEST(Value, NumericEqualityCrossesIntAndDouble) {
  EXPECT_EQ(Value(std::int64_t{5}), Value(5.0));
  EXPECT_FALSE(Value(std::int64_t{5}) == Value(5.5));
  EXPECT_FALSE(Value(std::int64_t{5}) == Value("5"));
  EXPECT_FALSE(Value(true) == Value(std::int64_t{1}));
}

TEST(Value, OrderingRules) {
  EXPECT_TRUE(Value(std::int64_t{3}).less_than(Value(3.5)));
  EXPECT_TRUE(Value("abc").less_than(Value("abd")));
  EXPECT_TRUE(Value("a").orderable_with(Value("b")));
  EXPECT_FALSE(Value("a").orderable_with(Value(std::int64_t{1})));
  EXPECT_FALSE(Value(true).orderable_with(Value(false)));
}

// -------------------------------------------------------------- Predicate

TEST(Predicate, ComparisonSemantics) {
  const auto e = make_event({{"price", Value(100.0)}, {"sym", Value("IBM")}});
  EXPECT_TRUE(compare("price", CompareOp::kEq, Value(100))->matches(e));
  EXPECT_TRUE(compare("price", CompareOp::kGe, Value(100))->matches(e));
  EXPECT_FALSE(compare("price", CompareOp::kGt, Value(100))->matches(e));
  EXPECT_TRUE(compare("price", CompareOp::kLt, Value(200))->matches(e));
  EXPECT_TRUE(compare("sym", CompareOp::kNe, Value("MSFT"))->matches(e));
  // Missing attribute: comparisons are false, even !=.
  EXPECT_FALSE(compare("volume", CompareOp::kNe, Value(0))->matches(e));
  // Non-orderable category mix: ordered comparisons are false.
  EXPECT_FALSE(compare("sym", CompareOp::kLt, Value(5))->matches(e));
}

TEST(Predicate, BooleanCombinators) {
  const auto e = make_event({{"a", Value(1)}, {"b", Value(2)}});
  auto a1 = compare("a", CompareOp::kEq, Value(1));
  auto b3 = compare("b", CompareOp::kEq, Value(3));
  EXPECT_FALSE(p_and({a1, b3})->matches(e));
  EXPECT_TRUE(p_or({a1, b3})->matches(e));
  EXPECT_TRUE(p_not(b3)->matches(e));
  EXPECT_TRUE(match_all()->matches(e));
  EXPECT_TRUE(exists("a")->matches(e));
  EXPECT_FALSE(exists("zz")->matches(e));
}

TEST(Predicate, EqualityKeyExtraction) {
  Predicate::EqualityKey key;
  EXPECT_TRUE(compare("g", CompareOp::kEq, Value(3))->equality_key(key));
  EXPECT_EQ(key.attribute, "g");
  EXPECT_FALSE(compare("g", CompareOp::kGt, Value(3))->equality_key(key));
  auto conj = p_and({compare("x", CompareOp::kGt, Value(0)),
                     compare("g", CompareOp::kEq, Value(7))});
  EXPECT_TRUE(conj->equality_key(key));
  EXPECT_EQ(key.value, Value(7));
  EXPECT_FALSE(p_or({compare("g", CompareOp::kEq, Value(1)),
                     compare("g", CompareOp::kEq, Value(2))})
                   ->equality_key(key));
}

// ----------------------------------------------------------------- Parser

TEST(Parser, ParsesComparisonsAndPrecedence) {
  const auto e = make_event({{"sym", Value("IBM")}, {"price", Value(120.5)}});
  EXPECT_TRUE(parse_predicate("sym == 'IBM' && price > 100")->matches(e));
  EXPECT_TRUE(parse_predicate("sym = 'MSFT' or price >= 120.5")->matches(e));
  // AND binds tighter than OR.
  EXPECT_TRUE(parse_predicate("sym == 'X' && price > 999 || sym == 'IBM'")->matches(e));
  EXPECT_FALSE(
      parse_predicate("sym == 'X' && (price > 999 || sym == 'IBM')")->matches(e));
}

TEST(Parser, KeywordsCaseInsensitiveAndNot) {
  const auto e = make_event({{"a", Value(1)}});
  EXPECT_TRUE(parse_predicate("NOT a == 2")->matches(e));
  EXPECT_TRUE(parse_predicate("a == 1 AND true")->matches(e));
  EXPECT_TRUE(parse_predicate("!false")->matches(e));
  EXPECT_TRUE(parse_predicate("exists(a) && !exists(b)")->matches(e));
}

TEST(Parser, LiteralsAndEscapes) {
  const auto e = make_event(
      {{"s", Value("it's")}, {"n", Value(-5)}, {"f", Value(2.5e3)}, {"b", Value(true)}});
  EXPECT_TRUE(parse_predicate("s == 'it''s'")->matches(e));
  EXPECT_TRUE(parse_predicate("n == -5")->matches(e));
  EXPECT_TRUE(parse_predicate("f == 2500.0")->matches(e));
  EXPECT_TRUE(parse_predicate("b == true")->matches(e));
  EXPECT_TRUE(parse_predicate("b")->matches(e));  // bare boolean attribute
  EXPECT_TRUE(parse_predicate("n <> 4")->matches(e));
}

TEST(Parser, ErrorsCarryPosition) {
  EXPECT_THROW(parse_predicate(""), ParseError);
  EXPECT_THROW(parse_predicate("a =="), ParseError);
  EXPECT_THROW(parse_predicate("(a == 1"), ParseError);
  EXPECT_THROW(parse_predicate("a == 'unterminated"), ParseError);
  EXPECT_THROW(parse_predicate("a == 1 garbage"), ParseError);
  EXPECT_THROW(parse_predicate("#"), ParseError);
  try {
    static_cast<void>(parse_predicate("a == @"));
    FAIL();
  } catch (const ParseError& err) {
    EXPECT_EQ(err.position(), 5u);
  }
}

TEST(Parser, RoundTripsThroughToString) {
  const auto text = "(g == 2 && price > 10) || !exists(flag)";
  auto p = parse_predicate(text);
  auto p2 = parse_predicate(p->to_string());
  const auto e1 = make_event({{"g", Value(2)}, {"price", Value(11)}});
  const auto e2 = make_event({{"flag", Value(true)}});
  EXPECT_EQ(p->matches(e1), p2->matches(e1));
  EXPECT_EQ(p->matches(e2), p2->matches(e2));
}

// ------------------------------------------------------ SubscriptionIndex

TEST(SubscriptionIndex, MatchReturnsSortedIds) {
  SubscriptionIndex index;
  index.add(SubscriberId{3}, parse_predicate("g == 1"));
  index.add(SubscriberId{1}, parse_predicate("g == 1"));
  index.add(SubscriberId{2}, parse_predicate("g == 2"));
  const auto e = make_event({{"g", Value(1)}});
  const auto hits = index.match(e);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], SubscriberId{1});
  EXPECT_EQ(hits[1], SubscriberId{3});
}

TEST(SubscriptionIndex, BucketedAndScanListCoexist) {
  SubscriptionIndex index;
  index.add(SubscriberId{1}, parse_predicate("g == 1"));          // bucketed
  index.add(SubscriberId{2}, parse_predicate("price > 50"));      // scan list
  index.add(SubscriberId{3}, parse_predicate("g == 1 && price > 50"));
  const auto e = make_event({{"g", Value(1)}, {"price", Value(60)}});
  EXPECT_EQ(index.match(e).size(), 3u);
  const auto e2 = make_event({{"g", Value(2)}, {"price", Value(60)}});
  EXPECT_EQ(index.match(e2).size(), 1u);  // only the scan-list predicate
}

TEST(SubscriptionIndex, RemoveAndReplace) {
  SubscriptionIndex index;
  index.add(SubscriberId{1}, parse_predicate("g == 1"));
  index.add(SubscriberId{1}, parse_predicate("g == 2"));  // replace
  EXPECT_EQ(index.size(), 1u);
  EXPECT_TRUE(index.match(make_event({{"g", Value(1)}})).empty());
  EXPECT_EQ(index.match(make_event({{"g", Value(2)}})).size(), 1u);
  index.remove(SubscriberId{1});
  EXPECT_EQ(index.size(), 0u);
  index.remove(SubscriberId{1});  // idempotent
}

TEST(SubscriptionIndex, MatchesAnyShortCircuits) {
  SubscriptionIndex index;
  EXPECT_FALSE(index.matches_any(make_event({{"g", Value(1)}})));
  index.add(SubscriberId{1}, parse_predicate("g == 1"));
  EXPECT_TRUE(index.matches_any(make_event({{"g", Value(1)}})));
  EXPECT_FALSE(index.matches_any(make_event({{"g", Value(9)}})));
}

TEST(SubscriptionIndex, IndexAgreesWithLinearScan) {
  SubscriptionIndex index;
  std::vector<PredicatePtr> preds;
  for (std::uint32_t i = 0; i < 40; ++i) {
    std::string text;
    switch (i % 4) {
      case 0: text = "g == " + std::to_string(i % 5); break;
      case 1: text = "price > " + std::to_string(i); break;
      case 2: text = "g == " + std::to_string(i % 3) + " && price < 30"; break;
      default: text = "exists(flag) || g == " + std::to_string(i % 7); break;
    }
    auto p = parse_predicate(text);
    preds.push_back(p);
    index.add(SubscriberId{i}, p);
  }
  for (int g = 0; g < 8; ++g) {
    for (int price = 0; price < 50; price += 7) {
      const auto e = make_event({{"g", Value(g)}, {"price", Value(price)}});
      std::vector<SubscriberId> expected;
      for (std::uint32_t i = 0; i < preds.size(); ++i) {
        if (preds[i]->matches(e)) expected.push_back(SubscriberId{i});
      }
      EXPECT_EQ(index.match(e), expected) << "g=" << g << " price=" << price;
    }
  }
}

// Covering-index property test (DESIGN.md §4.8): under seeded random
// predicate populations with add/remove churn — removals deliberately biased
// toward low ids, the likely group representatives, so promotion paths are
// exercised — the two-tier index must stay byte-identical to the naive
// every-predicate scan at every step.
TEST(SubscriptionIndex, CoveringIndexAgreesUnderChurn) {
  Rng rng(20260809);
  auto random_predicate = [&](std::uint32_t i) {
    const std::uint64_t shape = rng.next_below(10);
    const std::int64_t g = rng.next_in(0, 9);
    const std::int64_t v = rng.next_in(0, 20);
    std::string text;
    if (shape < 4) {
      text = "g == " + std::to_string(g);
    } else if (shape < 6) {
      text = "g == " + std::to_string(g) + " && price > " + std::to_string(v);
    } else if (shape < 8) {
      text = "price >= " + std::to_string(v);
    } else if (shape < 9) {
      text = "g == " + std::to_string(g) + " && g == " + std::to_string(g);
    } else {
      text = "exists(flag) || g == " + std::to_string(g);
    }
    (void)i;
    return parse_predicate(text);
  };

  SubscriptionIndex index;
  std::vector<std::pair<SubscriberId, PredicatePtr>> naive;
  std::uint32_t next_id = 1;

  auto check_equivalence = [&] {
    for (int trial = 0; trial < 12; ++trial) {
      const auto g = rng.next_in(0, 9);
      const auto price = rng.next_in(0, 20);
      EventData e = rng.next_bool(0.2)
                        ? make_event({{"g", Value(g)}, {"flag", Value(true)}})
                        : make_event({{"g", Value(g)}, {"price", Value(price)}});
      std::vector<SubscriberId> expected;
      for (const auto& [id, p] : naive) {
        if (p->matches(e)) expected.push_back(id);
      }
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(index.match(e), expected)
          << "population " << naive.size() << " event g=" << g
          << " price=" << price;
      ASSERT_EQ(index.matches_any(e), !expected.empty());
    }
  };

  for (int round = 0; round < 40; ++round) {
    const std::uint64_t adds = 1 + rng.next_below(12);
    for (std::uint64_t a = 0; a < adds; ++a) {
      const SubscriberId id{next_id++};
      auto p = random_predicate(id.value());
      index.add(id, p);
      naive.emplace_back(id, std::move(p));
    }
    // Remove a few, biased to the oldest ids: group representatives are the
    // first member added, so this forces representative promotion.
    const std::uint64_t removes = rng.next_below(std::min<std::uint64_t>(6, naive.size()));
    for (std::uint64_t r = 0; r < removes && !naive.empty(); ++r) {
      const std::size_t pick =
          rng.next_bool(0.7) ? rng.next_below(std::max<std::size_t>(1, naive.size() / 3))
                             : rng.next_below(naive.size());
      const SubscriberId victim = naive[pick].first;
      index.remove(victim);
      naive.erase(naive.begin() + static_cast<std::ptrdiff_t>(pick));
      EXPECT_FALSE(index.contains(victim));
    }
    ASSERT_EQ(index.size(), naive.size());
    check_equivalence();
  }

  // Equality-heavy populations must compress: far fewer groups than members.
  SubscriptionIndex dense;
  for (std::uint32_t i = 0; i < 400; ++i) {
    dense.add(SubscriberId{i}, parse_predicate("g == " + std::to_string(i % 8)));
  }
  EXPECT_LE(dense.group_count(), 8u);
  EXPECT_EQ(dense.size(), 400u);
}

// ------------------------------------------------------------- EventData

TEST(EventData, PayloadPaddingAndEncodedSize) {
  EventData e({{"g", Value(1)}}, "short", 250);
  EXPECT_EQ(e.payload_size(), 250u);
  EXPECT_GT(e.encoded_size(), 250u);  // + attribute encoding
  EventData big({{"g", Value(1)}}, std::string(300, 'x'), 250);
  EXPECT_EQ(big.payload_size(), 300u);
}

}  // namespace
}  // namespace gryphon::matching
