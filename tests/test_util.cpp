// Unit tests: interval sets, statistics, RNG, backoff, byte buffers, ids.
#include <gtest/gtest.h>

#include "util/backoff.hpp"
#include "util/byte_buffer.hpp"
#include "util/ids.hpp"
#include "util/interval_set.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace gryphon {
namespace {

// ----------------------------------------------------------- IntervalSet

TEST(IntervalSet, AddAndContains) {
  IntervalSet s;
  EXPECT_TRUE(s.empty());
  s.add(10, 20);
  EXPECT_TRUE(s.contains(10));
  EXPECT_TRUE(s.contains(20));
  EXPECT_FALSE(s.contains(9));
  EXPECT_FALSE(s.contains(21));
  EXPECT_EQ(s.total_length(), 11);
}

TEST(IntervalSet, AddMergesOverlapping) {
  IntervalSet s;
  s.add(10, 20);
  s.add(15, 30);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.min(), 10);
  EXPECT_EQ(s.max(), 30);
}

TEST(IntervalSet, AddMergesAdjacent) {
  IntervalSet s;
  s.add(10, 20);
  s.add(21, 30);
  EXPECT_EQ(s.interval_count(), 1u);
  s.add(5, 9);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.total_length(), 26);
}

TEST(IntervalSet, AddKeepsDisjoint) {
  IntervalSet s;
  s.add(10, 20);
  s.add(30, 40);
  EXPECT_EQ(s.interval_count(), 2u);
  EXPECT_FALSE(s.contains(25));
}

TEST(IntervalSet, AddBridgesMany) {
  IntervalSet s;
  for (Tick t = 0; t < 100; t += 10) s.add(t, t + 4);
  EXPECT_EQ(s.interval_count(), 10u);
  s.add(0, 99);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.total_length(), 100);
}

TEST(IntervalSet, SubtractMiddleSplits) {
  IntervalSet s;
  s.add(10, 30);
  s.subtract(15, 20);
  EXPECT_EQ(s.interval_count(), 2u);
  EXPECT_TRUE(s.contains(14));
  EXPECT_FALSE(s.contains(15));
  EXPECT_FALSE(s.contains(20));
  EXPECT_TRUE(s.contains(21));
}

TEST(IntervalSet, SubtractEdgesAndAll) {
  IntervalSet s;
  s.add(10, 30);
  s.subtract(10, 12);
  EXPECT_EQ(s.min(), 13);
  s.subtract(28, 35);
  EXPECT_EQ(s.max(), 27);
  s.subtract(0, 100);
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSet, SubtractAcrossMultipleIntervals) {
  IntervalSet s;
  s.add(0, 10);
  s.add(20, 30);
  s.add(40, 50);
  s.subtract(5, 45);
  EXPECT_EQ(s.interval_count(), 2u);
  EXPECT_EQ(s.max(), 50);
  EXPECT_EQ(s.total_length(), 5 + 5);
}

TEST(IntervalSet, SubtractIsNotQuadraticLivelock) {
  // Regression: subtracting the middle of an interval must terminate.
  IntervalSet s;
  s.add(0, 1'000'000);
  for (Tick t = 1; t < 1000; ++t) s.subtract(t * 100, t * 100 + 50);
  EXPECT_GT(s.interval_count(), 500u);
}

TEST(IntervalSet, IntersectionAndComplement) {
  IntervalSet s;
  s.add(10, 20);
  s.add(30, 40);
  const auto inter = s.intersection(15, 35);
  ASSERT_EQ(inter.size(), 2u);
  EXPECT_EQ(inter[0], (TickRange{15, 20}));
  EXPECT_EQ(inter[1], (TickRange{30, 35}));

  const auto comp = s.complement_within(5, 45);
  ASSERT_EQ(comp.size(), 3u);
  EXPECT_EQ(comp[0], (TickRange{5, 9}));
  EXPECT_EQ(comp[1], (TickRange{21, 29}));
  EXPECT_EQ(comp[2], (TickRange{41, 45}));
}

TEST(IntervalSet, AddUncoveredReturnsOnlyTheFreshPieces) {
  IntervalSet s;
  s.add(10, 20);
  const auto fresh = s.add_uncovered({{5, 12}, {18, 25}, {22, 30}, {40, 40}});
  ASSERT_EQ(fresh.size(), 4u);
  EXPECT_EQ(fresh[0], (TickRange{5, 9}));
  EXPECT_EQ(fresh[1], (TickRange{21, 25}));
  EXPECT_EQ(fresh[2], (TickRange{26, 30}));  // [22,25] was added just before
  EXPECT_EQ(fresh[3], (TickRange{40, 40}));
  EXPECT_TRUE(s.covers(5, 30));
  EXPECT_TRUE(s.add_uncovered({{6, 29}}).empty());
}

TEST(IntervalSet, CoversAndIntersects) {
  IntervalSet s;
  s.add(10, 20);
  EXPECT_TRUE(s.covers(10, 20));
  EXPECT_TRUE(s.covers(12, 18));
  EXPECT_FALSE(s.covers(5, 15));
  EXPECT_TRUE(s.intersects(5, 15));
  EXPECT_TRUE(s.intersects(20, 25));
  EXPECT_FALSE(s.intersects(21, 25));
}

TEST(IntervalSet, IntervalContaining) {
  IntervalSet s;
  s.add(10, 20);
  auto r = s.interval_containing(15);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, (TickRange{10, 20}));
  EXPECT_FALSE(s.interval_containing(21).has_value());
  EXPECT_FALSE(s.interval_containing(9).has_value());
}

TEST(IntervalSet, RandomizedAgainstReferenceSet) {
  Rng rng(42);
  IntervalSet s;
  std::set<Tick> reference;
  for (int op = 0; op < 2000; ++op) {
    const Tick a = rng.next_in(0, 500);
    const Tick b = a + rng.next_in(0, 30);
    if (rng.next_bool(0.6)) {
      s.add(a, b);
      for (Tick t = a; t <= b; ++t) reference.insert(t);
    } else {
      s.subtract(a, b);
      for (Tick t = a; t <= b; ++t) reference.erase(t);
    }
  }
  Tick len = 0;
  for (Tick t = 0; t <= 540; ++t) {
    EXPECT_EQ(s.contains(t), reference.contains(t)) << "tick " << t;
    len += reference.contains(t) ? 1 : 0;
  }
  EXPECT_EQ(s.total_length(), len);
}

// ----------------------------------------------------------------- stats

TEST(Summary, WelfordMatchesClosedForm) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RateMeter, WindowsCountPerSecond) {
  RateMeter m(sec(1));
  for (int i = 0; i < 100; ++i) m.record(msec(10) * i);  // 100 over 1s
  m.record(sec(1) + msec(500), 50);
  m.record(sec(2) + msec(1));  // opens the third window
  const auto windows = m.windows();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_DOUBLE_EQ(windows[0].per_second, 100.0);
  EXPECT_DOUBLE_EQ(windows[1].per_second, 50.0);
  EXPECT_EQ(m.total(), 151u);
}

TEST(RateMeter, IdleGapWindowsReportZeroRate) {
  RateMeter m(sec(1));
  m.record(msec(500), 10);
  // Nothing for three full windows, then a burst in window 4. The idle
  // windows must appear as explicit zero-rate entries, not be elided — a
  // plot over windows() would otherwise silently skip the quiet span.
  m.record(sec(4) + msec(100), 20);
  m.record(sec(5) + msec(1));  // opens window 5 so window 4 completes
  const auto w = m.windows();
  ASSERT_EQ(w.size(), 5u);
  EXPECT_DOUBLE_EQ(w[0].per_second, 10.0);
  EXPECT_DOUBLE_EQ(w[1].per_second, 0.0);
  EXPECT_DOUBLE_EQ(w[2].per_second, 0.0);
  EXPECT_DOUBLE_EQ(w[3].per_second, 0.0);
  EXPECT_DOUBLE_EQ(w[4].per_second, 20.0);
  EXPECT_EQ(w[4].start, sec(4));
}

TEST(RateMeter, LeadingIdleWindowsBeforeFirstRecord) {
  RateMeter m(sec(1));
  m.record(sec(3), 7);  // first ever event lands in window 3
  m.record(sec(4));     // completes window 3
  const auto w = m.windows();
  ASSERT_EQ(w.size(), 4u);
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(w[i].per_second, 0.0);
  EXPECT_DOUBLE_EQ(w[3].per_second, 7.0);
}

TEST(TimeSeries, RateOfChange) {
  TimeSeries ts("x");
  // Value advances 1000 per second of sim time.
  for (int i = 0; i <= 10; ++i) ts.record(sec(i), 1000.0 * i);
  const auto rates = ts.rate_of_change(sec(1));
  ASSERT_EQ(rates.size(), 10u);
  for (const auto& p : rates) EXPECT_NEAR(p.value, 1000.0, 1e-6);
}

TEST(TimeSeries, AverageOverStepInterpolates) {
  TimeSeries ts("x");
  ts.record(0, 10.0);
  ts.record(sec(1), 20.0);
  EXPECT_NEAR(ts.average_over(0, sec(2)), 15.0, 1e-9);
  EXPECT_NEAR(ts.average_over(sec(1), sec(2)), 20.0, 1e-9);
}

TEST(Histogram, Percentiles) {
  Histogram h(0.1, 1000.0);
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i) / 10.0);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.percentile(50), 50.0, 15.0);
  EXPECT_NEAR(h.percentile(99), 99.0, 30.0);
}

TEST(TimeSeries, DegenerateSeriesHaveDefinedResults) {
  TimeSeries empty("e");
  EXPECT_TRUE(empty.rate_of_change(sec(1)).empty());
  EXPECT_DOUBLE_EQ(empty.average_over(0, sec(1)), 0.0);

  TimeSeries one("o");
  one.record(sec(5), 42.0);
  // One point: no measurable change, and the single value extends over any
  // averaging window (including windows entirely before the point).
  EXPECT_TRUE(one.rate_of_change(sec(1)).empty());
  EXPECT_DOUBLE_EQ(one.average_over(0, sec(1)), 42.0);
  EXPECT_DOUBLE_EQ(one.average_over(sec(4), sec(6)), 42.0);
  EXPECT_DOUBLE_EQ(one.average_over(sec(10), sec(11)), 42.0);
}

TEST(Histogram, PercentileEdgesAndClamping) {
  Histogram empty(1.0, 100.0);
  EXPECT_DOUBLE_EQ(empty.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(100), 0.0);

  Histogram h(1.0, 100.0);
  h.add(10.0);
  h.add(20.0);
  // p=0 reports the first non-empty bucket, p=100 the last; both are bucket
  // upper bounds, so compare with log-bucket slack.
  EXPECT_NEAR(h.percentile(0), 10.0, 3.0);
  EXPECT_NEAR(h.percentile(100), 20.0, 6.0);
  EXPECT_LE(h.percentile(0), h.percentile(100));

  // Out-of-range values clamp into the edge buckets instead of being lost.
  Histogram clamped(1.0, 100.0);
  clamped.add(0.001);   // below min: first bucket, reported as min_value
  clamped.add(1e9);     // above max: overflow bucket
  EXPECT_EQ(clamped.count(), 2u);
  EXPECT_DOUBLE_EQ(clamped.percentile(0), 1.0);
  EXPECT_GE(clamped.percentile(100), 100.0);

  EXPECT_THROW(static_cast<void>(h.percentile(-0.5)), InvariantViolation);
  EXPECT_THROW(static_cast<void>(h.percentile(100.5)), InvariantViolation);
}

// ------------------------------------------------------------------- rng

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, BoundsRespected) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(3);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Splitmix64, MatchesTheReferenceOutputs) {
  static_assert(splitmix64(0) == 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(splitmix64(0xdeadbeefULL), 0x4adfb90f68c9eb9bULL);
  EXPECT_EQ(splitmix64(~0ULL), 0xe4d971771b652c20ULL);
  EXPECT_EQ(splitmix64(41), splitmix64_finalize(41 + kSplitmixGamma));
}

// --------------------------------------------------------------- backoff

// Pinned delays of the client reconnect and the SHB nack-retry backoffs at
// their defaults: retry timing is part of every seeded run, so a drift here
// changes the replay of every chaos and churn seed.
TEST(Backoff, DelaysMatchTheRecordedValues) {
  const Backoff reconnect{msec(500), sec(4)};
  EXPECT_EQ(reconnect.delay(0, 1, 0), 429637);
  EXPECT_EQ(reconnect.delay(0, 1, 1), 870710);
  EXPECT_EQ(reconnect.delay(7, 1, 0), 481904);
  EXPECT_EQ(reconnect.delay(7, 2, 3), 4480428);
  EXPECT_EQ(reconnect.delay(41, 1, 10), 3280308);
  EXPECT_EQ(reconnect.delay(123456, 5, 2), 1792877);

  const Backoff nack{msec(1000), sec(4)};
  EXPECT_EQ(nack.delay(3, 0x700000001ULL, 0), 863048);
  EXPECT_EQ(nack.delay(3, 0x102, 1), 2273802);
  EXPECT_EQ(nack.delay(5, 0x903, 2), 3983577);
  EXPECT_EQ(nack.delay(12, 0x100000201ULL, 3), 3645246);
  EXPECT_EQ(nack.delay(12, 0x2, 7), 4690544);

  EXPECT_EQ((Backoff{10, 1000, 3.0, 0.0}.delay(1, 1, 4)), 810);
  EXPECT_EQ((Backoff{10, 1000, 3.0, 0.5}.delay(2, 3, 9)), 1431);
}

TEST(Backoff, StaysWithinTheJitterBandOfTheCappedExponential) {
  const Backoff b{msec(100), sec(1), 2.0, 0.25};
  for (std::uint64_t retry = 0; retry < 12; ++retry) {
    const double nominal = std::min(100'000.0 * static_cast<double>(1ULL << retry), 1e6);
    for (std::uint64_t salt = 0; salt < 50; ++salt) {
      const auto d = static_cast<double>(b.delay(salt, 9, retry));
      EXPECT_GE(d, nominal * 0.75 - 1);
      EXPECT_LT(d, nominal * 1.25 + 1);
    }
  }
}

// ----------------------------------------------------------- byte buffer

TEST(ByteBuffer, RoundTripsAllTypes) {
  BufWriter w;
  w.put_u8(0xAB);
  w.put_u16(0xBEEF);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFULL);
  w.put_i64(-42);
  w.put_string("hello world");
  auto bytes = w.take();

  BufReader r(bytes);
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u16(), 0xBEEF);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_EQ(r.get_string(), "hello world");
  EXPECT_TRUE(r.done());
}

TEST(ByteBuffer, TruncatedReadThrows) {
  BufWriter w;
  w.put_u32(7);
  auto bytes = w.take();
  BufReader r(bytes);
  r.get_u32();
  EXPECT_THROW(r.get_u64(), InvariantViolation);
}

// ------------------------------------------------------------------- ids

TEST(Ids, DistinctTagTypesDoNotMix) {
  const PubendId p{3};
  const SubscriberId s{3};
  static_assert(!std::is_same_v<PubendId, SubscriberId>);
  EXPECT_EQ(p.value(), s.value());
  EXPECT_EQ(PubendId{3}, p);
  EXPECT_LT(PubendId{2}, p);
  std::unordered_map<SubscriberId, int> m;
  m[s] = 1;
  EXPECT_EQ(m.at(SubscriberId{3}), 1);
}

}  // namespace
}  // namespace gryphon
