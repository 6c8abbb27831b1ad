// Unit tests for the observability layer: MetricsRegistry slots and probes,
// deterministic trace sampling, the flight-recorder ring, the merged dump's
// milestone checklist, the per-stage LatencyRecorder, the Chrome
// trace-event exporter, and the exact bytes every serializer writes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "harness/system.hpp"
#include "net/broker_process.hpp"
#include "net/event_loop.hpp"
#include "util/json.hpp"
#include "util/latency.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"
#include "util/trace_export.hpp"

namespace gryphon {
namespace {

// Renders one serializer into a string in the pretty or compact style.
JsonWriter::Style style(bool pretty) {
  return pretty ? JsonWriter::Style::kPretty : JsonWriter::Style::kCompact;
}

std::string metrics_json(MetricsRegistry& reg, bool pretty) {
  std::string out;
  JsonWriter w(out, style(pretty));
  reg.append_json(w);
  return out;
}

std::string latency_json(const LatencyRecorder& lat, bool pretty) {
  std::string out;
  JsonWriter w(out, style(pretty));
  lat.append_json(w);
  return out;
}

std::string system_metrics_json(harness::System& system, bool pretty) {
  std::string out;
  JsonWriter w(out, style(pretty));
  system.append_metrics_json(w);
  return out;
}

// --------------------------------------------------------------- registry

TEST(MetricsRegistry, CounterSlotsAreGetOrCreateWithStableAddresses) {
  MetricsRegistry reg("node");
  auto* a = reg.counter("phb.publishes");
  a->inc(3);
  // Re-resolving (what a restarted broker does) yields the same cumulative
  // slot, and creating many other slots must not move it.
  for (int i = 0; i < 100; ++i) reg.counter("filler." + std::to_string(i));
  auto* b = reg.counter("phb.publishes");
  EXPECT_EQ(a, b);
  b->inc(2);
  EXPECT_EQ(a->get(), 5u);
}

TEST(MetricsRegistry, GaugeAndHistogramSlots) {
  MetricsRegistry reg("node");
  auto* g = reg.gauge("depth");
  g->set(4.5);
  EXPECT_DOUBLE_EQ(reg.gauge("depth")->get(), 4.5);

  auto* h = reg.histogram("lat", 1.0, 1000.0);
  h->add(10.0);
  EXPECT_EQ(reg.histogram("lat", 1.0, 1000.0), h);
  EXPECT_EQ(h->count(), 1u);
}

TEST(MetricsRegistry, ProbesEvaluateOnlyAtRefreshAndDieWithTheirToken) {
  MetricsRegistry reg("node");
  int calls = 0;
  double source = 7.0;
  {
    auto probe = reg.probe("pulled", [&] {
      ++calls;
      return source;
    });
    EXPECT_EQ(calls, 0);  // lazily evaluated: zero steady-state cost
    reg.refresh_probes();
    EXPECT_EQ(calls, 1);
    EXPECT_DOUBLE_EQ(reg.gauge("pulled")->get(), 7.0);
    source = 9.0;
  }
  // Token destroyed (the "broker" crashed): the callback must not run
  // again, and the gauge retains its last refreshed value.
  reg.refresh_probes();
  EXPECT_EQ(calls, 1);
  EXPECT_DOUBLE_EQ(reg.gauge("pulled")->get(), 7.0);
}

TEST(MetricsRegistry, JsonSnapshotIsSortedAndDeterministic) {
  auto build = [] {
    MetricsRegistry reg("n");
    reg.counter("zeta")->inc(2);
    reg.counter("alpha")->inc(1);
    reg.gauge("mid")->set(3.0);
    return metrics_json(reg, /*pretty=*/true);
  };
  const std::string a = build();
  EXPECT_EQ(a, build());
  // Sorted iteration: "alpha" precedes "zeta" regardless of creation order.
  EXPECT_LT(a.find("\"alpha\""), a.find("\"zeta\""));
  EXPECT_NE(a.find("\"counters\""), std::string::npos);
  EXPECT_NE(a.find("\"gauges\""), std::string::npos);
}

// ---------------------------------------------------------------- tracing

TEST(Tracer, SampleMaskIsDeterministicPowerOfTwo) {
  Tracer t("n", 16, 64);
  EXPECT_EQ(t.sample_every(), 64u);
  EXPECT_TRUE(t.sampled(0));
  EXPECT_TRUE(t.sampled(64));
  EXPECT_TRUE(t.sampled(128));
  EXPECT_FALSE(t.sampled(1));
  EXPECT_FALSE(t.sampled(63));
  EXPECT_FALSE(t.sampled(65));

  t.set_sample_every(50);  // rounds up to 64
  EXPECT_EQ(t.sample_every(), 64u);
  t.set_sample_every(1);  // everything sampled
  EXPECT_TRUE(t.sampled(63));
}

TEST(Tracer, RangeGateDetectsAnySampledTick) {
  Tracer t("n", 16, 64);
  EXPECT_TRUE(t.sampled_range(0, 10));     // contains 0
  EXPECT_TRUE(t.sampled_range(60, 70));    // contains 64
  EXPECT_FALSE(t.sampled_range(1, 63));    // between sample points
  EXPECT_FALSE(t.sampled_range(65, 127));  // between sample points
  EXPECT_TRUE(t.sampled_range(65, 128));
}

TEST(Tracer, RingKeepsNewestRecordsInOrder) {
  Tracer t("n", 4, 1);
  for (Tick tick = 1; tick <= 6; ++tick) {
    t.record(tick * 10, 1, tick, TraceMilestone::kPublish);
  }
  EXPECT_EQ(t.total_recorded(), 6u);
  const auto recs = t.in_order();
  ASSERT_EQ(recs.size(), 4u);  // capacity bound: oldest two evicted
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].tick, static_cast<Tick>(3 + i));
  }
}

TEST(Tracer, UnsampledTicksCostNoRingSpace) {
  Tracer t("n", 8, 64);
  t.record(1, 1, 5, TraceMilestone::kPublish);  // 5 not sampled at 1/64
  EXPECT_EQ(t.total_recorded(), 0u);
  t.record(2, 1, 64, TraceMilestone::kPublish);
  EXPECT_EQ(t.total_recorded(), 1u);
}

// --------------------------------------------------------- flight recorder

// Checklist lines pad the milestone name to a fixed width; build the
// expected prefix the same way trace.cpp does instead of hand-counting.
std::string checklist_prefix(const char* milestone, const char* status) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "  %-17s %s", milestone, status);
  return buf;
}

TEST(FlightRecorder, MergesNodeRingsInTimeOrderWithChecklist) {
  Tracer phb("phb", 16, 1);
  Tracer shb("shb0", 16, 1);
  phb.record(/*now=*/100, /*pubend=*/1, /*tick=*/7, TraceMilestone::kPublish);
  phb.record(200, 1, 7, TraceMilestone::kPersist);
  shb.record(300, 1, 7, TraceMilestone::kMatch);
  shb.record(400, 1, 7, TraceMilestone::kDeliverConstream, /*detail=*/42);
  // tick 8: published but never matched (the "violation" narrative).
  phb.record(150, 1, 8, TraceMilestone::kPublish);

  const FlightRecorderFocus focus{1, 7};
  const std::string dump = merged_flight_record({&phb, &shb}, &focus);

  // Time order across nodes: publish(7) < publish(8) < persist < match.
  EXPECT_LT(dump.find("publish"), dump.find("persist"));
  EXPECT_LT(dump.find("persist"), dump.find("match"));
  EXPECT_NE(dump.find("sub=42"), std::string::npos);

  // Checklist: reached milestones say PASSED with the node, others NOT.
  EXPECT_NE(dump.find("milestone checklist for pubend 1 tick 7"),
            std::string::npos);
  EXPECT_NE(dump.find(checklist_prefix("match", "PASSED")), std::string::npos);
  EXPECT_NE(dump.find(checklist_prefix("ack", "NOT REACHED")), std::string::npos);
  EXPECT_NE(dump.find(checklist_prefix("pfs-log", "NOT REACHED")),
            std::string::npos);
}

TEST(FlightRecorder, RangeRecordsSatisfyContainedFocusTicks) {
  Tracer t("phb", 16, 1);
  t.record_range(50, 1, 10, 20, TraceMilestone::kReleaseToL);
  const FlightRecorderFocus inside{1, 15};
  const FlightRecorderFocus outside{1, 25};
  EXPECT_NE(merged_flight_record({&t}, &inside)
                .find(checklist_prefix("release-to-L", "PASSED")),
            std::string::npos);
  EXPECT_NE(merged_flight_record({&t}, &outside)
                .find(checklist_prefix("release-to-L", "NOT REACHED")),
            std::string::npos);
}

TEST(FlightRecorder, WarnsWhenFocusTickIsOutsideTheSample) {
  Tracer t("phb", 16, 64);
  const FlightRecorderFocus focus{1, 7};  // 7 is not sampled at 1-in-64
  const std::string dump = merged_flight_record({&t}, &focus);
  EXPECT_NE(dump.find("not in trace sample"), std::string::npos);
  EXPECT_NE(dump.find("sample_every=1 for full coverage"), std::string::npos);
}

TEST(FlightRecorder, MergedDumpIsDeterministic) {
  auto build = [] {
    Tracer a("phb", 8, 1);
    Tracer b("shb0", 8, 1);
    // Identical timestamps: the tiebreak is node order then ring order.
    a.record(100, 1, 3, TraceMilestone::kPublish);
    b.record(100, 1, 3, TraceMilestone::kMatch);
    b.record(100, 1, 3, TraceMilestone::kDeliverConstream, 9);
    return merged_flight_record({&a, &b}, nullptr);
  };
  EXPECT_EQ(build(), build());
}

TEST(FlightRecorder, WrappedRingGetsTruncationMarker) {
  Tracer small("phb", 4, 1);
  Tracer intact("shb0", 16, 1);
  // 7 records into a 4-slot ring: 3 lost to wraparound.
  for (Tick tick = 1; tick <= 7; ++tick) {
    small.record(tick * 10, 1, tick, TraceMilestone::kPublish);
  }
  intact.record(5, 1, 1, TraceMilestone::kMatch);
  EXPECT_TRUE(small.wrapped());
  EXPECT_EQ(small.dropped_records(), 3u);
  EXPECT_FALSE(intact.wrapped());

  const std::string dump = merged_flight_record({&small, &intact}, nullptr);
  EXPECT_NE(dump.find("3 lost to ring wraparound"), std::string::npos);
  EXPECT_NE(dump.find("--- ring wrapped: 3 older records lost ---"),
            std::string::npos);
  // The marker sits at the oldest SURVIVING record's time (tick 4 at t=40),
  // i.e. after the intact ring's earlier record in the merged ordering.
  EXPECT_LT(dump.find("match"), dump.find("ring wrapped"));
  // And the surviving records still appear, oldest first.
  EXPECT_LT(dump.find("ring wrapped"), dump.find("1:7"));
}

TEST(FlightRecorder, NoMarkerWhileRingHasNotWrapped) {
  Tracer t("phb", 8, 1);
  for (Tick tick = 1; tick <= 8; ++tick) {
    t.record(tick * 10, 1, tick, TraceMilestone::kPublish);
  }
  EXPECT_FALSE(t.wrapped());  // exactly full is not wrapped
  const std::string dump = merged_flight_record({&t}, nullptr);
  EXPECT_EQ(dump.find("ring wrapped"), std::string::npos);
  EXPECT_EQ(dump.find("lost to ring wraparound"), std::string::npos);
}

// -------------------------------------------------------- latency recorder

// Shorthand: a single-tick record at time `at`.
TraceRecord rec_at(SimTime at, std::int64_t pubend, Tick tick,
                   TraceMilestone m, std::uint32_t detail = 0) {
  return {at, pubend, tick, tick, m, detail};
}
// A range record covering [from, to].
TraceRecord range_at(SimTime at, std::int64_t pubend, Tick from, Tick to,
                     TraceMilestone m, std::uint32_t detail = 0) {
  return {at, pubend, from, to, m, detail};
}

TEST(LatencyRecorder, FullPipelineFeedsEveryStage) {
  LatencyRecorder lat;
  // SimTime is microseconds; stage gaps of 1000us = 1ms each.
  lat.on_trace(0, rec_at(1000, 1, 5, TraceMilestone::kPublish));
  lat.on_trace(0, rec_at(2000, 1, 5, TraceMilestone::kPersist));
  lat.on_trace(1, rec_at(3000, 1, 5, TraceMilestone::kMatch));
  lat.on_trace(1, range_at(4000, 1, 5, 5, TraceMilestone::kPfsLog));
  lat.on_trace(1, rec_at(5000, 1, 5, TraceMilestone::kDeliverConstream, 7));
  lat.on_trace(1, range_at(6000, 1, 5, 5, TraceMilestone::kAck, 7));

  for (auto s : {LatencyStage::kPublishToPersist, LatencyStage::kPersistToMatch,
                 LatencyStage::kMatchToPfsLog, LatencyStage::kPfsLogToDeliver,
                 LatencyStage::kDeliverToAck}) {
    EXPECT_EQ(lat.stage(s).count(), 1u) << latency_stage_name(s);
  }
  EXPECT_EQ(lat.stage(LatencyStage::kEndToEnd).count(), 1u);
  // End-to-end = publish(1000) -> deliver(5000) = 4 ms; log-bucketed
  // percentile lands within one bucket of that.
  EXPECT_NEAR(lat.stage(LatencyStage::kEndToEnd).percentile(50.0), 4.0, 1.5);
  EXPECT_EQ(lat.orphan_transitions(), 0u);
  // Ack keeps the key open (other subscribers may still deliver).
  EXPECT_EQ(lat.open_key_count(), 1u);
}

TEST(LatencyRecorder, TransitionWithoutPublishIsAnOrphan) {
  LatencyRecorder lat;
  lat.on_trace(0, rec_at(2000, 1, 5, TraceMilestone::kPersist));
  lat.on_trace(1, rec_at(3000, 1, 5, TraceMilestone::kMatch));
  EXPECT_EQ(lat.orphan_transitions(), 2u);
  EXPECT_EQ(lat.stage(LatencyStage::kPublishToPersist).count(), 0u);
  EXPECT_EQ(lat.open_key_count(), 0u);
}

TEST(LatencyRecorder, StagesLatchOncePerKey) {
  LatencyRecorder lat;
  lat.on_trace(0, rec_at(1000, 1, 5, TraceMilestone::kPublish));
  lat.on_trace(0, rec_at(2000, 1, 5, TraceMilestone::kPersist));
  // Recovery re-persist and a second SHB matching: both must be ignored.
  lat.on_trace(0, rec_at(9000, 1, 5, TraceMilestone::kPersist));
  lat.on_trace(1, rec_at(3000, 1, 5, TraceMilestone::kMatch));
  lat.on_trace(2, rec_at(8000, 1, 5, TraceMilestone::kMatch));
  EXPECT_EQ(lat.stage(LatencyStage::kPublishToPersist).count(), 1u);
  EXPECT_EQ(lat.stage(LatencyStage::kPersistToMatch).count(), 1u);
}

TEST(LatencyRecorder, GapRetiresWithoutEndToEndSample) {
  LatencyRecorder lat;
  lat.on_trace(0, rec_at(1000, 1, 5, TraceMilestone::kPublish));
  lat.on_trace(0, rec_at(2000, 1, 5, TraceMilestone::kPersist));
  lat.on_trace(1, range_at(3000, 1, 1, 10, TraceMilestone::kGap, 7));
  EXPECT_EQ(lat.stage(LatencyStage::kEndToEnd).count(), 0u);
  EXPECT_EQ(lat.gap_terminated_keys(), 1u);
  EXPECT_EQ(lat.open_key_count(), 0u);
  // A later delivery for the retired key is an orphan, not a sample.
  lat.on_trace(1, rec_at(4000, 1, 5, TraceMilestone::kDeliverCatchup, 7));
  EXPECT_EQ(lat.orphan_transitions(), 1u);
}

TEST(LatencyRecorder, RangeMilestonesCoverAllOpenKeysInRange) {
  LatencyRecorder lat;
  for (Tick tick = 1; tick <= 4; ++tick) {
    lat.on_trace(0, rec_at(tick * 100, 1, tick, TraceMilestone::kPublish));
    lat.on_trace(0, rec_at(tick * 100 + 10, 1, tick, TraceMilestone::kMatch));
  }
  // One batched PFS log covering ticks [2, 3]: exactly two samples, and the
  // keys outside the range stay untouched.
  lat.on_trace(1, range_at(1000, 1, 2, 3, TraceMilestone::kPfsLog));
  EXPECT_EQ(lat.stage(LatencyStage::kMatchToPfsLog).count(), 2u);
  // release-to-L over everything retires all four keys.
  lat.on_trace(0, range_at(2000, 1, 1, 4, TraceMilestone::kReleaseToL));
  EXPECT_EQ(lat.open_key_count(), 0u);
  // Different pubend is a separate key space: not retired by pubend 1's range.
  lat.on_trace(0, rec_at(3000, 2, 2, TraceMilestone::kPublish));
  lat.on_trace(0, range_at(4000, 1, 1, 4, TraceMilestone::kReleaseToL));
  EXPECT_EQ(lat.open_key_count(), 1u);
}

TEST(LatencyRecorder, CatchupWaitPairsQueuedWithAdmitted) {
  LatencyRecorder lat;
  // Subscriber 7 waits 2 ms on pubend 1; subscriber 8 is admitted without
  // ever queueing and must contribute no (zero) sample.
  lat.on_trace(0, rec_at(1000, 1, 50, TraceMilestone::kCatchupQueued, 7));
  lat.on_trace(0, rec_at(3000, 1, 50, TraceMilestone::kCatchupAdmitted, 7));
  lat.on_trace(0, rec_at(4000, 1, 60, TraceMilestone::kCatchupAdmitted, 8));
  EXPECT_EQ(lat.stage(LatencyStage::kCatchupWait).count(), 1u);
  EXPECT_NEAR(lat.stage(LatencyStage::kCatchupWait).percentile(50.0), 2.0, 1.0);
  EXPECT_EQ(lat.open_wait_count(), 0u);
}

TEST(LatencyRecorder, OpenKeyTableIsBoundedByEviction) {
  LatencyRecorder::Options opt;
  opt.max_open_keys = 4;
  LatencyRecorder lat(opt);
  for (Tick tick = 1; tick <= 10; ++tick) {
    lat.on_trace(0, rec_at(tick, 1, tick, TraceMilestone::kPublish));
  }
  EXPECT_LE(lat.open_key_count(), 4u);
  EXPECT_EQ(lat.dropped_keys(), 6u);
}

TEST(LatencyRecorder, JsonPrettyAndCompactAgreeModuloWhitespace) {
  LatencyRecorder lat;
  lat.on_trace(0, rec_at(1000, 1, 5, TraceMilestone::kPublish));
  lat.on_trace(0, rec_at(2000, 1, 5, TraceMilestone::kPersist));
  const std::string pretty = latency_json(lat, /*pretty=*/true);
  const std::string compact = latency_json(lat, /*pretty=*/false);
  // One canonical serializer: the pretty form is the compact form plus
  // whitespace. (No key or value contains a space, so stripping is safe.)
  std::string stripped = pretty;
  stripped.erase(std::remove_if(stripped.begin(), stripped.end(),
                                [](char c) { return c == ' ' || c == '\n'; }),
                 stripped.end());
  EXPECT_EQ(stripped, compact);
  EXPECT_NE(compact.find("\"publish_to_persist\""), std::string::npos);
  EXPECT_NE(compact.find("\"catchup_wait\""), std::string::npos);
  EXPECT_EQ(compact.find('\n'), std::string::npos);
}

// ----------------------------------------------------------- trace export

TEST(TraceExporter, EmitsSortedEventsWithFaultTrack) {
  TraceExporter exp;
  exp.set_node_name(0, "phb");
  exp.set_node_name(1, "shb0");
  exp.add_fault_span(2000, 5000, "partition phb<->shb0");
  exp.on_trace(0, rec_at(1000, 1, 5, TraceMilestone::kPublish));
  exp.on_trace(1, rec_at(4000, 1, 5, TraceMilestone::kDeliverConstream, 7));
  exp.on_trace(1, range_at(6000, 1, 5, 5, TraceMilestone::kAck, 7));

  const std::string json = exp.to_json();
  EXPECT_EQ(exp.record_count(), 3u);
  EXPECT_EQ(exp.fault_count(), 1u);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"fault\""), std::string::npos);
  EXPECT_NE(json.find("partition phb<->shb0"), std::string::npos);
  // The per-tick async span opens at publish and closes at ack.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  // Time-sorted: publish (ts 1000) precedes the fault span (ts 2000),
  // which precedes delivery (ts 4000).
  const auto pub = json.find("\"publish\"");
  const auto fault = json.find("\"cat\":\"fault\"");
  const auto deliver = json.find("\"deliver-constream\"");
  EXPECT_LT(pub, fault);
  EXPECT_LT(fault, deliver);
}

TEST(TraceExporter, OutputIsDeterministic) {
  auto build = [] {
    TraceExporter exp;
    exp.set_node_name(0, "phb");
    exp.add_fault_span(100, 100, "degenerate");  // zero-length -> instant
    exp.on_trace(0, rec_at(100, 1, 0, TraceMilestone::kPublish));
    exp.on_trace(0, rec_at(100, 1, 0, TraceMilestone::kPersist));
    return exp.to_json();
  };
  EXPECT_EQ(build(), build());
}

// ----------------------------------------------------------- golden bytes
//
// Exact serializer output. bench_scale_1m's parity digest hashes the pretty
// metrics bytes and scripts grep these layouts, so any byte drift is a bug.

std::string without_newlines(std::string s) {
  s.erase(std::remove(s.begin(), s.end(), '\n'), s.end());
  return s;
}

void fill_registry(MetricsRegistry& reg) {
  reg.counter("zeta")->inc(2);
  reg.counter("alpha")->inc(1234567);
  reg.gauge("depth")->set(4.5);
  reg.gauge("bytes")->set(3e15);
  auto* h = reg.histogram("lat_ms", 0.01, 1e4);
  for (int i = 1; i <= 100; ++i) h->add(0.1 * i);
  reg.histogram("idle_ms", 0.01, 1e4);
}

TEST(GoldenJson, MetricsRegistryPretty) {
  MetricsRegistry reg("n");
  fill_registry(reg);
  EXPECT_EQ(metrics_json(reg, true), R"({
  "counters": {
    "alpha": 1234567,
    "zeta": 2
  },
  "gauges": {
    "bytes": 3e+15,
    "depth": 4.5
  },
  "histograms": {
    "idle_ms": {"count": 0, "p50": 0, "p95": 0, "p99": 0},
    "lat_ms": {"count": 100, "p50": 5.01187, "p95": 10, "p99": 10}
  }
})");
}

TEST(GoldenJson, MetricsRegistryCompact) {
  MetricsRegistry reg("n");
  fill_registry(reg);
  EXPECT_EQ(metrics_json(reg, false), R"({"counters":{"alpha":1234567,"zeta":2},"gauges":{"bytes":3e+15,"depth":4.5},"histograms":{"idle_ms":{"count":0,"p50":0,"p95":0,"p99":0},"lat_ms":{"count":100,"p50":5.01187,"p95":10,"p99":10}}})");
}

TEST(GoldenJson, MetricsRegistryEmptyBlocks) {
  MetricsRegistry empty("n");
  EXPECT_EQ(metrics_json(empty, true), R"({
  "counters": {},
  "gauges": {},
  "histograms": {}
})");
  EXPECT_EQ(metrics_json(empty, false), R"({"counters":{},"gauges":{},"histograms":{}})");
  MetricsRegistry counters_only("n");
  counters_only.counter("c")->inc();
  EXPECT_EQ(metrics_json(counters_only, true), R"({
  "counters": {
    "c": 1
  },
  "gauges": {},
  "histograms": {}
})");
}

TEST(GoldenJson, TwoNodeSystemMetrics) {
  harness::SystemConfig config;  // phb + shb0
  harness::System system(config);
  ASSERT_EQ(system.nodes().size(), 2u);
  EXPECT_EQ(system_metrics_json(system, true), R"({
  "phb": {
    "counters": {
      "phb.duplicates": 0,
      "phb.nack_events_served": 0,
      "phb.nacks_received": 0,
      "phb.publishes": 0,
      "pubend.events_logged": 0,
      "pubend.events_persisted": 0,
      "pubend.pressure_released_ticks": 0,
      "pubend.ticks_chopped": 0,
      "wal.recoveries": 0,
      "wal.recovery_truncated_bytes": 0,
      "wal.torn_tail_recoveries": 0
    },
    "gauges": {
      "disk.busy_usec": 0,
      "disk.bytes_read": 0,
      "disk.bytes_written": 0,
      "disk.dropped_bytes": 0,
      "disk.reads": 0,
      "disk.stall_time_usec": 0,
      "disk.synced_bytes": 0,
      "disk.syncs": 0,
      "disk.torn_syncs": 0,
      "log.appended_bytes": 0,
      "log.appended_records": 0,
      "log.barrier_batches": 0,
      "log.retained_bytes": 0,
      "net.decode_rejects": 0,
      "net.frames_decoded": 0,
      "net.frames_encoded": 0,
      "net.rx_bytes": 0,
      "net.tx_bytes": 0,
      "phb.ack_floor": 0,
      "pubend.p1.d_window": 0,
      "pubend.p1.doubt_span": 0,
      "pubend.p1.head": 0,
      "pubend.p1.l_window": 0,
      "pubend.p1.s_window": 0,
      "pubend.p2.d_window": 0,
      "pubend.p2.doubt_span": 0,
      "pubend.p2.head": 0,
      "pubend.p2.l_window": 0,
      "pubend.p2.s_window": 0,
      "pubend.p3.d_window": 0,
      "pubend.p3.doubt_span": 0,
      "pubend.p3.head": 0,
      "pubend.p3.l_window": 0,
      "pubend.p3.s_window": 0,
      "pubend.p4.d_window": 0,
      "pubend.p4.doubt_span": 0,
      "pubend.p4.head": 0,
      "pubend.p4.l_window": 0,
      "pubend.p4.s_window": 0,
      "pubend.retain_pressure": 0,
      "wal.gc_dropped_segments": 0,
      "wal.live_bytes": 184,
      "wal.segments": 2
    },
    "histograms": {
      "phb.nack_span_ticks": {"count": 0, "p50": 0, "p95": 0, "p99": 0},
      "wal.group_commit_size": {"count": 0, "p50": 0, "p95": 0, "p99": 0}
    }
  },
  "shb0": {
    "counters": {
      "pfs.reads_issued": 0,
      "pfs.record_bytes_written": 0,
      "pfs.records_written": 0,
      "shb.catchup_admitted": 0,
      "shb.catchup_completions": 0,
      "shb.catchup_deliveries": 0,
      "shb.catchup_events_served_from_istream": 0,
      "shb.catchup_queued": 0,
      "shb.catchup_streams_closed": 0,
      "shb.catchup_streams_opened": 0,
      "shb.constream_deliveries": 0,
      "shb.gaps_sent": 0,
      "shb.matched": 0,
      "shb.nacks_sent_upstream": 0,
      "shb.silences_sent": 0,
      "shb.switchovers": 0,
      "wal.recoveries": 0,
      "wal.recovery_truncated_bytes": 0,
      "wal.torn_tail_recoveries": 0
    },
    "gauges": {
      "disk.busy_usec": 0,
      "disk.bytes_read": 0,
      "disk.bytes_written": 0,
      "disk.dropped_bytes": 0,
      "disk.reads": 0,
      "disk.stall_time_usec": 0,
      "disk.synced_bytes": 0,
      "disk.syncs": 0,
      "disk.torn_syncs": 0,
      "log.appended_bytes": 0,
      "log.appended_records": 0,
      "log.barrier_batches": 0,
      "log.retained_bytes": 0,
      "matching.covering_groups": 0,
      "matching.match_candidates": 0,
      "matching.subscriptions": 0,
      "net.decode_rejects": 0,
      "net.frames_decoded": 0,
      "net.frames_encoded": 0,
      "net.rx_bytes": 0,
      "net.tx_bytes": 116,
      "shb.catchup_active": 0,
      "shb.catchup_queue_depth": 0,
      "shb.catchup_streams": 0,
      "shb.connected_subscribers": 0,
      "shb.p1.doubt_span": 0,
      "shb.p1.istream_events": 0,
      "shb.p1.latest_delivered": 0,
      "shb.p1.processed_upto": 0,
      "shb.p2.doubt_span": 0,
      "shb.p2.istream_events": 0,
      "shb.p2.latest_delivered": 0,
      "shb.p2.processed_upto": 0,
      "shb.p3.doubt_span": 0,
      "shb.p3.istream_events": 0,
      "shb.p3.latest_delivered": 0,
      "shb.p3.processed_upto": 0,
      "shb.p4.doubt_span": 0,
      "shb.p4.istream_events": 0,
      "shb.p4.latest_delivered": 0,
      "shb.p4.processed_upto": 0,
      "wal.gc_dropped_segments": 0,
      "wal.live_bytes": 172,
      "wal.segments": 2
    },
    "histograms": {
      "shb.pfs_read_records": {"count": 0, "p50": 0, "p95": 0, "p99": 0},
      "wal.group_commit_size": {"count": 0, "p50": 0, "p95": 0, "p99": 0}
    }
  }
})");
  EXPECT_EQ(system_metrics_json(system, false), R"({"phb":{"counters":{"phb.duplicates":0,"phb.nack_events_served":0,"phb.nacks_received":0,"phb.publishes":0,"pubend.events_logged":0,"pubend.events_persisted":0,"pubend.pressure_released_ticks":0,"pubend.ticks_chopped":0,"wal.recoveries":0,"wal.recovery_truncated_bytes":0,"wal.torn_tail_recoveries":0},"gauges":{"disk.busy_usec":0,"disk.bytes_read":0,"disk.bytes_written":0,"disk.dropped_bytes":0,"disk.reads":0,"disk.stall_time_usec":0,"disk.synced_bytes":0,"disk.syncs":0,"disk.torn_syncs":0,"log.appended_bytes":0,"log.appended_records":0,"log.barrier_batches":0,"log.retained_bytes":0,"net.decode_rejects":0,"net.frames_decoded":0,"net.frames_encoded":0,"net.rx_bytes":0,"net.tx_bytes":0,"phb.ack_floor":0,"pubend.p1.d_window":0,"pubend.p1.doubt_span":0,"pubend.p1.head":0,"pubend.p1.l_window":0,"pubend.p1.s_window":0,"pubend.p2.d_window":0,"pubend.p2.doubt_span":0,"pubend.p2.head":0,"pubend.p2.l_window":0,"pubend.p2.s_window":0,"pubend.p3.d_window":0,"pubend.p3.doubt_span":0,"pubend.p3.head":0,"pubend.p3.l_window":0,"pubend.p3.s_window":0,"pubend.p4.d_window":0,"pubend.p4.doubt_span":0,"pubend.p4.head":0,"pubend.p4.l_window":0,"pubend.p4.s_window":0,"pubend.retain_pressure":0,"wal.gc_dropped_segments":0,"wal.live_bytes":184,"wal.segments":2},"histograms":{"phb.nack_span_ticks":{"count":0,"p50":0,"p95":0,"p99":0},"wal.group_commit_size":{"count":0,"p50":0,"p95":0,"p99":0}}},"shb0":{"counters":{"pfs.reads_issued":0,"pfs.record_bytes_written":0,"pfs.records_written":0,"shb.catchup_admitted":0,"shb.catchup_completions":0,"shb.catchup_deliveries":0,"shb.catchup_events_served_from_istream":0,"shb.catchup_queued":0,"shb.catchup_streams_closed":0,"shb.catchup_streams_opened":0,"shb.constream_deliveries":0,"shb.gaps_sent":0,"shb.matched":0,"shb.nacks_sent_upstream":0,"shb.silences_sent":0,"shb.switchovers":0,"wal.recoveries":0,"wal.recovery_truncated_bytes":0,"wal.torn_tail_recoveries":0},"gauges":{"disk.busy_usec":0,"disk.bytes_read":0,"disk.bytes_written":0,"disk.dropped_bytes":0,"disk.reads":0,"disk.stall_time_usec":0,"disk.synced_bytes":0,"disk.syncs":0,"disk.torn_syncs":0,"log.appended_bytes":0,"log.appended_records":0,"log.barrier_batches":0,"log.retained_bytes":0,"matching.covering_groups":0,"matching.match_candidates":0,"matching.subscriptions":0,"net.decode_rejects":0,"net.frames_decoded":0,"net.frames_encoded":0,"net.rx_bytes":0,"net.tx_bytes":116,"shb.catchup_active":0,"shb.catchup_queue_depth":0,"shb.catchup_streams":0,"shb.connected_subscribers":0,"shb.p1.doubt_span":0,"shb.p1.istream_events":0,"shb.p1.latest_delivered":0,"shb.p1.processed_upto":0,"shb.p2.doubt_span":0,"shb.p2.istream_events":0,"shb.p2.latest_delivered":0,"shb.p2.processed_upto":0,"shb.p3.doubt_span":0,"shb.p3.istream_events":0,"shb.p3.latest_delivered":0,"shb.p3.processed_upto":0,"shb.p4.doubt_span":0,"shb.p4.istream_events":0,"shb.p4.latest_delivered":0,"shb.p4.processed_upto":0,"wal.gc_dropped_segments":0,"wal.live_bytes":172,"wal.segments":2},"histograms":{"shb.pfs_read_records":{"count":0,"p50":0,"p95":0,"p99":0},"wal.group_commit_size":{"count":0,"p50":0,"p95":0,"p99":0}}}})");
}

void fill_latency(LatencyRecorder& lat) {
  lat.on_trace(0, rec_at(1000, 1, 5, TraceMilestone::kPublish));
  lat.on_trace(0, rec_at(2000, 1, 5, TraceMilestone::kPersist));
  lat.on_trace(1, rec_at(3500, 1, 5, TraceMilestone::kMatch));
  lat.on_trace(1, range_at(4000, 1, 5, 5, TraceMilestone::kPfsLog));
  lat.on_trace(1, rec_at(5250, 1, 5, TraceMilestone::kDeliverConstream, 7));
  lat.on_trace(1, rec_at(6000, 1, 9, TraceMilestone::kMatch));  // orphan
}

TEST(GoldenJson, LatencyRecorderPretty) {
  LatencyRecorder lat;
  fill_latency(lat);
  EXPECT_EQ(latency_json(lat, true), R"({
  "stages": {
    "publish_to_persist": {"count": 1, "p50": 1.25893, "p90": 1.25893, "p99": 1.25893, "p999": 1.25893},
    "persist_to_match": {"count": 1, "p50": 1.58489, "p90": 1.58489, "p99": 1.58489, "p999": 1.58489},
    "match_to_pfs_log": {"count": 1, "p50": 0.501187, "p90": 0.501187, "p99": 0.501187, "p999": 0.501187},
    "pfs_log_to_deliver": {"count": 1, "p50": 1.25893, "p90": 1.25893, "p99": 1.25893, "p999": 1.25893},
    "deliver_to_ack": {"count": 0, "p50": 0, "p90": 0, "p99": 0, "p999": 0},
    "end_to_end": {"count": 1, "p50": 5.01187, "p90": 5.01187, "p99": 5.01187, "p999": 5.01187},
    "catchup_wait": {"count": 0, "p50": 0, "p90": 0, "p99": 0, "p999": 0}
  },
  "orphan_transitions": 1,
  "dropped_keys": 0,
  "gap_terminated_keys": 0,
  "open_keys": 1
})");
}

TEST(GoldenJson, LatencyRecorderCompact) {
  LatencyRecorder lat;
  fill_latency(lat);
  EXPECT_EQ(latency_json(lat, false), R"({"stages":{"publish_to_persist":{"count":1,"p50":1.25893,"p90":1.25893,"p99":1.25893,"p999":1.25893},"persist_to_match":{"count":1,"p50":1.58489,"p90":1.58489,"p99":1.58489,"p999":1.58489},"match_to_pfs_log":{"count":1,"p50":0.501187,"p90":0.501187,"p99":0.501187,"p999":0.501187},"pfs_log_to_deliver":{"count":1,"p50":1.25893,"p90":1.25893,"p99":1.25893,"p999":1.25893},"deliver_to_ack":{"count":0,"p50":0,"p90":0,"p99":0,"p999":0},"end_to_end":{"count":1,"p50":5.01187,"p90":5.01187,"p99":5.01187,"p999":5.01187},"catchup_wait":{"count":0,"p50":0,"p90":0,"p99":0,"p999":0}},"orphan_transitions":1,"dropped_keys":0,"gap_terminated_keys":0,"open_keys":1})");
}

TEST(GoldenJson, BrokerProcessResult) {
  Logger::instance().set_level(LogLevel::kOff);
  net::EventLoop loop;
  net::ProcessOptions o;
  o.name = "phb";
  o.role = "phb";
  net::BrokerProcess phb(loop, o);
  ASSERT_TRUE(phb.started());
  EXPECT_EQ(phb.result_json(), R"({"name":"phb","role":"phb","started":true,"adopted":false,"done":false,"published":0,"acked":0,"received":0,"gaps":0,"decode_rejects":0,"reassembly_rejects":0})");
}

// --name and --role come from the command line: the result file must stay
// valid JSON whatever they hold.
TEST(GoldenJson, BrokerProcessResultEscapesItsName) {
  Logger::instance().set_level(LogLevel::kOff);
  net::EventLoop loop;
  net::ProcessOptions o;
  o.name = "a\"b\\c";
  o.role = "phb";
  net::BrokerProcess phb(loop, o);
  const std::string result = phb.result_json();
  std::string error;
  const auto doc = parse_json(result, &error);
  ASSERT_TRUE(doc) << result << ": " << error;
  ASSERT_NE(doc->string_at("name"), nullptr);
  EXPECT_EQ(*doc->string_at("name"), "a\"b\\c");
  EXPECT_EQ(*doc->string_at("role"), "phb");
}

// The export envelope's line breaks are not part of the contract; every
// other byte is.
TEST(GoldenJson, TraceEvents) {
  TraceExporter exp;
  exp.set_node_name(0, "phb");
  exp.set_node_name(1, "shb0");
  exp.add_fault_span(2000, 5000, "partition phb<->shb0");
  exp.add_fault_instant(2500, "torn sync");
  exp.on_trace(0, rec_at(1000, 1, 5, TraceMilestone::kPublish));
  exp.on_trace(0, rec_at(1000, 2, 6, TraceMilestone::kPublish));
  exp.on_trace(1, rec_at(4000, 1, 5, TraceMilestone::kDeliverConstream, 7));
  exp.on_trace(1, range_at(6000, 1, 4, 5, TraceMilestone::kAck, 7));
  EXPECT_EQ(without_newlines(exp.to_json()), R"({"displayTimeUnit":"ms","traceEvents":[{"ph":"M","pid":1,"name":"process_name","args":{"name":"faults"}},{"ph":"M","pid":2,"name":"process_name","args":{"name":"ticks"}},{"ph":"M","pid":3,"name":"process_name","args":{"name":"phb"}},{"ph":"M","pid":4,"name":"process_name","args":{"name":"shb0"}},{"ph":"i","pid":3,"tid":1,"ts":1000,"s":"p","cat":"milestone","name":"publish","args":{"pubend":1,"tick":5}},{"ph":"b","pid":2,"tid":1,"ts":1000,"cat":"tick","id":"0x10000000005","name":"pubend 1 tick 5"},{"ph":"i","pid":3,"tid":1,"ts":1000,"s":"p","cat":"milestone","name":"publish","args":{"pubend":2,"tick":6}},{"ph":"b","pid":2,"tid":1,"ts":1000,"cat":"tick","id":"0x20000000006","name":"pubend 2 tick 6"},{"ph":"X","pid":1,"tid":1,"ts":2000,"dur":3000,"cat":"fault","name":"partition phb<->shb0"},{"ph":"i","pid":1,"tid":1,"ts":2500,"s":"p","cat":"fault","name":"torn sync"},{"ph":"i","pid":4,"tid":1,"ts":4000,"s":"p","cat":"milestone","name":"deliver-constream","args":{"pubend":1,"tick":5,"sub":7}},{"ph":"i","pid":4,"tid":1,"ts":6000,"s":"p","cat":"milestone","name":"ack","args":{"pubend":1,"tick":4,"tick2":5,"sub":7}},{"ph":"e","pid":2,"tid":1,"ts":6000,"cat":"tick","id":"0x10000000005","name":"pubend 1 tick 5"}]})");
}

}  // namespace
}  // namespace gryphon
