// google-benchmark microbenchmarks for the hot data structures: knowledge
// stream (TickMap) accumulation and horizon queries, interval sets,
// content-based matching, selector parsing, PFS record codecs, and the wire
// codec itself (per-MsgKind encode/decode with an allocs-per-op counter —
// the micro view of bench_wallclock's codec tax). These run on real
// wall-clock time (unlike the figure benches, which measure simulated time).
#include <benchmark/benchmark.h>

#include "bench/alloc_hook.hpp"
#include "matching/parser.hpp"
#include "matching/subscription_index.hpp"
#include "routing/tick_map.hpp"
#include "sim/message.hpp"
#include "util/interval_set.hpp"
#include "util/rng.hpp"
#include "wire/codec.hpp"

namespace gryphon {
namespace {

matching::EventDataPtr make_event(int g) {
  return std::make_shared<matching::EventData>(
      std::map<std::string, matching::Value>{{"g", matching::Value(g)}}, "", 250);
}

void BM_TickMapAppendStream(benchmark::State& state) {
  auto event = make_event(0);
  for (auto _ : state) {
    routing::TickMap map(0);
    for (Tick t = 1; t <= state.range(0); ++t) {
      if (t % 4 == 0) {
        map.set_data(t, event);
      } else {
        map.set_silence(t, t);
      }
    }
    benchmark::DoNotOptimize(map.head());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TickMapAppendStream)->Arg(1000)->Arg(10000);

void BM_TickMapDoubtHorizon(benchmark::State& state) {
  routing::TickMap map(0);
  auto event = make_event(0);
  for (Tick t = 1; t <= 10000; ++t) {
    if (t % 4 == 0) map.set_data(t, event);
    else map.set_silence(t, t);
  }
  Tick base = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.doubt_horizon(base));
    base = (base + 97) % 9000;
  }
}
BENCHMARK(BM_TickMapDoubtHorizon);

void BM_TickMapItemsExtraction(benchmark::State& state) {
  routing::TickMap map(0);
  auto event = make_event(0);
  for (Tick t = 1; t <= 10000; ++t) {
    if (t % 4 == 0) map.set_data(t, event);
    else map.set_silence(t, t);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.items(4000, 6000));
  }
}
BENCHMARK(BM_TickMapItemsExtraction);

void BM_IntervalSetChurn(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    IntervalSet s;
    for (int i = 0; i < state.range(0); ++i) {
      const Tick a = rng.next_in(0, 100000);
      const Tick b = a + rng.next_in(0, 50);
      if (rng.next_bool(0.7)) s.add(a, b);
      else s.subtract(a, b);
    }
    benchmark::DoNotOptimize(s.interval_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IntervalSetChurn)->Arg(1000);

void BM_SubscriptionMatch(benchmark::State& state) {
  matching::SubscriptionIndex index;
  const auto n = state.range(0);
  for (std::int64_t i = 0; i < n; ++i) {
    index.add(SubscriberId{static_cast<std::uint32_t>(i)},
              matching::parse_predicate("g == " + std::to_string(i % 4)));
  }
  const auto e = make_event(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.match(*e));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubscriptionMatch)->Arg(100)->Arg(400);

// Bucketed vs scan-list dispatch in the index: equality predicates hash
// straight to their (attribute, value) bucket, while inequality predicates
// fall back to the linear scan list. The gap between the two cases is what
// the bucketing optimisation buys on equality-heavy workloads.
void BM_SubscriptionMatchBucketed(benchmark::State& state) {
  matching::SubscriptionIndex index;
  const auto n = state.range(0);
  for (std::int64_t i = 0; i < n; ++i) {
    index.add(SubscriberId{static_cast<std::uint32_t>(i)},
              matching::parse_predicate("g == " + std::to_string(i)));
  }
  const auto e = make_event(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.match(*e));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubscriptionMatchBucketed)->Arg(400)->Arg(4000);

void BM_SubscriptionMatchScanList(benchmark::State& state) {
  matching::SubscriptionIndex index;
  const auto n = state.range(0);
  for (std::int64_t i = 0; i < n; ++i) {
    index.add(SubscriberId{static_cast<std::uint32_t>(i)},
              matching::parse_predicate("g >= " + std::to_string(i)));
  }
  const auto e = make_event(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.match(*e));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubscriptionMatchScanList)->Arg(400)->Arg(4000);

// The broker's hot loop uses match_into() with a long-lived scratch vector
// (SubscriptionIndex keeps no blind reserve and skips the re-sort on
// single-bucket hits), so a steady-state match should allocate nothing.
// allocs_per_op == 0 is the target this case guards.
void BM_SubscriptionMatchIntoReuse(benchmark::State& state) {
  matching::SubscriptionIndex index;
  const auto n = state.range(0);
  for (std::int64_t i = 0; i < n; ++i) {
    index.add(SubscriberId{static_cast<std::uint32_t>(i)},
              matching::parse_predicate("g == " + std::to_string(i % 4)));
  }
  const auto e = make_event(1);
  std::vector<SubscriberId> scratch;
  index.match_into(*e, scratch);  // warm the scratch to steady-state capacity
  const std::uint64_t allocs0 = bench::g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    index.match_into(*e, scratch);
    benchmark::DoNotOptimize(scratch.data());
  }
  const auto allocs = bench::g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubscriptionMatchIntoReuse)->Arg(400)->Arg(4000);

void BM_PredicateParse(benchmark::State& state) {
  const std::string text =
      "(symbol == 'IBM' && price > 100.5) || (side = 'SELL' and quantity >= "
      "1000 and not test)";
  for (auto _ : state) {
    benchmark::DoNotOptimize(matching::parse_predicate(text));
  }
}
BENCHMARK(BM_PredicateParse);

void BM_PredicateEval(benchmark::State& state) {
  auto p = matching::parse_predicate("g == 1 && exists(g)");
  const auto e = make_event(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p->matches(*e));
  }
}
BENCHMARK(BM_PredicateEval);

// ----------------------------------------------------- wire codec, per kind

using core::MsgKind;

const char* wire_kind_name(MsgKind kind) {
  switch (kind) {
    case MsgKind::kStreamData: return "StreamData";
    case MsgKind::kNack: return "Nack";
    case MsgKind::kReleaseUpdate: return "ReleaseUpdate";
    case MsgKind::kSubscribe: return "Subscribe";
    case MsgKind::kSubscribeAck: return "SubscribeAck";
    case MsgKind::kUnsubscribe: return "Unsubscribe";
    case MsgKind::kBrokerResume: return "BrokerResume";
    case MsgKind::kPublish: return "Publish";
    case MsgKind::kPublishAck: return "PublishAck";
    case MsgKind::kConnect: return "Connect";
    case MsgKind::kConnected: return "Connected";
    case MsgKind::kDisconnect: return "Disconnect";
    case MsgKind::kUnsubscribeReq: return "UnsubscribeReq";
    case MsgKind::kAck: return "Ack";
    case MsgKind::kEventDelivery: return "EventDelivery";
    case MsgKind::kSilenceDelivery: return "SilenceDelivery";
    case MsgKind::kGapDelivery: return "GapDelivery";
    case MsgKind::kJmsConsumed: return "JmsConsumed";
  }
  return "?";
}

matching::EventDataPtr wire_event() {
  return std::make_shared<matching::EventData>(
      std::map<std::string, matching::Value>{{"sym", matching::Value("IBM")},
                                             {"g", matching::Value(3)}},
      "payload-bytes", 250);
}

core::CheckpointToken wire_ct() {
  core::CheckpointToken ct;
  ct.set(PubendId{1}, 100);
  ct.set(PubendId{7}, 12345678901LL);
  return ct;
}

/// One representative message per kind — realistic steady-state shapes (the
/// StreamData sample carries one D item like a fig4 knowledge batch).
std::shared_ptr<core::Msg> wire_sample(MsgKind kind) {
  switch (kind) {
    case MsgKind::kStreamData: {
      std::vector<routing::KnowledgeItem> items;
      items.push_back({routing::TickValue::kS, TickRange{1, 9}, nullptr});
      items.push_back({routing::TickValue::kD, TickRange{10, 10}, wire_event()});
      items.push_back({routing::TickValue::kL, TickRange{11, 20}, nullptr});
      return std::make_shared<core::StreamDataMsg>(PubendId{3}, std::move(items));
    }
    case MsgKind::kNack:
      return std::make_shared<core::NackMsg>(
          PubendId{2}, std::vector<TickRange>{{5, 9}, {20, 31}}, true);
    case MsgKind::kReleaseUpdate:
      return std::make_shared<core::ReleaseUpdateMsg>(PubendId{1}, 500, 777);
    case MsgKind::kSubscribe:
      return std::make_shared<core::SubscribeMsg>(SubscriberId{9}, "g = 3");
    case MsgKind::kSubscribeAck:
      return std::make_shared<core::SubscribeAckMsg>(
          SubscriberId{9}, std::vector<std::pair<PubendId, Tick>>{{PubendId{1}, 40},
                                                                  {PubendId{2}, 0}});
    case MsgKind::kUnsubscribe:
      return std::make_shared<core::UnsubscribeMsg>(SubscriberId{9});
    case MsgKind::kBrokerResume:
      return std::make_shared<core::BrokerResumeMsg>(
          std::vector<std::pair<PubendId, Tick>>{{PubendId{1}, 123}});
    case MsgKind::kPublish:
      return std::make_shared<core::PublishMsg>(PublisherId{5}, 42, 40, PubendId{1},
                                                wire_event());
    case MsgKind::kPublishAck:
      return std::make_shared<core::PublishAckMsg>(PublisherId{5}, 42, 999);
    case MsgKind::kConnect:
      return std::make_shared<core::ConnectMsg>(SubscriberId{7}, false, "g = 1",
                                                wire_ct());
    case MsgKind::kConnected:
      return std::make_shared<core::ConnectedMsg>(SubscriberId{7}, wire_ct());
    case MsgKind::kDisconnect:
      return std::make_shared<core::DisconnectMsg>(SubscriberId{7});
    case MsgKind::kUnsubscribeReq:
      return std::make_shared<core::UnsubscribeReqMsg>(SubscriberId{7});
    case MsgKind::kAck:
      return std::make_shared<core::AckMsg>(SubscriberId{7}, wire_ct());
    case MsgKind::kEventDelivery:
      return std::make_shared<core::EventDeliveryMsg>(SubscriberId{7}, PubendId{1},
                                                      1234, wire_event(), false);
    case MsgKind::kSilenceDelivery:
      return std::make_shared<core::SilenceDeliveryMsg>(SubscriberId{7}, PubendId{1},
                                                        1300);
    case MsgKind::kGapDelivery:
      return std::make_shared<core::GapDeliveryMsg>(SubscriberId{7}, PubendId{1},
                                                    TickRange{1301, 1400});
    case MsgKind::kJmsConsumed:
      return std::make_shared<core::JmsConsumedMsg>(SubscriberId{7}, PubendId{1},
                                                    1234);
  }
  return nullptr;
}

/// Steady-state encode: frames appended to a retained (pooled) buffer, the
/// CodecTransport arena shape. allocs_per_op == 0 is the target.
void BM_WireEncodeKind(benchmark::State& state, MsgKind kind) {
  const auto msg = wire_sample(kind);
  std::vector<std::byte> buf;
  buf.reserve(64 * 1024);
  const std::uint64_t allocs0 = bench::g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    buf.clear();
    benchmark::DoNotOptimize(wire::append_encoded_frame(buf, *msg));
  }
  const auto allocs = bench::g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(msg->wire_size()));
}

/// Zero-copy decode: frame parse + payload decode with the arena as the
/// ownership handle (the CodecTransport receive path, minus the sampled
/// canonical re-encode).
void BM_WireDecodeKind(benchmark::State& state, MsgKind kind) {
  const auto msg = wire_sample(kind);
  const auto arena = std::make_shared<sim::FrameArena>(wire::encode(*msg));
  const auto bytes = arena->view(0, arena->buffer().size());
  const std::uint64_t allocs0 = bench::g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    auto r = wire::decode(bytes, arena);
    benchmark::DoNotOptimize(r.msg);
  }
  const auto allocs = bench::g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}

const int g_register_wire_benchmarks = [] {
  for (int k = 0; k <= static_cast<int>(MsgKind::kJmsConsumed); ++k) {
    const auto kind = static_cast<MsgKind>(k);
    benchmark::RegisterBenchmark(
        (std::string("BM_WireEncode/") + wire_kind_name(kind)).c_str(),
        [kind](benchmark::State& s) { BM_WireEncodeKind(s, kind); });
    benchmark::RegisterBenchmark(
        (std::string("BM_WireDecode/") + wire_kind_name(kind)).c_str(),
        [kind](benchmark::State& s) { BM_WireDecodeKind(s, kind); });
  }
  return 0;
}();

}  // namespace
}  // namespace gryphon

BENCHMARK_MAIN();
