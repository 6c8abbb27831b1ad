#include "bench.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <map>
#include <memory>
#include <unordered_map>

#include <sys/resource.h>

namespace perfbench {

namespace {

void add(Outcome& out, const char* name, double value, const char* unit,
         std::string note = "") {
  out.metrics.push_back(Metric{name, value, unit, std::move(note)});
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void emit_end_to_end(const EndToEnd& e, Outcome& out) {
  const std::string reps = "median of " + std::to_string(e.reps) + " reps";
  const std::string lat = "median of " + std::to_string(e.reps) + " reps of " +
                          std::to_string(e.latency_samples) + " samples, " +
                          e.latency_clock + " clock";
  add(out, "setup_s", e.setup_s, "s", reps);
  add(out, "delivered_eps", e.delivered_eps, "ev/s", reps + ", wall clock");
  add(out, "cpu_us_per_event", e.cpu_us_per_event, "us", reps + ", per delivered event");
  add(out, "e2e_p50_ms", e.e2e_p50_ms, "ms", lat);
  char p99[64];
  std::snprintf(p99, sizeof p99, "; p99 %.3f ms", e.e2e_p99_ms);
  add(out, "e2e_p90_ms", e.e2e_p90_ms, "ms", lat + p99);
  add(out, "peak_rss_mb", e.peak_rss_mb, "MiB", "process high-water mark");
}

void emit_layers(const Layers& l, Outcome& out) {
  add(out, "sim.tasks_per_event", l.sim_tasks_per_event, "count");
  add(out, "sim.sim_speed", l.sim_speed, "sim-s/s");
  add(out, "sim.cpu_busy_ms_per_event", l.sim_cpu_busy_ms_per_event, "ms");
  add(out, "sim.cpu_backlog_ms_max", l.sim_cpu_backlog_ms_max, "ms");
  add(out, "sim.disk_busy_ms_per_event", l.sim_disk_busy_ms_per_event, "ms");
  add(out, "net.loop.busy_frac", l.net_loop_busy_frac, "ratio");
  add(out, "net.polls_per_event", l.net_polls_per_event, "count");
  add(out, "net.timers_per_event", l.net_timers_per_event, "count");
  add(out, "net.bytes_per_event", l.net_bytes_per_event, "B");
  add(out, "net.reassembly_rejects", l.net_reassembly_rejects, "count");
  add(out, "wire.encode_ns_per_frame", l.wire_encode_ns_per_frame, "ns");
  add(out, "wire.decode_ns_per_frame", l.wire_decode_ns_per_frame, "ns");
  add(out, "wire.frames_per_event", l.wire_frames_per_event, "count");
  add(out, "wire.bytes_per_frame", l.wire_bytes_per_frame, "B");
  add(out, "wire.decode_rejects", l.wire_decode_rejects, "count");
  add(out, "storage.records_per_event", l.storage_records_per_event, "count");
  add(out, "storage.bytes_per_event", l.storage_bytes_per_event, "B");
  add(out, "storage.records_per_barrier", l.storage_records_per_barrier, "count");
  add(out, "storage.append_ns_per_record", l.storage_append_ns_per_record, "ns");
  add(out, "storage.barrier_ns", l.storage_barrier_ns, "ns");
  add(out, "storage.live_bytes_peak", l.storage_live_bytes_peak, "B");
  add(out, "matching.match_ns_per_event", l.matching_match_ns_per_event, "ns");
  add(out, "matching.candidates_per_event", l.matching_candidates_per_event, "count");
  add(out, "matching.covering_groups", l.matching_covering_groups, "count");
  add(out, "routing.knowledge_items_per_event", l.routing_knowledge_items_per_event,
      "count");
  add(out, "routing.nacks_per_event", l.routing_nacks_per_event, "count");
  add(out, "routing.nack_events_served", l.routing_nack_events_served, "count");
  add(out, "routing.tickmap_ns_per_item", l.routing_tickmap_ns_per_item, "ns");
  add(out, "core.shb.deliveries_per_event", l.core_shb_deliveries_per_event, "count");
  add(out, "core.shb.catchup_streams", l.core_shb_catchup_streams, "count");
  add(out, "core.shb.catchup_queue_peak", l.core_shb_catchup_queue_peak, "count");
  add(out, "core.shb.catchup_drain_sim_s", l.core_shb_catchup_drain_sim_s, "sim-s");
  add(out, "core.pfs.records_per_event", l.core_pfs_records_per_event, "count");
  add(out, "core.pfs.bytes_per_record", l.core_pfs_bytes_per_record, "B");
  add(out, "core.pfs.reads", l.core_pfs_reads, "count");
  add(out, "core.unattributed_ns_per_event", l.core_unattributed_ns_per_event, "ns");
  add(out, "harness.oracle.ns_per_delivery", l.harness_oracle_ns_per_delivery, "ns");
  add(out, "harness.oracle.verify_s", l.harness_oracle_verify_s, "s");
  add(out, "bench.gen_late_p99_ms", l.bench_gen_late_p99_ms, "ms");
  add(out, "bench.trace_overhead_frac", l.bench_trace_overhead_frac, "ratio");
  add(out, "bench.unattributed_frac", l.bench_unattributed_frac, "ratio");
  add(out, "bench.failed_frac", l.bench_failed_frac, "ratio");
}

void attribute(const Attribution& a, double events, Layers& l) {
  const double attributed =
      a.wire_ns + a.matching_ns + a.storage_ns + a.tickmap_ns + a.oracle_ns;
  const double rest = a.root_ns - attributed;
  l.core_unattributed_ns_per_event = ratio(rest, events);
  l.bench_unattributed_frac = ratio(rest, a.root_ns);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void HostSpeed::sample() {
  const std::uint64_t t0 = now_ns();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::map<std::uint64_t, std::shared_ptr<std::uint64_t>> ordered;
  std::unordered_map<std::uint64_t, std::uint64_t> hashed;
  std::vector<std::uint64_t> keys;
  std::uint64_t sink = 0;
  for (int i = 0; i < 8'000; ++i) {
    const std::uint64_t k = next() % 100'000;
    ordered[k] = std::make_shared<std::uint64_t>(k);
    hashed[k] += k;
    keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  for (std::uint64_t k : keys) {
    auto it = ordered.lower_bound(k);
    if (it != ordered.end()) sink += *it->second;
    sink += hashed.count(k);
  }
  checksum_ += sink;  // keeps the work observable
  seconds_ += static_cast<double>(now_ns() - t0) * 1e-9;
  ++units_;
}

double HostSpeed::factor() const {
  return units_ > 0 ? kNominalUnitS * static_cast<double>(units_) / seconds_ : 1.0;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

sim::MessagePtr WireProbe::to_wire(sim::EndpointId from, sim::EndpointId to,
                                   sim::MessagePtr msg) {
  if (!traced_) return inner_ != nullptr ? inner_->to_wire(from, to, std::move(msg)) : msg;
  const bool is_struct = msg->wire_bytes().empty();
  if (is_struct) {
    const auto& m = static_cast<const core::Msg&>(*msg);
    if (m.kind() == core::MsgKind::kStreamData) {
      const auto& sd = static_cast<const core::StreamDataMsg&>(m);
      c_.knowledge_items += sd.items.size();
      if (capture_ != nullptr) capture_->push_back(CapturedStream{to, sd.pubend, sd.items});
    }
  }
  const std::uint64_t t0 = now_ns();
  sim::MessagePtr out = inner_ != nullptr ? inner_->to_wire(from, to, std::move(msg)) : msg;
  if (is_struct && !out->wire_bytes().empty()) {
    c_.encode_ns += now_ns() - t0;
    ++c_.frames_encoded;
    c_.bytes_encoded += out->wire_size();
  }
  return out;
}

sim::MessagePtr WireProbe::from_wire(sim::EndpointId from, sim::EndpointId to,
                                     sim::MessagePtr msg) {
  sim::MessagePtr out;
  if (traced_ && !msg->wire_bytes().empty()) {
    const std::uint64_t t0 = now_ns();
    out = inner_ != nullptr ? inner_->from_wire(from, to, std::move(msg)) : msg;
    if (out == nullptr) {
      ++c_.decode_rejects;
    } else if (out->wire_bytes().empty()) {
      c_.decode_ns += now_ns() - t0;
      ++c_.frames_decoded;
    }
  } else {
    out = inner_ != nullptr ? inner_->from_wire(from, to, std::move(msg)) : msg;
  }
  if (tap_ != nullptr && out != nullptr && out->wire_bytes().empty()) {
    const auto& m = static_cast<const core::Msg&>(*out);
    if (m.kind() == core::MsgKind::kEventDelivery) {
      tap_->on_event(static_cast<const core::EventDeliveryMsg&>(m));
    } else if (m.kind() == core::MsgKind::kGapDelivery) {
      tap_->on_gap(static_cast<const core::GapDeliveryMsg&>(m));
    }
  }
  return out;
}

}  // namespace perfbench
