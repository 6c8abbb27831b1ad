// The two simulator workloads.
//
//  steady_fanout  Paper Fig. 4 steady state in codec wire mode: 4 SHBs x 90
//                 durable subscribers, 800 ev/s over 4 pubends, no churn.
//  catchup_herd   One SHB with 5,000 durable subscribers in struct wire mode;
//                 one seeded storm wave drops the whole herd and reconnects it
//                 at once; the window runs until the catchup streams drain.
//
// A run repeats the same-seed rep until --seconds of timed window have
// passed (at least three reps) and reports medians. Every rep of one seed
// must reproduce the simulated latency percentiles, the drain time and the
// executed-task count exactly. The traced run (--trace 1) makes one
// untraced rep and one traced rep; the per-layer metrics come from the
// traced one.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "harness/oracle.hpp"
#include "harness/system.hpp"
#include "harness/workload.hpp"
#include "matching/parser.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

struct Spec {
  harness::SystemConfig config;
  double rate_eps = 800;
  int groups = 4;
  std::size_t payload_bytes = 250;
  int subs_per_shb = 100;
  int machines = 10;
  SimDuration ack_interval = msec(250);
  SimDuration warmup = sec(3);
  SimDuration window = sec(12);  // steady: fixed simulated window
  bool herd = false;
  SimDuration storm_delay = sec(1);  // herd: arm -> drop
  SimDuration down_time = sec(4);    // herd: drop -> reconnect
  SimDuration drain_cap = sec(60);   // herd: reconnect -> give up
  SimDuration settle = sec(2);       // after the window, before verification
};

Spec steady_spec() {
  // The Fig. 4 deployment with the paper's hardware model (bench_fig4), at
  // 90 rather than 100 subscribers per SHB: at 100 the SHB CPUs sit at
  // saturation and latency grows with the window instead of holding steady.
  Spec s;
  s.config.num_pubends = 4;
  s.config.num_shbs = 4;
  s.config.broker.cores = 6;
  s.config.broker.costs.publish_base = usec(2000);
  s.config.phb_disk.sync_latency = msec(43);
  s.config.phb_disk.write_bandwidth_bytes_per_sec = 40e6;
  s.config.shb_disk.sync_latency = msec(4);
  s.config.shb_disk.read_seek_latency = msec(6);
  s.config.wire = harness::WireMode::kCodec;
  s.machines = 5;
  s.subs_per_shb = 90;
  return s;
}

Spec herd_spec() {
  // bench_churn_storm's plain-seed scenario, one wave, no early release.
  Spec s;
  s.config.num_pubends = 1;
  s.config.num_intermediates = 1;
  s.config.num_shbs = 1;
  s.config.broker.cores = 32;
  s.config.shb_disk.read_seek_latency = usec(100);
  s.config.shb_disk.sync_latency = msec(1);
  s.config.broker.costs.catchup_admission_limit = 256;
  s.config.broker.costs.cache_span_ticks = 2000;
  s.config.broker.costs.catchup_rate_limit_eps = 5000.0;
  s.config.storage.segment_bytes = 64 * 1024;
  s.rate_eps = 200;
  s.groups = 100;
  s.subs_per_shb = 5000;
  s.ack_interval = sec(1);
  s.warmup = sec(2);
  s.herd = true;
  s.settle = sec(5);
  return s;
}

/// Publish-time table and delivery latency recorder (simulated clock).
class SimTap final : public DeliveryTap {
 public:
  struct Delivery {
    SubscriberId sub;
    PubendId pubend;
    Tick tick;
    matching::EventDataPtr event;
    bool catchup;
    SimTime at;
  };

  explicit SimTap(sim::Simulator& sim) : sim_(sim) {}

  void note_publish(PubendId p, std::uint64_t seq) {
    auto& v = pub_times_[p];
    if (v.size() <= seq) v.resize(seq + 1, -1);
    if (v[seq] < 0) v[seq] = sim_.now();
  }

  /// A subscriber drops deliveries that arrive while it is disconnected
  /// (leftovers of a dead session); the tap ignores those too.
  void add_subscriber(const core::DurableSubscriber* sub) { subs_[sub->id()] = sub; }

  void set_recording(bool on) { recording_ = on; }
  void set_capture(bool on) { capture_ = on; }

  void on_event(const core::EventDeliveryMsg& m) override {
    if (!recording_ || !subs_.at(m.subscriber)->connected()) return;
    ++delivered_;
    const matching::Value* seq = m.event->attribute("seq");
    const auto it = pub_times_.find(m.pubend);
    if (seq != nullptr && it != pub_times_.end()) {
      const auto s = static_cast<std::size_t>(seq->as_double());
      if (s < it->second.size() && it->second[s] >= 0) {
        latencies_ms_.push_back(to_millis(sim_.now() - it->second[s]));
      }
    }
    if (capture_) {
      deliveries_.push_back(
          Delivery{m.subscriber, m.pubend, m.tick, m.event, m.from_catchup, sim_.now()});
    }
  }
  void on_gap(const core::GapDeliveryMsg& m) override {
    if (recording_ && subs_.at(m.subscriber)->connected()) ++gaps_;
  }

  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t gaps() const { return gaps_; }
  [[nodiscard]] const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  [[nodiscard]] const std::vector<Delivery>& deliveries() const { return deliveries_; }

 private:
  sim::Simulator& sim_;
  std::unordered_map<PubendId, std::vector<SimTime>> pub_times_;
  std::unordered_map<SubscriberId, const core::DurableSubscriber*> subs_;
  bool recording_ = false;
  bool capture_ = false;
  std::uint64_t delivered_ = 0;
  std::uint64_t gaps_ = 0;
  std::vector<double> latencies_ms_;
  std::vector<Delivery> deliveries_;
};

/// Counter totals over every node, read at the window edges.
struct Snap {
  std::uint64_t tasks = 0;
  std::uint64_t published = 0;
  std::uint64_t log_records = 0;
  std::uint64_t log_bytes = 0;
  std::uint64_t barriers = 0;
  std::uint64_t pfs_records = 0;
  std::uint64_t pfs_bytes = 0;
  std::uint64_t pfs_reads = 0;
  std::uint64_t nacks = 0;
  std::uint64_t nack_served = 0;
  std::uint64_t catchup_opened = 0;
  std::uint64_t shb_deliveries = 0;
  std::uint64_t net_bytes = 0;
  SimDuration cpu_busy = 0;
  SimDuration disk_busy = 0;
};

Snap snapshot(harness::System& system) {
  Snap s;
  s.tasks = system.simulator().executed_tasks();
  s.published = system.oracle().published_count();
  s.net_bytes = system.network().delivered_bytes();
  for (core::NodeResources* n : system.nodes()) {
    auto c = [n](const char* name) { return n->metrics.counter(name)->get(); };
    s.log_records += n->log_volume.appended_records();
    s.log_bytes += n->log_volume.appended_bytes();
    s.barriers += n->log_volume.barrier_batches();
    s.pfs_records += c("pfs.records_written");
    s.pfs_bytes += c("pfs.record_bytes_written");
    s.pfs_reads += c("pfs.reads_issued");
    s.nacks += c("shb.nacks_sent_upstream");
    s.nack_served += c("phb.nack_events_served");
    s.catchup_opened += c("shb.catchup_streams_opened");
    s.shb_deliveries += c("shb.constream_deliveries") + c("shb.catchup_deliveries");
    s.cpu_busy += n->cpu.total_busy();
    s.disk_busy += n->disk.total_busy();
  }
  return s;
}

struct Rep {
  double setup_s = 0;
  double window_wall_s = 0;
  double window_sim_s = 0;
  double cpu_s = 0;
  HostSpeed host;  // sampled between the window's chunks
  std::uint64_t published = 0;  // in the window
  std::uint64_t delivered = 0;  // in the window
  std::uint64_t owed = 0;       // whole rep
  std::uint64_t failed = 0;
  std::uint64_t executed_tasks = 0;  // up to the window end (determinism fingerprint)
  std::uint64_t latency_samples = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  double p99_ms = 0;
  SimDuration drain = 0;
  std::vector<std::string> errors;
  Layers layers;  // traced reps only
};

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

Rep run_rep(const Spec& spec, std::uint64_t seed, bool traced, bool verify) {
  Rep rep;
  const std::uint64_t t_start = now_ns();
  WireProbe probe;  // outlives the network it is installed in
  harness::System system(spec.config);
  SimTap tap(system.simulator());
  probe.wrap(system.network().transport());
  probe.set_tap(&tap);
  system.network().set_transport(&probe);

  // Seeded inputs: publisher phases and every subscriber's group.
  Rng rng(seed);
  std::vector<matching::EventDataPtr> window_events;
  bool capture_events = false;
  const int num_pubends = static_cast<int>(system.pubends().size());
  const auto interval = static_cast<SimDuration>(1e6 * num_pubends / spec.rate_eps);
  for (PubendId p : system.pubends()) {
    auto inner = harness::group_event_factory(spec.groups, spec.payload_bytes);
    auto factory = [inner, p, &tap, &window_events, &capture_events](std::uint64_t seq) {
      tap.note_publish(p, seq);
      matching::EventDataPtr e = inner(seq);
      if (capture_events) window_events.push_back(e);
      return e;
    };
    const auto offset = static_cast<SimDuration>(
        rng.next_below(static_cast<std::uint64_t>(interval)));
    system.add_publisher(p, interval, factory, offset).start();
  }
  std::vector<std::vector<std::string>> predicates(
      static_cast<std::size_t>(system.num_shbs()));
  std::vector<core::DurableSubscriber*> subs;
  std::map<SubscriberId, std::string> predicate_of;
  for (int shb = 0; shb < system.num_shbs(); ++shb) {
    for (int i = 0; i < spec.subs_per_shb; ++i) {
      core::DurableSubscriber::Options o;
      o.id = SubscriberId{static_cast<std::uint32_t>(shb * 100000 + i + 1)};
      o.predicate = harness::group_predicate(static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(spec.groups))));
      o.ack_interval = spec.ack_interval;
      predicates[static_cast<std::size_t>(shb)].push_back(o.predicate);
      predicate_of[o.id] = o.predicate;
      auto& sub = system.add_subscriber(o, shb, i % spec.machines);
      sub.connect();
      subs.push_back(&sub);
      tap.add_subscriber(&sub);
    }
  }
  system.run_for(spec.warmup);
  rep.setup_s = static_cast<double>(now_ns() - t_start) * 1e-9;

  // --- timed window ---
  std::unique_ptr<harness::StormDriver> storm;
  SimTime last_reconnect = 0;
  if (spec.herd) {
    harness::StormDriver::Options so;
    so.seed = seed;
    so.waves = 1;
    so.wave_interval = spec.storm_delay;
    so.down_time = spec.down_time;
    storm = std::make_unique<harness::StormDriver>(system, subs, so);
    last_reconnect = system.simulator().now() + spec.storm_delay + spec.down_time;
  }
  std::vector<CapturedStream> captured;
  probe.set_traced(traced);
  if (traced) probe.set_capture(&captured);
  capture_events = traced;
  tap.set_capture(traced);
  tap.set_recording(true);
  const Snap s0 = snapshot(system);
  const SimTime sim0 = system.simulator().now();
  const SimTime window_end = sim0 + spec.window;
  const SimTime herd_deadline = last_reconnect + spec.drain_cap;
  double live_peak = 0;
  double backlog_max_us = 0;
  std::size_t queue_peak = 0;
  std::uint64_t root_ns = 0;
  bool herd_seen = false;
  constexpr SimDuration kChunk = msec(100);
  while (true) {
    const double c0 = thread_cpu_s();
    const std::uint64_t t0 = now_ns();
    system.run_for(kChunk);  // root span
    root_ns += now_ns() - t0;
    rep.cpu_s += thread_cpu_s() - c0;
    rep.host.sample();
    if (traced) {
      double live = 0;
      for (core::NodeResources* n : system.nodes()) {
        live += static_cast<double>(n->log_volume.wal().live_bytes() +
                                    n->database.wal().live_bytes());
        backlog_max_us = std::max(backlog_max_us, static_cast<double>(n->cpu.backlog()));
      }
      live_peak = std::max(live_peak, live);
      for (int i = 0; i < system.num_shbs(); ++i) {
        queue_peak = std::max(queue_peak, system.shb(i).catchup_queue_depth());
      }
    }
    const SimTime now = system.simulator().now();
    if (!spec.herd) {
      if (now >= window_end) break;
      continue;
    }
    if (now < last_reconnect) continue;
    const std::size_t streams = system.shb(0).catchup_stream_count();
    if (streams > 0) herd_seen = true;
    if (herd_seen && streams == 0) {
      rep.drain = now - last_reconnect;
      break;
    }
    if (now >= herd_deadline) {
      rep.errors.push_back("catchup herd did not drain within the cap");
      rep.drain = now - last_reconnect;
      break;
    }
  }
  rep.window_wall_s = static_cast<double>(root_ns) * 1e-9;
  rep.window_sim_s = to_seconds(system.simulator().now() - sim0);
  const Snap s1 = snapshot(system);
  tap.set_recording(false);
  probe.set_traced(false);
  probe.set_capture(nullptr);
  capture_events = false;
  rep.published = s1.published - s0.published;
  rep.delivered = tap.delivered();
  rep.latency_samples = tap.latencies_ms().size();
  rep.p50_ms = percentile(tap.latencies_ms(), 50);
  rep.p90_ms = percentile(tap.latencies_ms(), 90);
  rep.p99_ms = percentile(tap.latencies_ms(), 99);
  if (tap.gaps() != 0) {
    rep.errors.push_back(std::to_string(tap.gaps()) + " gap notifications (nothing is owed a gap)");
    rep.failed += tap.gaps();
  }

  rep.executed_tasks = system.simulator().executed_tasks();

  // --- correctness: exactly-once and quiescence. The oracle checks every
  // delivery live; the full contract sweep runs on the first rep only,
  // since every later rep must match it bit for bit. ---
  double verify_s = 0;
  if (verify) {
    system.run_for(spec.settle);
    const std::uint64_t tv = now_ns();
    try {
      system.verify_quiescent();
    } catch (const std::exception& e) {
      rep.errors.push_back(std::string("oracle: ") + e.what());
      rep.failed += std::max<std::size_t>(system.oracle().verify_all().size(), 1);
    }
    verify_s = static_cast<double>(now_ns() - tv) * 1e-9;
  }
  rep.owed = system.oracle().delivered_count() + rep.failed;
  if (!traced) return rep;

  // --- per-layer metrics of the traced window ---
  Layers& l = rep.layers;
  const auto ev = static_cast<double>(rep.published);
  const WireProbe::Counters& w = probe.counters();
  l.sim_tasks_per_event = per(static_cast<double>(s1.tasks - s0.tasks), ev);
  l.sim_speed = per(rep.window_sim_s, rep.window_wall_s);
  l.sim_cpu_busy_ms_per_event = per(to_millis(s1.cpu_busy - s0.cpu_busy), ev);
  l.sim_cpu_backlog_ms_max = backlog_max_us / 1e3;
  l.sim_disk_busy_ms_per_event = per(to_millis(s1.disk_busy - s0.disk_busy), ev);
  l.net_bytes_per_event = per(static_cast<double>(s1.net_bytes - s0.net_bytes), ev);
  l.wire_encode_ns_per_frame = per(static_cast<double>(w.encode_ns),
                                   static_cast<double>(w.frames_encoded));
  l.wire_decode_ns_per_frame = per(static_cast<double>(w.decode_ns),
                                   static_cast<double>(w.frames_decoded));
  l.wire_frames_per_event = per(static_cast<double>(w.frames_encoded), ev);
  l.wire_bytes_per_frame = per(static_cast<double>(w.bytes_encoded),
                               static_cast<double>(w.frames_encoded));
  l.wire_decode_rejects = static_cast<double>(w.decode_rejects);
  const auto records = static_cast<double>(s1.log_records - s0.log_records);
  const auto record_bytes = static_cast<double>(s1.log_bytes - s0.log_bytes);
  const auto barriers = static_cast<double>(s1.barriers - s0.barriers);
  l.storage_records_per_event = per(records, ev);
  l.storage_bytes_per_event = per(record_bytes, ev);
  l.storage_records_per_barrier = per(records, barriers);
  l.storage_live_bytes_peak = live_peak;
  l.routing_knowledge_items_per_event = per(static_cast<double>(w.knowledge_items), ev);
  l.routing_nacks_per_event = per(static_cast<double>(s1.nacks - s0.nacks), ev);
  l.routing_nack_events_served = static_cast<double>(s1.nack_served - s0.nack_served);
  l.core_shb_deliveries_per_event =
      per(static_cast<double>(s1.shb_deliveries - s0.shb_deliveries), ev);
  l.core_shb_catchup_streams = static_cast<double>(s1.catchup_opened - s0.catchup_opened);
  l.core_shb_catchup_queue_peak = static_cast<double>(queue_peak);
  l.core_shb_catchup_drain_sim_s = to_seconds(rep.drain);
  const auto pfs_records = static_cast<double>(s1.pfs_records - s0.pfs_records);
  l.core_pfs_records_per_event = per(pfs_records, ev);
  l.core_pfs_bytes_per_record =
      per(static_cast<double>(s1.pfs_bytes - s0.pfs_bytes), pfs_records);
  l.core_pfs_reads = static_cast<double>(s1.pfs_reads - s0.pfs_reads);
  l.harness_oracle_verify_s = verify_s;

  // Replays: each layer's public API on this window's inputs.
  const MatchReplay mr = replay_matching(predicates, window_events);
  l.matching_match_ns_per_event = per(mr.total_ns, ev);
  l.matching_candidates_per_event = per(mr.candidates, ev);
  l.matching_covering_groups = mr.groups;
  const StorageReplay sr = replay_storage(static_cast<std::uint64_t>(records),
                                          per(record_bytes, records),
                                          l.storage_records_per_barrier, "");
  l.storage_append_ns_per_record = sr.append_ns_per_record;
  l.storage_barrier_ns = sr.barrier_ns;
  l.routing_tickmap_ns_per_item = replay_tickmap(captured);

  // DeliveryOracle replay: the same subscribers, publishes and deliveries.
  sim::Simulator replay_sim;
  harness::DeliveryOracle oracle(replay_sim);
  for (core::DurableSubscriber* sub : subs) {
    oracle.register_subscriber(sub, matching::parse_predicate(predicate_of.at(sub->id())));
  }
  std::uint64_t total_published = 0;
  const std::uint64_t tp = now_ns();
  for (PubendId p : system.pubends()) {
    for (const auto& [tick, event] : system.oracle().published(p)) {
      oracle.on_published(PublisherId{1}, p, tick, event, 0, 0);
      ++total_published;
    }
  }
  const auto publish_ns = static_cast<double>(now_ns() - tp);
  const std::uint64_t td = now_ns();
  for (const SimTap::Delivery& d : tap.deliveries()) {
    oracle.on_event(d.sub, d.pubend, d.tick, d.event, d.catchup, d.at);
  }
  const auto deliver_ns = static_cast<double>(now_ns() - td);
  l.harness_oracle_ns_per_delivery =
      per(deliver_ns, static_cast<double>(tap.deliveries().size()));

  Attribution a;
  a.root_ns = static_cast<double>(root_ns);
  a.wire_ns = static_cast<double>(w.encode_ns + w.decode_ns);
  a.matching_ns = mr.total_ns;
  a.storage_ns = sr.append_ns_per_record * records + sr.barrier_ns * barriers;
  a.tickmap_ns = l.routing_tickmap_ns_per_item * static_cast<double>(w.knowledge_items);
  a.oracle_ns = deliver_ns + publish_ns * per(ev, static_cast<double>(total_published));
  attribute(a, ev, l);
  return rep;
}

/// Fields every same-seed rep must reproduce exactly.
bool same_fingerprint(const Rep& a, const Rep& b) {
  return a.executed_tasks == b.executed_tasks && a.p50_ms == b.p50_ms && a.p90_ms == b.p90_ms &&
         a.p99_ms == b.p99_ms && a.drain == b.drain && a.published == b.published &&
         a.delivered == b.delivered;
}

Outcome run_sim_workload(const Spec& spec, const Args& args) {
  Outcome out;
  std::vector<Rep> reps;
  auto add_rep = [&](bool traced) {
    reps.push_back(run_rep(spec, args.seed, traced, /*verify=*/traced || reps.empty()));
    const Rep& r = reps.back();
    out.attempted += r.owed;
    out.failed += r.failed;
    for (const auto& e : r.errors) out.fail(e);
    if (reps.size() > 1 && !same_fingerprint(reps.front(), r)) {
      out.fail("same seed, different result: rep " + std::to_string(reps.size()) +
               " diverged from rep 1 (tasks, latency percentiles or drain time)");
    }
    std::fprintf(stderr,
                 "rep %zu%s: setup %.3fs window %.3fs wall / %.2fs sim, %llu events, "
                 "%llu deliveries, p99 %.3f ms, tasks %llu, host unit %.2f ms\n",
                 reps.size(), traced ? " (traced)" : "", r.setup_s, r.window_wall_s,
                 r.window_sim_s, static_cast<unsigned long long>(r.published),
                 static_cast<unsigned long long>(r.delivered), r.p99_ms,
                 static_cast<unsigned long long>(r.executed_tasks),
                 r.host.seconds() * 1e3 / static_cast<double>(std::max<std::uint64_t>(r.host.units(), 1)));
  };

  if (args.trace) {
    add_rep(false);
    add_rep(true);
    Layers l = reps.back().layers;
    l.bench_trace_overhead_frac =
        reps[1].window_wall_s * reps[1].host.factor() /
            (reps[0].window_wall_s * reps[0].host.factor()) -
        1.0;
    l.bench_failed_frac = per(static_cast<double>(out.failed),
                              static_cast<double>(out.attempted));
    emit_layers(l, out);
    return out;
  }

  double measured = 0;
  while (reps.size() < 3 || measured < args.seconds) {
    add_rep(false);
    measured += reps.back().window_wall_s;
    if (!out.correct) break;
  }
  // Wall-clock figures are normalized to the reference host speed with the
  // factor each rep measured between its window's chunks.
  std::vector<double> setup, eps, cpu;
  for (const Rep& r : reps) {
    const double f = r.host.factor();
    setup.push_back(r.setup_s * f);
    eps.push_back(per(static_cast<double>(r.delivered), r.window_wall_s * f));
    cpu.push_back(per(r.cpu_s * f * 1e6, static_cast<double>(r.delivered)));
  }
  EndToEnd e;
  e.setup_s = median(setup);
  e.delivered_eps = median(eps);
  e.cpu_us_per_event = median(cpu);
  e.e2e_p50_ms = reps.front().p50_ms;
  e.e2e_p90_ms = reps.front().p90_ms;
  e.e2e_p99_ms = reps.front().p99_ms;
  e.latency_samples = reps.front().latency_samples;
  e.peak_rss_mb = peak_rss_mb();
  e.reps = static_cast<int>(reps.size());
  e.latency_clock = "sim";
  emit_end_to_end(e, out);
  return out;
}

}  // namespace

Outcome run_steady_fanout(const Args& args) { return run_sim_workload(steady_spec(), args); }
Outcome run_catchup_herd(const Args& args) { return run_sim_workload(herd_spec(), args); }

}  // namespace perfbench
