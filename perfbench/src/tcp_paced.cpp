// tcp_paced — the real runtime under a paced open-loop load.
//
// Four net::BrokerProcess roles — PHB <- SHB brokers with FileBackend WALs
// and default ProcessOptions, one publisher, one match-all durable
// subscriber — talk over loopback TCP sockets, all hosted by one EventLoop
// on the benchmark's thread. One loop rather than one thread per role: on a
// shared 4-vCPU host every cross-thread hop waits for a wake-up, and those
// wake-ups made the tail latency swing by a quarter between runs. At this
// load the roles use a small fraction of the one core.
//
// The publisher runs open loop at 1,000 ev/s with 64 B payloads, each event
// due at a seeded point of its own 1 ms slot. A due-time generator publishes
// every event whose scheduled time has passed; latency is stamped from the
// scheduled time, so a stall also charges the events queued behind it, and
// the generator's own lateness is reported.
//
// Teardown: the loop is stopped before any role is destroyed, so no socket
// closes while a close callback could still run.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "net/broker_process.hpp"
#include "net/event_loop.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr double kRateEps = 1000;
constexpr std::size_t kPayloadBytes = 64;
constexpr int kGroups = 4;
enum Role { kPhb, kShb, kSub, kPub, kRoles };

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

matching::EventDataPtr make_event(std::uint64_t seq) {
  matching::EventData::AttributeList attrs;
  attrs.emplace_back("g", matching::Value(static_cast<std::int64_t>(seq % kGroups)));
  attrs.emplace_back("seq", matching::Value(static_cast<std::int64_t>(seq)));
  return std::make_shared<matching::EventData>(std::move(attrs), std::string{},
                                               kPayloadBytes);
}

/// Scheduled publish offsets (ns after the window start) of events 1..n:
/// event i is due at a seeded uniform point of the i-th of n equal slots,
/// so the rate is exact over the window and never bunches past one slot.
std::vector<std::int64_t> make_schedule(std::uint64_t seed, std::size_t n, double window_s) {
  Rng rng(seed);
  const double slot_ns = window_s * 1e9 / static_cast<double>(n);
  std::vector<std::int64_t> offsets(n);
  for (std::size_t i = 0; i < n; ++i) {
    offsets[i] = static_cast<std::int64_t>((static_cast<double>(i) + rng.next_double()) * slot_ns);
  }
  return offsets;
}

/// Subscriber-side checks: every seq exactly once and in order.
class TcpTap final : public DeliveryTap {
 public:
  explicit TcpTap(const std::vector<std::int64_t>& offsets) : offsets_(offsets) {
    latencies_ms_.reserve(offsets.size());
  }

  void start(std::int64_t t0) { t0_ = t0; }

  void on_event(const core::EventDeliveryMsg& m) override {
    const auto now = static_cast<std::int64_t>(now_ns());
    const matching::Value* v = m.event->attribute("seq");
    const auto seq = v != nullptr ? static_cast<std::uint64_t>(v->as_double()) : 0;
    if (seq == 0 || seq > offsets_.size() || seq < next_) {
      ++duplicates_;
      return;
    }
    next_ = seq + 1;  // skipped seqs count as missing at the end
    latencies_ms_.push_back(static_cast<double>(now - t0_ - offsets_[seq - 1]) / 1e6);
    last_ns_ = now;
    ++delivered_;
  }
  void on_gap(const core::GapDeliveryMsg&) override { ++gaps_; }

  std::uint64_t delivered_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t gaps_ = 0;
  std::int64_t last_ns_ = 0;
  std::vector<double> latencies_ms_;

 private:
  const std::vector<std::int64_t>& offsets_;
  std::int64_t t0_ = 0;
  std::uint64_t next_ = 1;
};

/// Due-time generator: publishes every event whose time has passed, then
/// re-arms for the next due time.
class Generator {
 public:
  Generator(net::EventLoop& loop, core::Publisher& pub,
            const std::vector<std::int64_t>& offsets, std::int64_t t0)
      : loop_(loop), pub_(pub), offsets_(offsets), t0_(t0) {
    late_ms_.reserve(offsets.size());
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  void fire() {
    const auto now = static_cast<std::int64_t>(now_ns());
    while (next_ <= offsets_.size() && t0_ + offsets_[next_ - 1] <= now) {
      pub_.publish(make_event(next_));
      late_ms_.push_back(static_cast<double>(now - t0_ - offsets_[next_ - 1]) / 1e6);
      ++next_;
    }
    if (next_ > offsets_.size()) return;
    const std::int64_t wait_ns = t0_ + offsets_[next_ - 1] - now;
    loop_.schedule_after(std::max<SimDuration>(wait_ns / 1000, 0), [this] { fire(); });
  }

  [[nodiscard]] const std::vector<double>& late_ms() const { return late_ms_; }

 private:
  net::EventLoop& loop_;
  core::Publisher& pub_;
  const std::vector<std::int64_t>& offsets_;
  std::int64_t t0_;
  std::uint64_t next_ = 1;
  std::vector<double> late_ms_;
};

struct TcpRep {
  double setup_s = 0;
  double delivered_eps = 0;
  double cpu_us_per_event = 0;
  double loop_cpu_s = 0;   // the loop thread's CPU over the window
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t failed = 0;
  std::vector<double> latencies_ms;
  std::vector<std::string> errors;
  // Traced reps: counts of the window (replays add the times later), the
  // WAL totals the storage replay needs, and the PHB's stream data.
  Layers layers;
  double log_records = 0;
  double log_bytes = 0;
  double barriers = 0;
  WireProbe::Counters wire;
  std::vector<CapturedStream> captured;
};

/// Ticks the loop until `done` holds or `timeout_s` passes, calling `each`
/// after every tick. Returns whether `done` held.
template <typename Done, typename Each>
bool run_until(net::EventLoop& loop, Done done, double timeout_s, Each each) {
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(timeout_s * 1e9);
  while (!done()) {
    if (now_ns() > deadline) return false;
    loop.tick(msec(5));
    each();
  }
  return true;
}

/// Reads the window's counts off the roles into `rep` (traced reps).
void collect_counts(TcpRep& rep, std::unique_ptr<net::BrokerProcess> (&roles)[kRoles],
                    WireProbe (&probes)[kRoles]) {
  Layers& l = rep.layers;
  const auto ev = static_cast<double>(rep.events);
  for (const WireProbe& p : probes) {
    const WireProbe::Counters& c = p.counters();
    rep.wire.frames_encoded += c.frames_encoded;
    rep.wire.frames_decoded += c.frames_decoded;
    rep.wire.bytes_encoded += c.bytes_encoded;
    rep.wire.decode_rejects += c.decode_rejects;
    rep.wire.encode_ns += c.encode_ns;
    rep.wire.decode_ns += c.decode_ns;
    rep.wire.knowledge_items += c.knowledge_items;
  }
  double cpu_busy_ms = 0, disk_busy_ms = 0, nacks = 0, shb_deliveries = 0;
  double pfs_records = 0, pfs_bytes = 0;
  for (Role r : {kPhb, kShb}) {
    core::NodeResources* n = roles[r]->node();
    auto c = [n](const char* name) {
      return static_cast<double>(n->metrics.counter(name)->get());
    };
    cpu_busy_ms += to_millis(n->cpu.total_busy());
    disk_busy_ms += to_millis(n->disk.total_busy());
    rep.log_records += static_cast<double>(n->log_volume.appended_records());
    rep.log_bytes += static_cast<double>(n->log_volume.appended_bytes());
    rep.barriers += static_cast<double>(n->log_volume.barrier_batches());
    nacks += c("shb.nacks_sent_upstream");
    l.routing_nack_events_served += c("phb.nack_events_served");
    shb_deliveries += c("shb.constream_deliveries") + c("shb.catchup_deliveries");
    l.core_shb_catchup_streams += c("shb.catchup_streams_opened");
    pfs_records += c("pfs.records_written");
    pfs_bytes += c("pfs.record_bytes_written");
    l.core_pfs_reads += c("pfs.reads_issued");
  }
  l.sim_cpu_busy_ms_per_event = per(cpu_busy_ms, ev);
  l.sim_disk_busy_ms_per_event = per(disk_busy_ms, ev);
  l.storage_records_per_event = per(rep.log_records, ev);
  l.storage_bytes_per_event = per(rep.log_bytes, ev);
  l.storage_records_per_barrier = per(rep.log_records, rep.barriers);
  l.routing_nacks_per_event = per(nacks, ev);
  l.core_shb_deliveries_per_event = per(shb_deliveries, ev);
  l.core_pfs_records_per_event = per(pfs_records, ev);
  l.core_pfs_bytes_per_record = per(pfs_bytes, pfs_records);
}

TcpRep run_rep(std::uint64_t seed, double window_s, bool traced, const fs::path& dir) {
  TcpRep rep;
  const std::uint64_t t_start = now_ns();
  const std::vector<std::int64_t> offsets =
      make_schedule(seed, static_cast<std::size_t>(kRateEps * window_s), window_s);
  rep.events = offsets.size();
  fs::remove_all(dir);
  fs::create_directories(dir / "phb");
  fs::create_directories(dir / "shb");

  TcpTap tap(offsets);
  WireProbe probes[kRoles];  // outlive the roles whose networks they sit in
  net::EventLoop loop;
  std::unique_ptr<net::BrokerProcess> roles[kRoles];
  std::unique_ptr<Generator> gen;
  auto start = [&](Role r, net::ProcessOptions o) {
    roles[r] = std::make_unique<net::BrokerProcess>(loop, std::move(o));
    sim::Network& net = roles[r]->network();
    probes[r].wrap(net.transport());
    probes[r].set_traced(traced);
    net.set_transport(&probes[r]);
  };
  double live_peak = 0;
  auto sample = [&] {
    if (!traced) return;
    double live = 0;
    for (Role r : {kPhb, kShb}) {
      core::NodeResources* n = roles[r]->node();
      rep.layers.sim_cpu_backlog_ms_max =
          std::max(rep.layers.sim_cpu_backlog_ms_max, to_millis(n->cpu.backlog()));
      live += static_cast<double>(n->log_volume.wal().live_bytes() +
                                  n->database.wal().live_bytes());
    }
    live_peak = std::max(live_peak, live);
  };

  std::int64_t t0 = 0;
  try {
    net::ProcessOptions phb;
    phb.name = "phb";
    phb.role = "phb";
    phb.expected_children = 1;
    phb.storage.file_dir = (dir / "phb").string();
    start(kPhb, phb);
    // Stream data leaves only the PHB: its probe alone captures the routing input.
    if (traced) probes[kPhb].set_capture(&rep.captured);

    net::ProcessOptions shb;
    shb.name = "shb0";
    shb.role = "shb";
    shb.parent_port = roles[kPhb]->port();
    shb.storage.file_dir = (dir / "shb").string();
    start(kShb, shb);

    net::ProcessOptions sub;
    sub.name = "sub1";
    sub.role = "sub";
    sub.parent_port = roles[kShb]->port();
    sub.predicate = "g >= 0";
    start(kSub, sub);
    probes[kSub].set_tap(&tap);
    const auto no_op = [] {};
    bool booted =
        run_until(loop, [&] { return roles[kSub]->subscriber()->connected(); }, 60, no_op);

    net::ProcessOptions pub;
    pub.name = "pub1";
    pub.role = "pub";
    pub.parent_port = roles[kPhb]->port();
    pub.publish_burst = 0;             // the generator publishes
    pub.publish_interval = sec(3600);  // keeps the built-in pump idle
    start(kPub, pub);
    booted = booted && run_until(loop, [&] { return roles[kPub]->started(); }, 60, no_op);
    if (!booted) throw std::runtime_error("the topology did not boot");

    // --- timed window: from the first due time until every event arrived ---
    t0 = static_cast<std::int64_t>(now_ns()) + 5'000'000;
    rep.setup_s = static_cast<double>(t0 - static_cast<std::int64_t>(t_start)) * 1e-9;
    tap.start(t0);
    gen = std::make_unique<Generator>(loop, *roles[kPub]->publisher(), offsets, t0);
    loop.schedule_after(msec(5), [&gen] { gen->fire(); });
    const std::uint64_t polls0 = loop.polls();
    const std::uint64_t timers0 = loop.timers_fired();
    const double cpu0 = thread_cpu_s();
    run_until(loop, [&] { return tap.delivered_ >= rep.events; }, window_s + 30, sample);
    rep.loop_cpu_s = thread_cpu_s() - cpu0;
    const double wall_s = static_cast<double>(static_cast<std::int64_t>(now_ns()) - t0) * 1e-9;

    std::uint64_t rejects = 0;
    for (const auto& r : roles) rejects += r->reassembly_rejects() + r->network().decode_rejects();
    rep.failed += rejects;
    if (rejects != 0) rep.errors.push_back(std::to_string(rejects) + " frame rejects");
    if (traced) {
      const auto ev = static_cast<double>(rep.events);
      rep.layers.net_loop_busy_frac = per(rep.loop_cpu_s, wall_s);
      rep.layers.net_polls_per_event = per(static_cast<double>(loop.polls() - polls0), ev);
      rep.layers.net_timers_per_event =
          per(static_cast<double>(loop.timers_fired() - timers0), ev);
      double reassembly = 0;
      for (const auto& r : roles) reassembly += static_cast<double>(r->reassembly_rejects());
      rep.layers.net_reassembly_rejects = reassembly;
      rep.layers.storage_live_bytes_peak = live_peak;
      rep.layers.bench_gen_late_p99_ms = percentile(gen->late_ms(), 99);
      collect_counts(rep, roles, probes);
    }
  } catch (const std::exception& e) {
    rep.errors.push_back(e.what());
  }
  // Teardown with the loop stopped: no close callback can run while the
  // roles and their sockets are destroyed.
  gen.reset();
  for (auto& r : roles) r.reset();
  fs::remove_all(dir);

  rep.delivered = tap.delivered_;
  const std::uint64_t missing = rep.events - std::min(rep.events, rep.delivered);
  rep.failed += missing + tap.duplicates_ + tap.gaps_;
  if (missing + tap.duplicates_ + tap.gaps_ != 0) {
    rep.errors.push_back(std::to_string(missing) + " missing, " +
                         std::to_string(tap.duplicates_) + " duplicate or out of order, " +
                         std::to_string(tap.gaps_) + " gap notifications");
  }
  if (rep.delivered > 0) {
    rep.delivered_eps =
        static_cast<double>(rep.delivered) / (static_cast<double>(tap.last_ns_ - t0) * 1e-9);
    rep.cpu_us_per_event = rep.loop_cpu_s * 1e6 / static_cast<double>(rep.delivered);
  }
  rep.latencies_ms = std::move(tap.latencies_ms_);
  return rep;
}

/// Completes a traced rep's per-layer metrics with the wire times, the
/// replays on the rep's inputs and the attribution of the loop's CPU.
Layers tcp_layers(const TcpRep& r, const fs::path& replay_dir) {
  Layers l = r.layers;
  const auto ev = static_cast<double>(r.events);
  const WireProbe::Counters& w = r.wire;
  l.net_bytes_per_event = per(static_cast<double>(w.bytes_encoded), ev);
  l.wire_encode_ns_per_frame =
      per(static_cast<double>(w.encode_ns), static_cast<double>(w.frames_encoded));
  l.wire_decode_ns_per_frame =
      per(static_cast<double>(w.decode_ns), static_cast<double>(w.frames_decoded));
  l.wire_frames_per_event = per(static_cast<double>(w.frames_encoded), ev);
  l.wire_bytes_per_frame =
      per(static_cast<double>(w.bytes_encoded), static_cast<double>(w.frames_encoded));
  l.wire_decode_rejects = static_cast<double>(w.decode_rejects);
  l.routing_knowledge_items_per_event = per(static_cast<double>(w.knowledge_items), ev);

  std::vector<matching::EventDataPtr> events;
  events.reserve(r.events);
  for (std::uint64_t seq = 1; seq <= r.events; ++seq) events.push_back(make_event(seq));
  const MatchReplay mr = replay_matching({{"g >= 0"}}, events);
  l.matching_match_ns_per_event = per(mr.total_ns, ev);
  l.matching_candidates_per_event = per(mr.candidates, ev);
  l.matching_covering_groups = mr.groups;
  fs::create_directories(replay_dir);
  const StorageReplay sr =
      replay_storage(static_cast<std::uint64_t>(r.log_records), per(r.log_bytes, r.log_records),
                     l.storage_records_per_barrier, replay_dir.string());
  fs::remove_all(replay_dir);
  l.storage_append_ns_per_record = sr.append_ns_per_record;
  l.storage_barrier_ns = sr.barrier_ns;
  l.routing_tickmap_ns_per_item = replay_tickmap(r.captured);

  Attribution a;
  a.root_ns = r.loop_cpu_s * 1e9;
  a.wire_ns = static_cast<double>(w.encode_ns + w.decode_ns);
  a.matching_ns = mr.total_ns;
  a.storage_ns = sr.append_ns_per_record * r.log_records + sr.barrier_ns * r.barriers;
  a.tickmap_ns = l.routing_tickmap_ns_per_item * static_cast<double>(w.knowledge_items);
  attribute(a, ev, l);
  return l;
}

}  // namespace

Outcome run_tcp_paced(const Args& args) {
  Outcome out;
  // Ten reps share the measured time and each reports its own percentiles,
  // so a rep disturbed by the host moves no median. The gated tail is p90:
  // this shared host steals its vCPUs for tens of milliseconds a few times
  // a second, which inflated most reps' p99 by up to 80% in noisy phases. The traced run makes
  // one untraced and one traced rep for the overhead comparison.
  constexpr int kReps = 10;
  const int num_reps = args.trace ? 2 : kReps;
  const double window_s = args.seconds / kReps;
  const fs::path dir = fs::path(args.work_dir) / "tcp_paced";
  std::vector<TcpRep> reps;
  for (int i = 0; i < num_reps; ++i) {
    const bool traced = args.trace && i == 1;
    reps.push_back(run_rep(args.seed, window_s, traced, dir / ("rep" + std::to_string(i))));
    const TcpRep& r = reps.back();
    out.attempted += r.events;
    out.failed += r.failed;
    for (const auto& e : r.errors) out.fail("tcp_paced: " + e);
    std::fprintf(stderr,
                 "rep %d%s: setup %.3fs, %llu/%llu delivered at %.1f ev/s, "
                 "%.2f us cpu/event, p90 %.3f ms, p99 %.3f ms\n",
                 i + 1, traced ? " (traced)" : "", r.setup_s,
                 static_cast<unsigned long long>(r.delivered),
                 static_cast<unsigned long long>(r.events), r.delivered_eps,
                 r.cpu_us_per_event, percentile(r.latencies_ms, 90),
                 percentile(r.latencies_ms, 99));
    if (!out.correct) return out;
  }

  if (args.trace) {
    Layers l = tcp_layers(reps[1], dir / "replay");
    l.bench_trace_overhead_frac = reps[1].cpu_us_per_event / reps[0].cpu_us_per_event - 1.0;
    l.bench_failed_frac = per(static_cast<double>(out.failed), static_cast<double>(out.attempted));
    emit_layers(l, out);
    return out;
  }

  std::vector<double> setup, eps, cpu, p50, p90, p99;
  for (const TcpRep& r : reps) {
    setup.push_back(r.setup_s);
    eps.push_back(r.delivered_eps);
    cpu.push_back(r.cpu_us_per_event);
    p50.push_back(percentile(r.latencies_ms, 50));
    p90.push_back(percentile(r.latencies_ms, 90));
    p99.push_back(percentile(r.latencies_ms, 99));
  }
  EndToEnd e;
  e.setup_s = median(setup);
  e.delivered_eps = median(eps);
  e.cpu_us_per_event = median(cpu);
  e.e2e_p50_ms = median(p50);
  e.e2e_p90_ms = median(p90);
  e.e2e_p99_ms = median(p99);
  e.latency_samples = reps.front().latencies_ms.size();
  e.peak_rss_mb = peak_rss_mb();
  e.reps = num_reps;
  e.latency_clock = "wall";
  emit_end_to_end(e, out);
  return out;
}

}  // namespace perfbench
