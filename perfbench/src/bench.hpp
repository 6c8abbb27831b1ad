// Shared pieces of the repository benchmark: arguments, the metric sets
// every workload reports, clocks and statistics helpers, and the WireProbe
// transport decorator through which the benchmark watches the wire layer.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/messages.hpp"
#include "sim/transport.hpp"

namespace perfbench {

using namespace gryphon;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // temporary WAL files, removed by the caller
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample counts and similar, printed on the human line
};

/// What one run prints: the end-to-end metrics (untraced run) or the
/// per-layer metrics (traced run), plus the correctness verdict.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;  // owed deliveries
  std::uint64_t failed = 0;     // missing, duplicated, out of order or rejected
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

/// End-to-end metrics: identical names on every workload.
struct EndToEnd {
  double setup_s = 0;
  double delivered_eps = 0;
  double cpu_us_per_event = 0;
  double e2e_p50_ms = 0;
  double e2e_p90_ms = 0;
  double e2e_p99_ms = 0;  // printed, not gated: host stalls dominate it on tcp_paced
  std::uint64_t latency_samples = 0;
  double peak_rss_mb = 0;
  int reps = 0;
  std::string latency_clock;  // "sim" or "wall"
};
void emit_end_to_end(const EndToEnd& e, Outcome& out);

/// Per-layer metrics: identical names on every workload; a layer that is
/// not on a workload's path reports 0.
struct Layers {
  // sim: scheduler and the Cpu/SimDisk cost model
  double sim_tasks_per_event = 0;
  double sim_speed = 0;
  double sim_cpu_busy_ms_per_event = 0;
  double sim_cpu_backlog_ms_max = 0;
  double sim_disk_busy_ms_per_event = 0;
  // net: the real event loops and sockets
  double net_loop_busy_frac = 0;
  double net_polls_per_event = 0;
  double net_timers_per_event = 0;
  double net_bytes_per_event = 0;
  double net_reassembly_rejects = 0;
  // wire: encode/decode through the Transport seam
  double wire_encode_ns_per_frame = 0;
  double wire_decode_ns_per_frame = 0;
  double wire_frames_per_event = 0;
  double wire_bytes_per_frame = 0;
  double wire_decode_rejects = 0;
  // storage: LogVolume / WAL
  double storage_records_per_event = 0;
  double storage_bytes_per_event = 0;
  double storage_records_per_barrier = 0;
  double storage_append_ns_per_record = 0;
  double storage_barrier_ns = 0;
  double storage_live_bytes_peak = 0;
  // matching
  double matching_match_ns_per_event = 0;
  double matching_candidates_per_event = 0;
  double matching_covering_groups = 0;
  // routing: knowledge/curiosity streams and tick maps
  double routing_knowledge_items_per_event = 0;
  double routing_nacks_per_event = 0;
  double routing_nack_events_served = 0;
  double routing_tickmap_ns_per_item = 0;
  // core: PHB, pubend, SHB and PFS
  double core_shb_deliveries_per_event = 0;
  double core_shb_catchup_streams = 0;
  double core_shb_catchup_queue_peak = 0;
  double core_shb_catchup_drain_sim_s = 0;
  double core_pfs_records_per_event = 0;
  double core_pfs_bytes_per_record = 0;
  double core_pfs_reads = 0;
  double core_unattributed_ns_per_event = 0;
  // harness: the DeliveryOracle
  double harness_oracle_ns_per_delivery = 0;
  double harness_oracle_verify_s = 0;
  // the benchmark itself
  double bench_gen_late_p99_ms = 0;
  double bench_trace_overhead_frac = 0;
  double bench_unattributed_frac = 0;
  double bench_failed_frac = 0;
};
void emit_layers(const Layers& l, Outcome& out);

/// Root time of the traced window split across layers: the measured wire
/// time plus replay estimates; the rest is core.unattributed.
struct Attribution {
  double root_ns = 0;
  double wire_ns = 0;
  double matching_ns = 0;
  double storage_ns = 0;
  double tickmap_ns = 0;
  double oracle_ns = 0;
};
void attribute(const Attribution& a, double events, Layers& l);

// --- workloads (each returns the metrics of one run) ---
Outcome run_steady_fanout(const Args& args);
Outcome run_catchup_herd(const Args& args);
Outcome run_tcp_paced(const Args& args);

// --- clocks and statistics ---
std::uint64_t now_ns();          // steady clock
double thread_cpu_s();           // CPU time of the calling thread
double peak_rss_mb();            // high-water resident set of the process
double median(std::vector<double> v);

/// Host-speed probe for shared machines, whose speed drifts by tens of
/// percent over seconds. sample() runs one unit of fixed reference work
/// (allocation, ordered and hashed maps, a sort; nothing of the program)
/// and records how long it took. Interleaved with the measured work, it
/// sees the same host conditions, and factor() converts a measured time to
/// the time it would have taken on a host that runs one unit in
/// kNominalUnitS: normalized = measured * factor().
class HostSpeed {
 public:
  static constexpr double kNominalUnitS = 0.004;

  void sample();
  [[nodiscard]] double factor() const;
  [[nodiscard]] std::uint64_t units() const { return units_; }
  [[nodiscard]] double seconds() const { return seconds_; }

 private:
  std::uint64_t units_ = 0;
  double seconds_ = 0;
  std::uint64_t checksum_ = 0;
};
/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples.
double percentile(std::vector<double> v, double p);

// --- the wire probe ---

/// Sees every message a subscriber endpoint receives, after decoding.
class DeliveryTap {
 public:
  virtual ~DeliveryTap() = default;
  virtual void on_event(const core::EventDeliveryMsg& m) = 0;
  virtual void on_gap(const core::GapDeliveryMsg& m) = 0;
};

/// One StreamDataMsg as it was handed to the wire (routing replay input).
struct CapturedStream {
  sim::EndpointId to = 0;
  PubendId pubend;
  std::vector<routing::KnowledgeItem> items;
};

/// Transport decorator installed through Network::set_transport(). It
/// forwards every to_wire/from_wire call to the transport it wraps (none =
/// struct pass-through) and hands decoded subscriber deliveries to a tap.
/// When traced it also times encode/decode calls, counts frames, bytes and
/// knowledge items, and captures stream data for the routing replay.
class WireProbe final : public sim::Transport {
 public:
  struct Counters {
    std::uint64_t frames_encoded = 0;
    std::uint64_t frames_decoded = 0;
    std::uint64_t bytes_encoded = 0;
    std::uint64_t decode_rejects = 0;
    std::uint64_t encode_ns = 0;
    std::uint64_t decode_ns = 0;
    std::uint64_t knowledge_items = 0;
  };

  WireProbe() = default;
  WireProbe(const WireProbe&) = delete;
  WireProbe& operator=(const WireProbe&) = delete;

  void wrap(sim::Transport* inner) { inner_ = inner; }
  void set_tap(DeliveryTap* tap) { tap_ = tap; }
  void set_traced(bool traced) { traced_ = traced; }
  /// Stream data handed to the wire is appended here while non-null.
  void set_capture(std::vector<CapturedStream>* capture) { capture_ = capture; }

  [[nodiscard]] const Counters& counters() const { return c_; }

  [[nodiscard]] const char* name() const override { return "perfbench-probe"; }
  [[nodiscard]] sim::MessagePtr to_wire(sim::EndpointId from, sim::EndpointId to,
                                        sim::MessagePtr msg) override;
  [[nodiscard]] sim::MessagePtr from_wire(sim::EndpointId from, sim::EndpointId to,
                                          sim::MessagePtr msg) override;

 private:
  sim::Transport* inner_ = nullptr;
  DeliveryTap* tap_ = nullptr;
  bool traced_ = false;
  std::vector<CapturedStream>* capture_ = nullptr;
  Counters c_;
};

// --- layer replays (replays.cpp): time a layer's public API on the inputs
// the traced run produced ---

struct MatchReplay {
  double total_ns = 0;
  double candidates = 0;  // predicate evaluations over all calls
  double groups = 0;      // covering groups summed over the indexes
};
/// One SubscriptionIndex per SHB, each fed every event with match_into().
MatchReplay replay_matching(const std::vector<std::vector<std::string>>& predicates_per_shb,
                            const std::vector<matching::EventDataPtr>& events);

struct StorageReplay {
  double append_ns_per_record = 0;
  double barrier_ns = 0;
};
/// LogVolume append + barrier with the run's record size and barrier batch;
/// MemoryBackend when file_dir is empty, FileBackend under it otherwise.
StorageReplay replay_storage(std::uint64_t records, double bytes_per_record,
                             double records_per_barrier, const std::string& file_dir);

/// routing::TickMap::apply over captured stream data, one map per
/// (destination, pubend). Returns ns per applied item.
double replay_tickmap(const std::vector<CapturedStream>& captured);

}  // namespace perfbench
