// System — builds and operates a whole simulated deployment: broker
// topology, links, clients, failure injection, and verification.
//
// Topology shape (paper Fig. 3): one PHB hosting all pubends, an optional
// chain of intermediate brokers, and N SHBs fanning out from the chain tail.
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/intermediate.hpp"
#include "core/phb.hpp"
#include "core/publisher_client.hpp"
#include "core/shb.hpp"
#include "core/subscriber_client.hpp"
#include "harness/invariants.hpp"
#include "harness/oracle.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"
#include "util/latency.hpp"
#include "util/logging.hpp"
#include "util/trace_export.hpp"

namespace gryphon::harness {

/// What travels on the simulated links: shared in-memory structs (the fast
/// default) or CRC32C-framed encoded bytes (wire::CodecTransport — byte-
/// accurate, corruptible, schedule-identical on the same seed).
enum class WireMode { kStruct, kCodec };

[[nodiscard]] constexpr const char* to_string(WireMode mode) {
  return mode == WireMode::kCodec ? "codec" : "struct";
}

struct SystemConfig {
  int num_pubends = 4;
  int num_intermediates = 0;  // chain length between the PHB and the SHBs
  int num_shbs = 1;
  core::BrokerConfig broker{};
  storage::DiskConfig phb_disk{};
  storage::DiskConfig shb_disk{};
  /// Byte-level WAL knobs shared by every node's LogVolume + Database
  /// (segment roll size, DB compaction threshold, optional real-file dir).
  storage::StorageOptions storage{};
  int shb_db_connections = 1;
  /// Per-transaction DB-engine cost at the SHB (JMS auto-ack bottleneck).
  SimDuration shb_db_per_txn_overhead = 0;
  sim::LinkConfig broker_link{msec(1), 1e9};
  sim::LinkConfig client_link{msec(1), 1e9};
  /// Periodic whole-process stall at each SHB (the paper attributes the
  /// periodic dips in latestDelivered's advance rate to JVM GC pauses).
  /// Disabled when period == 0.
  SimDuration shb_gc_period = 0;
  SimDuration shb_gc_pause = 0;
  core::ReleasePolicyPtr policy = std::make_shared<core::NoEarlyReleasePolicy>();
  /// Causal tick tracing (util/trace.hpp): tick T is traced iff
  /// T % trace_sample_every == 0 (rounded up to a power of two; 1 = trace
  /// everything, what chaos/debug runs want). Applied to every node tracer.
  std::uint32_t trace_sample_every = 64;
  /// Per-node flight-recorder ring size (records; preallocated).
  std::size_t trace_ring_capacity = 4096;
  /// Transport under every link (gryphon_sim --wire=struct|codec).
  WireMode wire = WireMode::kStruct;
  /// Codec mode only: canonical re-encode check cadence — verify ~1 in N
  /// decoded frames (seeded, deterministic). 1 verifies every frame
  /// (--wire-verify=always; what the tests and the chaos ASan leg use).
  std::uint32_t wire_verify_every = 64;
  /// Capture every accepted trace record for Chrome trace-event export
  /// (gryphon_sim --trace-out). Off by default: the exporter buffers the
  /// full record stream, which a long soak would rather not pay for.
  /// The latency recorder is always on — it only keeps histograms.
  bool trace_export = false;
};

class System {
 public:
  explicit System(SystemConfig config);

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] sim::LinkNetwork& network() { return net_; }
  [[nodiscard]] DeliveryOracle& oracle() { return oracle_; }

  [[nodiscard]] core::PublisherHostingBroker& phb() { return *phb_; }
  [[nodiscard]] core::IntermediateBroker& intermediate(int i);
  [[nodiscard]] core::SubscriberHostingBroker& shb(int i = 0);
  [[nodiscard]] bool shb_alive(int i = 0) const {
    return shbs_[static_cast<std::size_t>(i)] != nullptr;
  }
  [[nodiscard]] int num_shbs() const { return static_cast<int>(shbs_.size()); }
  [[nodiscard]] int num_intermediates() const {
    return static_cast<int>(intermediate_nodes_.size());
  }
  [[nodiscard]] bool phb_alive() const { return phb_ != nullptr; }
  [[nodiscard]] bool intermediate_alive(int i) const;
  [[nodiscard]] std::vector<PubendId> pubends() const;

  [[nodiscard]] sim::Cpu& phb_cpu() { return phb_node_->sim_cpu(); }
  [[nodiscard]] sim::Cpu& shb_cpu(int i = 0);

  // --- topology / device accessors (fault injection targets) ---
  [[nodiscard]] sim::EndpointId phb_endpoint() const { return phb_node_->endpoint; }
  [[nodiscard]] sim::EndpointId intermediate_endpoint(int i) const;
  [[nodiscard]] sim::EndpointId shb_endpoint(int i = 0) const;
  /// Endpoint of the broker directly upstream of SHB i (the chain tail, or
  /// the PHB when there are no intermediates).
  [[nodiscard]] sim::EndpointId shb_uplink_endpoint(int i = 0) const;
  /// Endpoint directly upstream of intermediate i (i-1, or the PHB).
  [[nodiscard]] sim::EndpointId intermediate_uplink_endpoint(int i) const;
  [[nodiscard]] storage::SimDisk& phb_disk() { return phb_node_->sim_disk(); }
  [[nodiscard]] storage::SimDisk& intermediate_disk(int i);
  [[nodiscard]] storage::SimDisk& shb_disk(int i = 0);

  /// Adds a publisher feeding `pubend` at fixed `interval` (manual-only if
  /// interval <= 0), using `factory` to build events.
  core::Publisher& add_publisher(PubendId pubend, SimDuration interval,
                                 core::Publisher::EventFactory factory,
                                 SimDuration start_offset = 0);

  /// Adds a durable subscriber on SHB `shb_index` (machine groups delivery
  /// rates per simulated client machine, as in the paper's figures). The
  /// client is registered with the oracle but not yet connected.
  core::DurableSubscriber& add_subscriber(core::DurableSubscriber::Options options,
                                          int shb_index = 0, int machine = 0);

  [[nodiscard]] std::vector<core::DurableSubscriber*> subscribers();

  /// Reconnect-anywhere: moves a subscriber's durable subscription to
  /// another SHB (creating the client link if needed).
  void migrate_subscriber(core::DurableSubscriber& subscriber, int new_shb_index);

  // --- failure injection ---
  /// Kills SHB i: its address goes dark, volatile state is lost, connected
  /// subscribers see a connection reset.
  void crash_shb(int i);
  /// Restarts SHB i over its surviving node resources and runs recovery.
  void restart_shb(int i);
  void crash_phb();
  void restart_phb();
  void crash_intermediate(int i);
  void restart_intermediate(int i);

  /// Torn sync on a live broker's disk (in-flight write barriers lost, the
  /// process stays up; LogVolume/Database re-issue the lost barriers).
  /// `entropy` seeds the byte offset a subsequent crash would tear the WAL
  /// tail at (0 = tear exactly at the durable watermark).
  void torn_sync_phb(std::uint64_t entropy = 0);
  void torn_sync_intermediate(int i, std::uint64_t entropy = 0);
  void torn_sync_shb(int i = 0, std::uint64_t entropy = 0);

  /// Runs the simulation for `d` of simulated time.
  void run_for(SimDuration d) { sim_.run_until(sim_.now() + d); }

  /// Checks the exactly-once contract for every subscriber; throws on
  /// violation (callable repeatedly, e.g. at the end of every benchmark).
  void verify_exactly_once();

  /// Quiescence oracle for chaos runs: exactly-once holds, every live SHB
  /// has drained its catchup streams, and (optionally) every subscriber
  /// hosted on a live SHB is connected again.
  void verify_quiescent(bool require_connected = true);

  /// Registers the always-on InvariantMonitor (periodic exactly-once +
  /// progress-monotonicity sweeps). Idempotent: a second call returns the
  /// existing monitor, ignoring the new options.
  InvariantMonitor& enable_invariants(InvariantMonitor::Options options = {});
  [[nodiscard]] InvariantMonitor* invariants() { return monitor_.get(); }

  // --- observability (ROADMAP "metrics registry + flight recorder") ---
  /// Node resources (metrics registry + tracer) survive broker crashes, so
  /// these are valid even while the corresponding broker is down.
  [[nodiscard]] core::NodeResources& phb_node() { return *phb_node_; }
  [[nodiscard]] core::NodeResources& intermediate_node(int i);
  [[nodiscard]] core::NodeResources& shb_node(int i = 0);
  /// Every node in deterministic topology order: PHB, intermediates, SHBs.
  [[nodiscard]] std::vector<core::NodeResources*> nodes();

  /// Per-stage delivery-latency histograms fed live from every node tracer
  /// (publish->persist->match->pfs-log->deliver->ack, end-to-end, catchup
  /// admission wait). Always on; sampled at trace_sample_every like the
  /// flight recorder, so percentiles are over the deterministic sample.
  [[nodiscard]] LatencyRecorder& latency() { return latency_; }

  /// Chrome trace-event exporter (nullptr unless config.trace_export).
  [[nodiscard]] TraceExporter* trace_exporter() { return trace_export_.get(); }
  /// Writes the Perfetto-loadable trace to `path`. Returns false when the
  /// exporter is disabled or the file could not be written.
  bool write_trace_json(const std::string& path);
  /// Publishes a chaos fault window / instant onto the trace's faults
  /// track. No-ops when the exporter is disabled, so fault planners can
  /// call these unconditionally.
  void note_fault_span(SimTime from, SimTime to, const std::string& name);
  void note_fault_instant(SimTime at, const std::string& name);

  /// Writes a JSON object `{ "node": {snapshot}, ... }` covering every
  /// node's registry (probes refreshed; sorted names => deterministic).
  void append_metrics_json(JsonWriter& w);
  /// Writes the per-node snapshots as one pretty JSON document. Returns
  /// false if any byte did not reach the file.
  bool write_metrics_json(const std::string& path);
  /// One NDJSON scrape line: {"t":<sim seconds>,"latency":{...},
  /// "nodes":{...}} + newline — the periodic --metrics-interval record.
  /// Deterministic (sim-time driven, sorted names, canonical numbers).
  [[nodiscard]] std::string metrics_scrape_line();

  /// Merges every node's trace ring into one time-ordered dump; with a
  /// focus, appends the milestone checklist for that (pubend, tick).
  void dump_flight_recorder(std::FILE* out,
                            const FlightRecorderFocus* focus = nullptr);

 private:
  struct SubEntry {
    std::unique_ptr<core::DurableSubscriber> client;
    int shb_index;
  };

  void schedule_gc_tick(sim::Cpu* cpu);

  SystemConfig config_;
  sim::Simulator sim_;
  /// Stamps log entries with simulated time (the only meaningful clock
  /// here). Declared after sim_, so it lets go of the clock before the
  /// Simulator dies.
  Logger::ScopedClock log_clock_{[this] { return sim_.now(); }};
  sim::LinkNetwork net_;
  /// Owned transport installed into net_ (nullptr in struct mode: the
  /// Network's no-transport path is already the struct pass-through).
  std::unique_ptr<sim::Transport> transport_;
  DeliveryOracle oracle_;

  std::unique_ptr<core::NodeResources> phb_node_;
  std::vector<std::unique_ptr<core::NodeResources>> intermediate_nodes_;
  std::vector<std::unique_ptr<core::NodeResources>> shb_nodes_;

  std::unique_ptr<core::PublisherHostingBroker> phb_;
  std::vector<std::unique_ptr<core::IntermediateBroker>> intermediates_;
  std::vector<std::unique_ptr<core::SubscriberHostingBroker>> shbs_;
  std::vector<std::vector<std::function<void(core::SubscriberHostingBroker&)>>> shb_hooks_;

  std::vector<std::unique_ptr<core::Publisher>> publishers_;
  std::vector<SubEntry> subscribers_;
  std::unique_ptr<InvariantMonitor> monitor_;

  // Live trace consumers, fed by every node tracer through one fanout.
  // Declared after the node vectors: the tracers (inside NodeResources)
  // outlive the sink installation either way, and System never destroys
  // nodes before itself.
  LatencyRecorder latency_;
  std::unique_ptr<TraceExporter> trace_export_;
  TraceFanout trace_fanout_;

 public:
  /// Installs a hook run on every (re)constructed SHB i (e.g. to reattach
  /// the catchup-completion callback after a restart).
  void on_shb_ready(int i, std::function<void(core::SubscriberHostingBroker&)> hook);
};

}  // namespace gryphon::harness
