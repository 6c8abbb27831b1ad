// The "machine" a broker process runs on: CPU, disk, log volume, database
// and network address. These survive a broker *process* crash — the broker
// object is destroyed and a fresh one is constructed over the same
// NodeResources, finding exactly the durable state a real restart would
// find on disk.
//
// The CPU and disk come from the node's *host* (DESIGN.md §4.7):
//  * the simulator host — sim::Cpu and SimDisk, the 2003 cost model;
//  * the real host — net::InlineExecutor and FileDisk, built by
//    net::BrokerProcess: handlers run inline on the event loop and every
//    barrier is a real fdatasync on the node's syncer thread.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "sim/cpu.hpp"
#include "sim/executor.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "storage/database.hpp"
#include "storage/disk.hpp"
#include "storage/file_disk.hpp"
#include "storage/log_volume.hpp"
#include "storage/sim_disk.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace gryphon::core {

class Broker;

class NodeResources {
  // The host's devices; declared first so they outlive everything below.
  std::unique_ptr<sim::Executor> cpu_owner_;
  std::unique_ptr<storage::Disk> disk_owner_;

 public:
  /// Simulator host: the cost model's CPU and the timing model's disk.
  NodeResources(sim::Scheduler& scheduler, sim::Network& network, std::string name,
                const BrokerConfig& broker_config, storage::DiskConfig disk_config,
                int db_connections = 1, storage::StorageOptions storage_options = {})
      : NodeResources(scheduler, network, name,
                      std::make_unique<sim::Cpu>(scheduler, name + ".cpu",
                                                 broker_config.cores),
                      std::make_unique<storage::SimDisk>(scheduler, name + ".disk",
                                                         disk_config),
                      db_connections, std::move(storage_options)) {}

  /// Any host: the node runs on `host_cpu` and `host_disk` (named
  /// "<name>.disk", which prefixes its WAL file names).
  NodeResources(sim::Scheduler& scheduler, sim::Network& network, std::string name,
                std::unique_ptr<sim::Executor> host_cpu,
                std::unique_ptr<storage::Disk> host_disk, int db_connections,
                storage::StorageOptions storage_options)
      : cpu_owner_(std::move(host_cpu)),
        disk_owner_(std::move(host_disk)),
        sim(scheduler),
        network(network),
        name(std::move(name)),
        metrics(this->name),
        tracer(this->name),
        cpu(*cpu_owner_),
        disk(*disk_owner_),
        log_volume(disk, storage_options, "log"),
        database(disk, db_connections, storage_options, "db") {
    // wal.* torn-tail totals are *counters* (not probes) so they land in the
    // bench JSON metrics block; the two WALs of a node share the slots.
    {
      storage::LogVolume::Instruments ins;
      ins.recoveries = metrics.counter("wal.recoveries");
      ins.recovery_truncated_bytes = metrics.counter("wal.recovery_truncated_bytes");
      ins.torn_tail_recoveries = metrics.counter("wal.torn_tail_recoveries");
      ins.group_commit_bytes = metrics.histogram("wal.group_commit_size", 1.0, 1e8);
      log_volume.bind_instruments(ins);
      storage::Database::Instruments db_ins;
      db_ins.recoveries = ins.recoveries;
      db_ins.recovery_truncated_bytes = ins.recovery_truncated_bytes;
      db_ins.torn_tail_recoveries = ins.torn_tail_recoveries;
      database.bind_instruments(db_ins);
    }
    endpoint = network.add_endpoint(this->name, [this](sim::EndpointId from,
                                                       sim::MessagePtr msg) {
      route(from, std::move(msg));
    });
    // Pull probes over node-owned storage: read at snapshot time only, and
    // lifetime-safe because the registry and these objects die together.
    probes_.push_back(metrics.probe("disk.bytes_written", [this] {
      return static_cast<double>(disk.total_bytes_written());
    }));
    probes_.push_back(metrics.probe("disk.bytes_read", [this] {
      return static_cast<double>(disk.total_bytes_read());
    }));
    probes_.push_back(metrics.probe(
        "disk.syncs", [this] { return static_cast<double>(disk.total_syncs()); }));
    probes_.push_back(metrics.probe(
        "disk.reads", [this] { return static_cast<double>(disk.total_reads()); }));
    probes_.push_back(metrics.probe("disk.busy_usec", [this] {
      return static_cast<double>(disk.total_busy());
    }));
    // Real host only, so simulator registries stay slot-for-slot identical:
    // the syncer thread's CPU, which no loop-thread measure sees.
    if (storage::FileDisk* fd = file_disk(); fd != nullptr) {
      probes_.push_back(metrics.probe("disk.sync_cpu_usec", [fd] {
        return static_cast<double>(fd->total_sync_cpu());
      }));
    }
    probes_.push_back(metrics.probe("disk.stall_time_usec", [this] {
      return static_cast<double>(disk.total_stall_time());
    }));
    probes_.push_back(metrics.probe("disk.torn_syncs", [this] {
      return static_cast<double>(disk.total_torn_syncs());
    }));
    probes_.push_back(metrics.probe("log.appended_records", [this] {
      return static_cast<double>(log_volume.appended_records());
    }));
    probes_.push_back(metrics.probe("log.appended_bytes", [this] {
      return static_cast<double>(log_volume.appended_bytes());
    }));
    probes_.push_back(metrics.probe("log.retained_bytes", [this] {
      return static_cast<double>(log_volume.retained_bytes());
    }));
    probes_.push_back(metrics.probe("log.barrier_batches", [this] {
      return static_cast<double>(log_volume.barrier_batches());
    }));
    probes_.push_back(metrics.probe("disk.synced_bytes", [this] {
      return static_cast<double>(disk.total_synced_bytes());
    }));
    probes_.push_back(metrics.probe("disk.dropped_bytes", [this] {
      return static_cast<double>(disk.total_dropped_bytes());
    }));
    probes_.push_back(metrics.probe("wal.segments", [this] {
      return static_cast<double>(log_volume.wal().segment_count() +
                                 database.wal().segment_count());
    }));
    probes_.push_back(metrics.probe("wal.live_bytes", [this] {
      return static_cast<double>(log_volume.wal().live_bytes() +
                                 database.wal().live_bytes());
    }));
    probes_.push_back(metrics.probe("wal.gc_dropped_segments", [this] {
      return static_cast<double>(log_volume.wal().gc_dropped_segments() +
                                 database.wal().gc_dropped_segments());
    }));
    // Per-link wire accounting (Transport seam): what this node put on the
    // wire, what arrived, and how many frames the transport rejected as
    // corrupt (always 0 in struct mode and in clean codec runs).
    probes_.push_back(metrics.probe("net.tx_bytes", [this] {
      return static_cast<double>(this->network.sent_bytes_from(endpoint));
    }));
    probes_.push_back(metrics.probe("net.rx_bytes", [this] {
      return static_cast<double>(this->network.delivered_bytes_to(endpoint));
    }));
    probes_.push_back(metrics.probe("net.decode_rejects", [this] {
      return static_cast<double>(this->network.decode_rejects_at(endpoint));
    }));
    probes_.push_back(metrics.probe("net.frames_encoded", [this] {
      return static_cast<double>(this->network.frames_encoded_from(endpoint));
    }));
    probes_.push_back(metrics.probe("net.frames_decoded", [this] {
      return static_cast<double>(this->network.frames_decoded_at(endpoint));
    }));
  }

  NodeResources(const NodeResources&) = delete;
  NodeResources& operator=(const NodeResources&) = delete;

  /// Process crash: the network address goes dark, queued CPU work and all
  /// unsynced storage state are lost. Call before destroying the Broker.
  void crash() {
    GRYPHON_LOG(kWarn, name, "broker process crashed (volatile state lost)");
    metrics.counter("node.crashes")->inc();
    network.set_down(endpoint, true);
    cpu.clear();
    sim_disk().crash();
    log_volume.crash();
    database.crash();
    current_broker = nullptr;
  }

  /// Bring the address back up for a restarted broker (set current_broker
  /// first).
  void restart() {
    GRYPHON_LOG(kInfo, name, "broker restarted over surviving durable state");
    network.set_down(endpoint, false);
    sim_disk().restart();
  }

  /// Torn sync on the node's disk: dirty data under the in-flight barrier
  /// is lost but the process stays up; LogVolume/Database re-issue it.
  /// `entropy` seeds how much of the torn barrier's WAL bytes a crash that
  /// beats the retry would find on disk (a mid-frame tail, usually).
  void torn_sync(std::uint64_t entropy = 0) {
    GRYPHON_LOG(kWarn, name, "torn sync: in-flight disk barrier lost, retrying");
    log_volume.set_crash_entropy(entropy);
    database.set_crash_entropy(entropy >> 7);
    sim_disk().drop_unsynced();
    log_volume.on_torn_sync();
    database.on_torn_sync();
  }

  /// The simulator host's devices (crash, stall and torn-sync injection).
  [[nodiscard]] sim::Cpu& sim_cpu() {
    auto* c = dynamic_cast<sim::Cpu*>(&cpu);
    GRYPHON_CHECK_MSG(c != nullptr, name << " does not run on the simulator host");
    return *c;
  }
  [[nodiscard]] storage::SimDisk& sim_disk() {
    auto* d = dynamic_cast<storage::SimDisk*>(&disk);
    GRYPHON_CHECK_MSG(d != nullptr, name << " does not run on the simulator host");
    return *d;
  }
  /// The real host's disk, or nullptr under the simulator.
  [[nodiscard]] storage::FileDisk* file_disk() {
    return dynamic_cast<storage::FileDisk*>(&disk);
  }

  sim::Scheduler& sim;
  sim::Network& network;
  std::string name;
  /// Cumulative per-node instruments + recent-milestone ring; both survive
  /// broker process crashes (they are the node's external observability).
  MetricsRegistry metrics;
  Tracer tracer;
  sim::Executor& cpu;
  storage::Disk& disk;
  storage::LogVolume log_volume;
  storage::Database database;
  sim::EndpointId endpoint = 0;

  /// How persisted state names a peer endpoint (the PHB's and
  /// intermediates' child-filter keys). Simulator endpoint ids never
  /// change; a gryphon_broker process numbers its peers in hello order, so
  /// the real runtime names them by peer instead (net::BrokerProcess).
  std::function<std::string(sim::EndpointId)> peer_key = [](sim::EndpointId ep) {
    return std::to_string(ep);
  };

  /// The live broker process, or nullptr while crashed.
  Broker* current_broker = nullptr;

 private:
  void route(sim::EndpointId from, sim::MessagePtr msg);

  std::vector<MetricsRegistry::Probe> probes_;
};

}  // namespace gryphon::core
