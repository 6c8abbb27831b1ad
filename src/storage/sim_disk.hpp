// Simulated durable disk (SSA-drive stand-in).
//
// Only timing, byte accounting and crash semantics live here; the *contents*
// being persisted are managed by the clients (LogVolume, Database), which
// keep a pending/durable split and advance it when a sync completes.
//
// Timing model: a sync covering `bytes` of dirty data completes at
//   max(now, disk_free) + bytes/bandwidth + sync_latency
// and the disk is busy until then, so concurrent syncs serialize (one
// spindle). `sync_latency` is the fixed cost of a forced write barrier; a
// battery-backed write cache (the §5.2 JMS configuration) is modeled by
// configuring a much smaller sync_latency.
//
// Crash semantics: crash() drops every outstanding completion callback —
// whatever the client had not yet been told is durable must be discarded by
// the client's own crash() handler. A crashed disk rejects new IO until
// restart() (a dead broker must not issue requests); NodeResources::restart
// brings the device back together with the node.
//
// Fault injection:
//  * inject_stall(d) freezes the spindle for `d` — every request issued
//    during or after the stall (and any whose start the stall overtakes)
//    completes at least `d` later. Models firmware hiccups / RAID battery
//    relearn cycles.
//  * drop_unsynced() silently discards every outstanding write completion
//    without taking the device down (torn sync / lost write). Clients must
//    be told via their own torn-sync handlers so they re-issue the lost
//    barriers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/scheduler.hpp"
#include "storage/disk.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"

namespace gryphon::storage {

class SimDisk final : public Disk {
 public:
  SimDisk(sim::Scheduler& scheduler, std::string name, DiskConfig config = {});

  /// In-memory segments, or plain files under options.file_dir.
  [[nodiscard]] std::unique_ptr<StorageBackend> make_backend(
      const StorageOptions& options, const std::string& prefix) override {
    return storage::make_backend(options, prefix);
  }

  /// Schedules a write barrier for `bytes` of dirty data; `done` fires when
  /// the data is durable. Callbacks fire in issue order (one spindle).
  void write_and_sync(std::size_t bytes, std::function<void()> done) override;

  /// Schedules a read of `bytes` (one seek + sequential transfer, sharing
  /// the spindle with writes); `done` fires with the data "in memory".
  void read(std::size_t bytes, std::function<void()> done) override;

  [[nodiscard]] const DiskConfig* model() const override { return &config_; }

  /// Drops all outstanding completions (power loss) and marks the device
  /// crashed: further IO is an invariant violation until restart().
  void crash();

  /// Brings a crashed device back. Idempotent.
  void restart();

  [[nodiscard]] bool is_crashed() const { return crashed_; }

  /// Freezes the spindle for `duration`: outstanding and subsequent
  /// requests complete at least `duration` later. Legal while crashed (the
  /// device is simply still cold when it comes back).
  void inject_stall(SimDuration duration);

  /// Arms a seeded read-fault window: each of the next `count` read() calls
  /// eats a deterministic extra penalty drawn from [penalty_lo, penalty_hi]
  /// (a retried-sector / media-error stall on the read path — the data still
  /// arrives, late). Deterministic in (seed, read order); re-arming replaces
  /// any remaining budget. Chaos arms these across catchup windows, where
  /// PFS batch reads are the disk's hot read path.
  void arm_read_faults(int count, std::uint64_t seed, SimDuration penalty_lo,
                       SimDuration penalty_hi);

  /// Disarms any remaining read-fault budget.
  void clear_read_faults();

  /// Reads that actually drew a fault penalty (fired-at-least-once guards).
  [[nodiscard]] std::uint64_t read_faults_injected() const { return read_faults_; }

  /// Torn sync: every outstanding *write* completion is silently lost, but
  /// the device stays up (in-flight reads still complete). The client-side
  /// dirty data those completions covered is gone from the write path;
  /// clients re-issue via their torn-sync handlers
  /// (LogVolume/Database::on_torn_sync).
  void drop_unsynced();

  [[nodiscard]] std::uint64_t total_bytes_written() const override { return bytes_written_; }
  /// Dirty bytes whose covering barrier actually completed, vs. bytes whose
  /// barrier was lost to a crash or torn sync before acking. Counted when
  /// the (simulated) completion fires, so `written == synced + dropped +
  /// in-flight` at any instant.
  [[nodiscard]] std::uint64_t total_synced_bytes() const override { return bytes_synced_; }
  [[nodiscard]] std::uint64_t total_dropped_bytes() const override { return bytes_dropped_; }
  [[nodiscard]] std::uint64_t total_bytes_read() const override { return bytes_read_; }
  [[nodiscard]] std::uint64_t total_syncs() const override { return syncs_; }
  [[nodiscard]] std::uint64_t total_reads() const override { return reads_; }
  [[nodiscard]] SimDuration total_busy() const override { return busy_; }
  [[nodiscard]] std::uint64_t total_stalls() const { return stalls_; }
  /// Cumulative injected stall time (sum of inject_stall durations).
  [[nodiscard]] SimDuration total_stall_time() const override { return stall_time_; }
  [[nodiscard]] std::uint64_t total_torn_syncs() const override { return dropped_syncs_; }
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const DiskConfig& config() const { return config_; }

 private:
  /// Seeded penalty for the read fault just consumed from the window.
  [[nodiscard]] SimDuration draw_read_fault_penalty();

  sim::Scheduler& sim_;
  std::string name_;
  DiskConfig config_;
  SimTime free_at_ = 0;
  bool crashed_ = false;
  std::uint64_t generation_ = 0;   // bumped by crash(): drops all completions
  std::uint64_t sync_epoch_ = 0;   // bumped by drop_unsynced(): writes only
  std::uint64_t stalls_ = 0;
  SimDuration stall_time_ = 0;
  int read_fault_remaining_ = 0;
  std::uint64_t read_fault_seed_ = 0;
  std::uint64_t read_fault_drawn_ = 0;
  SimDuration read_fault_lo_ = 0;
  SimDuration read_fault_hi_ = 0;
  std::uint64_t read_faults_ = 0;
  std::uint64_t dropped_syncs_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bytes_synced_ = 0;
  std::uint64_t bytes_dropped_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t reads_ = 0;
  SimDuration busy_ = 0;
};

}  // namespace gryphon::storage
