// Disk — the durable-device seam under LogVolume and Database.
//
// A Disk does two jobs for its node: it supplies the StorageBackends the
// WALs write their segment bytes into, and it runs write barriers
// (write_and_sync) whose completion means those bytes are durable. Two
// implementations:
//
//  * `SimDisk` (sim_disk.hpp): the timing model. Barriers complete after a
//    modeled latency on the scheduler; backends are in memory, or plain
//    files when StorageOptions::file_dir is set.
//  * `FileDisk` (file_disk.hpp): the real runtime. Backends are held-open
//    segment files, and a barrier completes once a syncer thread's
//    fdatasync of every dirty segment has returned.
//
// Completions fire on the scheduler's thread, in barrier issue order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "storage/storage_backend.hpp"
#include "util/time.hpp"

namespace gryphon::storage {

/// The simulator's device model (SimDisk); a real disk has none.
struct DiskConfig {
  SimDuration sync_latency = msec(4);
  double write_bandwidth_bytes_per_sec = 40e6;
  double read_bandwidth_bytes_per_sec = 60e6;
  SimDuration read_seek_latency = msec(6);
};

class Disk {
 public:
  Disk() = default;
  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;
  virtual ~Disk() = default;

  /// A backend for one WAL; `prefix` namespaces its segments on the device.
  [[nodiscard]] virtual std::unique_ptr<StorageBackend> make_backend(
      const StorageOptions& options, const std::string& prefix) = 0;

  /// Write barrier: `done` fires once every byte the node's backends hold
  /// is durable. `bytes` is the modeled dirty size (timing model input).
  virtual void write_and_sync(std::size_t bytes, std::function<void()> done) = 0;

  /// Reads `bytes`; `done` fires, never inside this call, with the data
  /// "in memory".
  virtual void read(std::size_t bytes, std::function<void()> done) = 0;

  /// The timing model, or nullptr for a real device.
  [[nodiscard]] virtual const DiskConfig* model() const { return nullptr; }

  [[nodiscard]] virtual const std::string& name() const = 0;
  [[nodiscard]] virtual std::uint64_t total_bytes_written() const = 0;
  /// Bytes whose covering barrier completed / was lost before completing.
  [[nodiscard]] virtual std::uint64_t total_synced_bytes() const = 0;
  [[nodiscard]] virtual std::uint64_t total_dropped_bytes() const = 0;
  [[nodiscard]] virtual std::uint64_t total_bytes_read() const = 0;
  /// Barriers (model) or fdatasync/fsync calls (real device).
  [[nodiscard]] virtual std::uint64_t total_syncs() const = 0;
  [[nodiscard]] virtual std::uint64_t total_reads() const = 0;
  /// Device busy time: modeled occupancy, or wall time inside fdatasync.
  [[nodiscard]] virtual SimDuration total_busy() const = 0;
  [[nodiscard]] virtual SimDuration total_stall_time() const { return 0; }
  [[nodiscard]] virtual std::uint64_t total_torn_syncs() const { return 0; }
};

}  // namespace gryphon::storage
