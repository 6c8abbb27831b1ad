// FileDisk — the real runtime's Disk: held-open segment files and fdatasync
// group commit on a syncer thread.
//
// Every WAL segment of the node is a FileBackend file kept open for its
// lifetime; appends are pwrites. FileDisk observes those writes and keeps
// the node's dirty set: the segments written since the last barrier, plus
// whether a segment was created or dropped (a directory-entry change).
//
// write_and_sync() closes the dirty set into a barrier and hands it to the
// node's syncer thread. The syncer takes every barrier queued so far as one
// batch (group commit across LogVolume and Database), runs one fdatasync
// per distinct segment and one fsync of the directory when an entry
// changed, and then publishes the batch's last barrier id and writes the
// eventfd completion_fd(). The event loop watches that fd and calls
// run_completions(), which fires the completed barriers' callbacks in
// issue order on the loop thread. Callbacks never leave the loop thread;
// the syncer sees only fds and lengths.
//
// The durability ledger. After each batch the syncer records, per segment,
// the length its fdatasync covered and whether a directory fsync covered
// the segment's creation. power_loss() uses it to leave on disk exactly
// what a machine that lost its page cache at that instant would find.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"
#include "storage/disk.hpp"
#include "storage/storage_backend.hpp"

namespace gryphon::storage {

class FileDisk final : public Disk, private FileBackend::Observer {
 public:
  /// Read completions are scheduled on `scheduler`; barrier completions
  /// wait on completion_fd(), which the owner watches on the same thread.
  FileDisk(sim::Scheduler& scheduler, std::string name);
  ~FileDisk() override;

  /// A FileBackend under options.file_dir (a MemoryBackend when it is
  /// empty: nothing to sync, but barriers still round-trip the syncer).
  /// Every file backend of one FileDisk shares one directory.
  [[nodiscard]] std::unique_ptr<StorageBackend> make_backend(
      const StorageOptions& options, const std::string& prefix) override;

  /// Queues a barrier over everything written so far; `done` runs from
  /// run_completions() once the syncer's fdatasync calls returned.
  /// `bytes` (the modeled size) is ignored: the real dirty bytes count.
  void write_and_sync(std::size_t bytes, std::function<void()> done) override;

  /// Timing only (LogVolume::read already pread the bytes): `done` runs next loop turn.
  void read(std::size_t bytes, std::function<void()> done) override;

  /// Readable once the syncer completed a batch.
  [[nodiscard]] int completion_fd() const { return event_fd_; }

  /// Fires the callbacks of every completed barrier, in issue order. A
  /// failed fdatasync is fatal here: nothing it covered may be acked.
  void run_completions();

  /// Stops and joins the syncer. Completions still pending are dropped,
  /// never run. Idempotent; the destructor calls it. Call it before the
  /// node's backends close their files.
  void stop();

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::uint64_t total_bytes_written() const override {
    return bytes_written_;
  }
  [[nodiscard]] std::uint64_t total_synced_bytes() const override {
    return synced_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_dropped_bytes() const override { return 0; }
  [[nodiscard]] std::uint64_t total_bytes_read() const override { return bytes_read_; }
  [[nodiscard]] std::uint64_t total_syncs() const override {
    return syncs_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_reads() const override { return reads_; }
  [[nodiscard]] SimDuration total_busy() const override {
    return busy_ns_.load(std::memory_order_relaxed) / 1000;
  }
  /// CPU time of the syncer thread (kernel time inside fdatasync included).
  [[nodiscard]] SimDuration total_sync_cpu() const {
    return sync_cpu_ns_.load(std::memory_order_relaxed) / 1000;
  }

  /// Test hook — power loss now: stops the syncer, drops pending
  /// completions, truncates every segment this process wrote to the length
  /// its last completed fdatasync covered, and deletes segments whose
  /// directory entry no fsync covered. Dropped segments stay dropped. The
  /// disk accepts no further IO; destroy the node next.
  void power_loss();

  /// Test hook: the syncer waits `delay` before each batch, like a slow
  /// device, which widens the window a premature ack would fall into.
  void set_sync_delay(SimDuration delay);

 private:
  using Segment = FileBackend::Segment;

  struct Barrier {
    std::uint64_t id = 0;
    std::vector<std::pair<std::shared_ptr<Segment>, std::uint64_t>> files;  // length to cover
    std::vector<std::shared_ptr<Segment>> created;  // entries the dir fsync covers
    bool sync_dir = false;
    std::uint64_t bytes = 0;  // bytes written since the previous barrier
  };

  void on_write(const std::shared_ptr<Segment>& segment, std::size_t appended) override;
  void on_entry(const std::shared_ptr<Segment>& segment) override;
  void track(const std::shared_ptr<Segment>& segment);
  void syncer_main();
  /// Runs one batch's syscalls; returns the first error, empty if none.
  std::string sync_batch(const std::deque<Barrier>& batch);

  sim::Scheduler& scheduler_;
  std::string name_;
  std::string dir_;
  int dir_fd_ = -1;
  int event_fd_ = -1;
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);  // guards read completions

  // Loop thread only.
  std::vector<std::shared_ptr<Segment>> dirty_;
  std::vector<std::shared_ptr<Segment>> created_;
  bool dir_dirty_ = false;
  std::uint64_t dirty_bytes_ = 0;
  std::vector<std::weak_ptr<Segment>> tracked_;  // segments this process wrote
  std::deque<std::pair<std::uint64_t, std::function<void()>>> pending_;
  std::uint64_t next_id_ = 0;
  bool dead_ = false;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t reads_ = 0;

  // Shared with the syncer, under mu_.
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Barrier> queue_;
  std::uint64_t completed_id_ = 0;
  std::string error_;
  bool stop_ = false;
  bool frozen_ = false;  // power_loss(): the ledger no longer advances
  SimDuration sync_delay_ = 0;

  // Written by the syncer, read by probes.
  std::atomic<std::uint64_t> syncs_{0};
  std::atomic<std::uint64_t> synced_bytes_{0};
  std::atomic<std::int64_t> busy_ns_{0};
  std::atomic<std::int64_t> sync_cpu_ns_{0};

  std::thread syncer_;  // last: starts once everything above exists
};

}  // namespace gryphon::storage
