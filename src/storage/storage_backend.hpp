// StorageBackend — where WAL segment bytes actually live.
//
// The node's Disk decides *when* bytes are durable (barriers); a
// StorageBackend holds the bytes: ordered append-only segments, the only
// copy of every logged record, read whole by the recovery scan and record
// by record by LogVolume (DESIGN.md §4.4).
//
//  * MemoryBackend (default): segments are std::vector<std::byte> — tier-1
//    tests stay hermetic and deterministic, no filesystem involved.
//  * FileBackend (behind StorageOptions::file_dir, and always under the
//    real runtime's FileDisk): segments are real "<prefix>-<seq>.wal" files
//    held open for the backend's lifetime, written with pwrite and read
//    with pread, so every byte genuinely round-trips through the OS. Used
//    by bench_recovery_fuzz --wal-dir and by gryphon_broker.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace gryphon::storage {

struct StorageOptions {
  /// Roll the active segment once it reaches this many bytes.
  std::size_t segment_bytes = 256 * 1024;
  /// Snapshot-compact the Database WAL once its live bytes exceed this.
  std::size_t db_compact_bytes = 1u << 20;
  /// When non-empty, WAL segments are real files under this directory
  /// (created if missing) instead of in-memory vectors.
  std::string file_dir;
};

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  virtual void create_segment(std::uint64_t seq) = 0;
  virtual void append(std::uint64_t seq, std::span<const std::byte> bytes) = 0;
  /// Discards everything past `new_size` (torn-tail truncation).
  virtual void truncate(std::uint64_t seq, std::size_t new_size) = 0;
  virtual void drop_segment(std::uint64_t seq) = 0;

  /// Segment sequence numbers in ascending order (the recovery scan order).
  [[nodiscard]] virtual std::vector<std::uint64_t> segments() const = 0;
  [[nodiscard]] virtual std::size_t size(std::uint64_t seq) const = 0;
  /// `length` bytes at `offset` of segment `seq`. The view is valid until
  /// the next call into this backend.
  [[nodiscard]] virtual std::span<const std::byte> read(std::uint64_t seq,
                                                        std::uint64_t offset,
                                                        std::size_t length) = 0;
};

class MemoryBackend final : public StorageBackend {
 public:
  void create_segment(std::uint64_t seq) override;
  void append(std::uint64_t seq, std::span<const std::byte> bytes) override;
  void truncate(std::uint64_t seq, std::size_t new_size) override;
  void drop_segment(std::uint64_t seq) override;
  [[nodiscard]] std::vector<std::uint64_t> segments() const override;
  [[nodiscard]] std::size_t size(std::uint64_t seq) const override;
  /// A view into the segment's vector: no copy.
  [[nodiscard]] std::span<const std::byte> read(std::uint64_t seq, std::uint64_t offset,
                                                std::size_t length) override;

 private:
  std::map<std::uint64_t, std::vector<std::byte>> segs_;
};

class FileBackend final : public StorageBackend {
 public:
  /// One open segment file. Shared, so a sync in flight on another thread
  /// keeps the fd open after the backend drops the segment or dies.
  struct Segment {
    Segment(int fd, std::string path) : fd(fd), path(std::move(path)) {}
    Segment(const Segment&) = delete;
    Segment& operator=(const Segment&) = delete;
    ~Segment();  // closes fd

    const int fd;
    const std::string path;
    std::uint64_t size = 0;  // bytes in the file
    bool dropped = false;    // unlinked by drop_segment
    // FileDisk bookkeeping, owned by its loop thread.
    bool dirty = false;
    bool tracked = false;
    // Durability ledger, advanced by FileDisk's syncer thread: the length
    // a completed fdatasync covers, and whether a directory fsync covered
    // the file's creation. Files adopted from disk start fully durable.
    std::atomic<std::uint64_t> synced{0};
    std::atomic<bool> entry_synced{false};
  };

  /// Learns what the next barrier must cover (FileDisk's dirty set).
  class Observer {
   public:
    virtual ~Observer() = default;
    /// Bytes of `segment` changed: `appended` bytes written, or a truncate.
    virtual void on_write(const std::shared_ptr<Segment>& segment,
                          std::size_t appended) = 0;
    /// `segment` was created or dropped: its directory entry changed.
    virtual void on_entry(const std::shared_ptr<Segment>& segment) = 0;
  };

  /// Segments live at `<dir>/<prefix>-<seq>.wal`; `dir` is created if
  /// missing. Pre-existing files for `prefix` are opened and adopted
  /// (recovery). `observer`, if set, must outlive the backend.
  FileBackend(std::string dir, std::string prefix, Observer* observer = nullptr);

  void create_segment(std::uint64_t seq) override;
  void append(std::uint64_t seq, std::span<const std::byte> bytes) override;
  void truncate(std::uint64_t seq, std::size_t new_size) override;
  void drop_segment(std::uint64_t seq) override;
  [[nodiscard]] std::vector<std::uint64_t> segments() const override;
  [[nodiscard]] std::size_t size(std::uint64_t seq) const override;
  /// A synchronous pread into a scratch buffer on the calling thread.
  [[nodiscard]] std::span<const std::byte> read(std::uint64_t seq, std::uint64_t offset,
                                                std::size_t length) override;

 private:
  [[nodiscard]] std::string path(std::uint64_t seq) const;
  [[nodiscard]] const std::shared_ptr<Segment>& segment(std::uint64_t seq) const;

  std::string dir_;
  std::string prefix_;
  Observer* observer_;
  std::map<std::uint64_t, std::shared_ptr<Segment>> segs_;
  std::vector<std::byte> scratch_;  // holds the bytes of the last read()
};

/// Builds the backend `options` asks for; `prefix` namespaces one WAL's
/// files within a shared directory (e.g. "phb-log", "shb0-db").
std::unique_ptr<StorageBackend> make_backend(const StorageOptions& options,
                                             const std::string& prefix);

/// Deterministic 32-bit FNV-1a of a node name — the node id stamped into
/// segment headers (self-describing files, stable across runs/platforms).
[[nodiscard]] std::uint32_t stable_node_id(std::string_view name);

}  // namespace gryphon::storage
