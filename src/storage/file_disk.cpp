#include "storage/file_disk.hpp"

#include <fcntl.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/assert.hpp"

namespace gryphon::storage {

FileDisk::FileDisk(sim::Scheduler& scheduler, std::string name)
    : scheduler_(scheduler), name_(std::move(name)) {
  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  GRYPHON_CHECK_MSG(event_fd_ >= 0, "eventfd: " << std::strerror(errno));
  syncer_ = std::thread([this] { syncer_main(); });
}

FileDisk::~FileDisk() {
  stop();
  ::close(event_fd_);
  if (dir_fd_ >= 0) ::close(dir_fd_);
}

void FileDisk::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_one();
  if (syncer_.joinable()) syncer_.join();
  pending_.clear();
}

std::unique_ptr<StorageBackend> FileDisk::make_backend(const StorageOptions& options,
                                                       const std::string& prefix) {
  if (options.file_dir.empty()) return std::make_unique<MemoryBackend>();
  auto backend = std::make_unique<FileBackend>(options.file_dir, prefix,
                                               static_cast<FileBackend::Observer*>(this));
  if (dir_fd_ < 0) {
    dir_ = options.file_dir;
    dir_fd_ = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    GRYPHON_CHECK_MSG(dir_fd_ >= 0, "cannot open " << dir_ << ": " << std::strerror(errno));
  }
  GRYPHON_CHECK_MSG(dir_ == options.file_dir,
                    name_ << ": WALs in two directories (" << dir_ << ", "
                          << options.file_dir << ")");
  return backend;
}

void FileDisk::on_write(const std::shared_ptr<Segment>& segment, std::size_t appended) {
  if (!segment->dirty) {
    segment->dirty = true;
    dirty_.push_back(segment);
  }
  dirty_bytes_ += appended;
  bytes_written_ += appended;
  track(segment);
}

void FileDisk::on_entry(const std::shared_ptr<Segment>& segment) {
  dir_dirty_ = true;
  if (!segment->dropped) created_.push_back(segment);
  track(segment);
}

void FileDisk::track(const std::shared_ptr<Segment>& segment) {
  if (segment->tracked) return;
  segment->tracked = true;
  if (tracked_.size() >= 64) {
    std::erase_if(tracked_, [](const auto& w) { return w.expired(); });
  }
  tracked_.push_back(segment);
}

void FileDisk::write_and_sync(std::size_t /*bytes*/, std::function<void()> done) {
  GRYPHON_CHECK(done != nullptr);
  GRYPHON_CHECK_MSG(!dead_, "write_and_sync on " << name_ << " after power loss");
  Barrier b;
  b.id = ++next_id_;
  b.files.reserve(dirty_.size());
  for (auto& seg : dirty_) {
    seg->dirty = false;
    const std::uint64_t length = seg->size;
    b.files.emplace_back(std::move(seg), length);
  }
  dirty_.clear();
  b.created = std::move(created_);
  created_.clear();
  b.sync_dir = std::exchange(dir_dirty_, false);
  b.bytes = std::exchange(dirty_bytes_, 0);
  pending_.emplace_back(b.id, std::move(done));
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(b));
  }
  cv_.notify_one();
}

void FileDisk::read(std::size_t bytes, std::function<void()> done) {
  GRYPHON_CHECK(done != nullptr);
  GRYPHON_CHECK_MSG(!dead_, "read on " << name_ << " after power loss");
  ++reads_;
  bytes_read_ += bytes;
  scheduler_.schedule_after(
      0, [alive = std::weak_ptr<int>(alive_), done = std::move(done)] {
        if (alive.lock()) done();
      });
}

void FileDisk::run_completions() {
  std::uint64_t token = 0;
  while (::read(event_fd_, &token, sizeof token) < 0 && errno == EINTR) {
  }
  std::uint64_t completed = 0;
  std::string error;
  {
    std::lock_guard<std::mutex> lock(mu_);
    completed = completed_id_;
    error = error_;
  }
  GRYPHON_CHECK_MSG(error.empty(), name_ << ": " << error);
  while (!pending_.empty() && pending_.front().first <= completed) {
    std::function<void()> done = std::move(pending_.front().second);
    pending_.pop_front();
    done();
  }
}

void FileDisk::syncer_main() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    // Group commit: one batch covers every barrier queued so far.
    std::deque<Barrier> batch;
    batch.swap(queue_);
    const SimDuration delay = sync_delay_;
    lock.unlock();

    const std::int64_t cpu0 = thread_cpu_ns();
    if (delay > 0) std::this_thread::sleep_for(std::chrono::microseconds(delay));
    const auto t0 = std::chrono::steady_clock::now();
    const std::string error = sync_batch(batch);
    busy_ns_.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count(),
                       std::memory_order_relaxed);

    std::uint64_t bytes = 0;
    for (const Barrier& b : batch) bytes += b.bytes;
    lock.lock();
    if (!frozen_) {
      for (const Barrier& b : batch) {
        for (const auto& [seg, length] : b.files) {
          if (seg->synced.load(std::memory_order_relaxed) < length) seg->synced = length;
        }
        if (b.sync_dir) {
          for (const auto& seg : b.created) seg->entry_synced = true;
        }
      }
    }
    completed_id_ = batch.back().id;
    if (!error.empty() && error_.empty()) error_ = error;
    lock.unlock();
    synced_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    const std::uint64_t one = 1;
    while (::write(event_fd_, &one, sizeof one) < 0 && errno == EINTR) {
    }
    sync_cpu_ns_.fetch_add(thread_cpu_ns() - cpu0, std::memory_order_relaxed);
    batch.clear();  // may close the fds of dropped segments
    lock.lock();
  }
}

std::string FileDisk::sync_batch(const std::deque<Barrier>& batch) {
  std::vector<const Segment*> files;
  bool sync_dir = false;
  for (const Barrier& b : batch) {
    for (const auto& entry : b.files) {
      const Segment* seg = entry.first.get();
      if (std::find(files.begin(), files.end(), seg) == files.end()) files.push_back(seg);
    }
    sync_dir = sync_dir || b.sync_dir;
  }
  std::string error;
  for (const Segment* seg : files) {
    syncs_.fetch_add(1, std::memory_order_relaxed);
    if (::fdatasync(seg->fd) != 0 && error.empty()) {
      error = "fdatasync " + seg->path + ": " + std::strerror(errno);
    }
  }
  if (sync_dir) {
    syncs_.fetch_add(1, std::memory_order_relaxed);
    if (::fsync(dir_fd_) != 0 && error.empty()) {
      error = "fsync " + dir_ + ": " + std::strerror(errno);
    }
  }
  return error;
}

void FileDisk::power_loss() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    frozen_ = true;
  }
  stop();
  dead_ = true;
  for (const auto& weak : tracked_) {
    const std::shared_ptr<Segment> seg = weak.lock();
    if (seg == nullptr || seg->dropped) continue;
    if (!seg->entry_synced) {
      ::unlink(seg->path.c_str());
      continue;
    }
    GRYPHON_CHECK_MSG(::ftruncate(seg->fd, static_cast<off_t>(seg->synced.load())) == 0,
                      "cannot truncate " << seg->path << ": " << std::strerror(errno));
  }
}

void FileDisk::set_sync_delay(SimDuration delay) {
  std::lock_guard<std::mutex> lock(mu_);
  sync_delay_ = delay;
}

}  // namespace gryphon::storage
