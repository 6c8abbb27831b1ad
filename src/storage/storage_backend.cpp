#include "storage/storage_backend.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>

#include "util/assert.hpp"

namespace gryphon::storage {

// --- MemoryBackend -------------------------------------------------------

void MemoryBackend::create_segment(std::uint64_t seq) {
  const auto [it, inserted] = segs_.try_emplace(seq);
  GRYPHON_CHECK_MSG(inserted, "segment " << seq << " already exists");
  (void)it;
}

void MemoryBackend::append(std::uint64_t seq, std::span<const std::byte> bytes) {
  auto it = segs_.find(seq);
  GRYPHON_CHECK_MSG(it != segs_.end(), "append to unknown segment " << seq);
  it->second.insert(it->second.end(), bytes.begin(), bytes.end());
}

void MemoryBackend::truncate(std::uint64_t seq, std::size_t new_size) {
  auto it = segs_.find(seq);
  GRYPHON_CHECK_MSG(it != segs_.end(), "truncate of unknown segment " << seq);
  GRYPHON_CHECK(new_size <= it->second.size());
  it->second.resize(new_size);
}

void MemoryBackend::drop_segment(std::uint64_t seq) {
  GRYPHON_CHECK_MSG(segs_.erase(seq) == 1, "drop of unknown segment " << seq);
}

std::vector<std::uint64_t> MemoryBackend::segments() const {
  std::vector<std::uint64_t> out;
  out.reserve(segs_.size());
  for (const auto& [seq, bytes] : segs_) out.push_back(seq);
  return out;
}

std::size_t MemoryBackend::size(std::uint64_t seq) const {
  auto it = segs_.find(seq);
  GRYPHON_CHECK_MSG(it != segs_.end(), "size of unknown segment " << seq);
  return it->second.size();
}

std::span<const std::byte> MemoryBackend::read(std::uint64_t seq, std::uint64_t offset,
                                               std::size_t length) {
  auto it = segs_.find(seq);
  GRYPHON_CHECK_MSG(it != segs_.end(), "read of unknown segment " << seq);
  GRYPHON_CHECK(offset + length <= it->second.size());
  return std::span<const std::byte>(it->second).subspan(offset, length);
}

// --- FileBackend ---------------------------------------------------------

namespace {

std::string errno_text() { return std::strerror(errno); }

}  // namespace

FileBackend::Segment::~Segment() { ::close(fd); }

FileBackend::FileBackend(std::string dir, std::string prefix, Observer* observer)
    : dir_(std::move(dir)), prefix_(std::move(prefix)), observer_(observer) {
  std::filesystem::create_directories(dir_);
  const std::string head = prefix_ + "-";
  const std::string tail = ".wal";
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.compare(0, head.size(), head) != 0) continue;
    // Only the names path(seq) writes: junk, overflow and "007" fail here.
    std::uint64_t seq = 0;
    std::from_chars(name.data() + head.size(), name.data() + name.size(), seq);
    if (name != head + std::to_string(seq) + tail) continue;
    const int fd = ::open(path(seq).c_str(), O_RDWR | O_CLOEXEC);
    GRYPHON_CHECK_MSG(fd >= 0, "cannot open " << path(seq) << ": " << errno_text());
    auto seg = std::make_shared<Segment>(fd, path(seq));
    struct stat st {};
    GRYPHON_CHECK_MSG(::fstat(fd, &st) == 0, "cannot stat " << seg->path);
    seg->size = static_cast<std::uint64_t>(st.st_size);
    seg->synced = seg->size;  // it survived whatever came before
    seg->entry_synced = true;
    segs_.emplace(seq, std::move(seg));
  }
}

std::string FileBackend::path(std::uint64_t seq) const {
  return dir_ + "/" + prefix_ + "-" + std::to_string(seq) + ".wal";
}

const std::shared_ptr<FileBackend::Segment>& FileBackend::segment(
    std::uint64_t seq) const {
  auto it = segs_.find(seq);
  GRYPHON_CHECK_MSG(it != segs_.end(), "unknown segment " << path(seq));
  return it->second;
}

void FileBackend::create_segment(std::uint64_t seq) {
  GRYPHON_CHECK_MSG(!segs_.contains(seq), "segment " << seq << " already exists");
  const int fd = ::open(path(seq).c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  GRYPHON_CHECK_MSG(fd >= 0, "cannot create " << path(seq) << ": " << errno_text());
  auto& seg = segs_[seq] = std::make_shared<Segment>(fd, path(seq));
  if (observer_ != nullptr) observer_->on_entry(seg);
}

void FileBackend::append(std::uint64_t seq, std::span<const std::byte> bytes) {
  if (bytes.empty()) return;
  const auto& seg = segment(seq);
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::pwrite(seg->fd, bytes.data() + done, bytes.size() - done,
                               static_cast<off_t>(seg->size + done));
    if (n < 0 && errno == EINTR) continue;
    GRYPHON_CHECK_MSG(n > 0, "write to " << seg->path << " failed: " << errno_text());
    done += static_cast<std::size_t>(n);
  }
  seg->size += bytes.size();
  if (observer_ != nullptr) observer_->on_write(seg, bytes.size());
}

void FileBackend::truncate(std::uint64_t seq, std::size_t new_size) {
  const auto& seg = segment(seq);
  GRYPHON_CHECK(new_size <= seg->size);
  GRYPHON_CHECK_MSG(::ftruncate(seg->fd, static_cast<off_t>(new_size)) == 0,
                    "cannot truncate " << seg->path << ": " << errno_text());
  seg->size = new_size;
  if (seg->synced > new_size) seg->synced = new_size;
  if (observer_ != nullptr) observer_->on_write(seg, 0);
}

void FileBackend::drop_segment(std::uint64_t seq) {
  auto it = segs_.find(seq);
  GRYPHON_CHECK_MSG(it != segs_.end(), "drop of unknown segment file " << path(seq));
  GRYPHON_CHECK_MSG(::unlink(it->second->path.c_str()) == 0,
                    "cannot remove " << it->second->path << ": " << errno_text());
  it->second->dropped = true;
  if (observer_ != nullptr) observer_->on_entry(it->second);
  segs_.erase(it);
}

std::vector<std::uint64_t> FileBackend::segments() const {
  std::vector<std::uint64_t> out;
  out.reserve(segs_.size());
  for (const auto& [seq, seg] : segs_) out.push_back(seq);
  return out;
}

std::size_t FileBackend::size(std::uint64_t seq) const {
  return static_cast<std::size_t>(segment(seq)->size);
}

std::span<const std::byte> FileBackend::read(std::uint64_t seq, std::uint64_t offset,
                                             std::size_t length) {
  const auto& seg = segment(seq);
  GRYPHON_CHECK(offset + length <= seg->size);
  scratch_.resize(length);
  std::size_t done = 0;
  while (done < length) {
    const ssize_t n = ::pread(seg->fd, scratch_.data() + done, length - done,
                              static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    GRYPHON_CHECK_MSG(n > 0, "short read from " << seg->path);
    done += static_cast<std::size_t>(n);
  }
  return scratch_;
}

std::unique_ptr<StorageBackend> make_backend(const StorageOptions& options,
                                             const std::string& prefix) {
  if (options.file_dir.empty()) return std::make_unique<MemoryBackend>();
  return std::make_unique<FileBackend>(options.file_dir, prefix);
}

std::uint32_t stable_node_id(std::string_view name) {
  std::uint32_t h = 2166136261u;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

}  // namespace gryphon::storage
