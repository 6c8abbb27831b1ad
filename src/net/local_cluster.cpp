#include "net/local_cluster.hpp"

#include <unistd.h>

#include <atomic>

#include "util/assert.hpp"

namespace gryphon::net {

LocalCluster::LocalCluster() {
  static std::atomic<int> clusters{0};
  dir_ = std::filesystem::temp_directory_path() /
         ("gryphon_cluster." + std::to_string(::getpid()) + "." +
          std::to_string(clusters.fetch_add(1)));
  std::filesystem::remove_all(dir_);
}

LocalCluster::~LocalCluster() {
  roles_.clear();
  std::filesystem::remove_all(dir_);
}

BrokerProcess& LocalCluster::start(ProcessOptions options, const std::string& parent) {
  if (!parent.empty()) options.parent_port = (*this)[parent].port();
  options.storage.file_dir = (dir_ / options.name).string();  // clients ignore it
  const auto [it, fresh] = roles_.try_emplace(options.name);
  GRYPHON_CHECK_MSG(fresh, "role '" << options.name << "' started twice");
  it->second.options = std::move(options);
  BrokerProcess& p = restart(it->first);
  it->second.options.listen_port = p.port();
  return p;
}

void LocalCluster::crash(const std::vector<std::string>& names) {
  // Every victim loses power before any is destroyed: a destructor waits
  // out its syncer's in-flight fdatasync, which must not let another
  // victim's syncer finish more of its own.
  for (const std::string& name : names) {
    BrokerProcess& p = (*this)[name];
    if (p.node() != nullptr) p.node()->file_disk()->power_loss();
  }
  for (const std::string& name : names) {
    rejects_crashed_ += rejects_of((*this)[name]);
    role(name).process.reset();
  }
}

BrokerProcess& LocalCluster::restart(const std::string& name) {
  Role& r = role(name);
  r.process.reset();
  r.process = std::make_unique<BrokerProcess>(loop_, r.options);
  return *r.process;
}

BrokerProcess& LocalCluster::operator[](const std::string& name) {
  Role& r = role(name);
  GRYPHON_CHECK_MSG(r.process != nullptr, "role '" << name << "' is not running");
  return *r.process;
}

std::uint64_t LocalCluster::frame_rejects() const {
  std::uint64_t total = rejects_crashed_;
  for (const auto& [name, r] : roles_) {
    if (r.process != nullptr) total += rejects_of(*r.process);
  }
  return total;
}

LocalCluster::Role& LocalCluster::role(const std::string& name) {
  auto it = roles_.find(name);
  GRYPHON_CHECK_MSG(it != roles_.end(), "no role '" << name << "'");
  return it->second;
}

std::uint64_t LocalCluster::rejects_of(BrokerProcess& p) {
  return p.reassembly_rejects() + p.network().decode_rejects();
}

}  // namespace gryphon::net
