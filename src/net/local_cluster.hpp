// LocalCluster — a whole broker topology in one process, on one EventLoop.
//
// Each role is a BrokerProcess under its own name, wired to the others over
// loopback TCP exactly as separate gryphon_broker processes would be. The
// cluster owns the loop, a fresh temp directory with one WAL subdirectory
// per broker (<dir>/<name>), and the roles with the ProcessOptions each was
// started with. start() fills in parent_port from the named parent and
// storage.file_dir (only brokers read it), then pins listen_port to the
// port the role bound, so a restarted broker comes back where its peers
// redial. crash() cuts the power of every named role (FileDisk::
// power_loss()) and then destroys them, with no loop iteration in between;
// restart() rebuilds a role from its saved options over whatever its WAL
// kept. Destruction tears the roles down with the loop stopped, then
// removes the directory.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/broker_process.hpp"
#include "net/event_loop.hpp"

namespace gryphon::net {

class LocalCluster {
 public:
  LocalCluster();
  ~LocalCluster();
  LocalCluster(const LocalCluster&) = delete;
  LocalCluster& operator=(const LocalCluster&) = delete;

  [[nodiscard]] EventLoop& loop() { return loop_; }

  /// Starts a new role named `options.name`. A non-empty `parent` names an
  /// already-started broker whose port the role dials.
  BrokerProcess& start(ProcessOptions options, const std::string& parent = {});

  /// Cuts the power of every named role at once, then destroys them;
  /// references to them dangle.
  void crash(const std::vector<std::string>& names);
  void crash(const std::string& name) { crash(std::vector<std::string>{name}); }

  /// Rebuilds the role from the options it was started with (destroying a
  /// still-running incarnation first).
  BrokerProcess& restart(const std::string& name);

  /// The live role named `name`.
  [[nodiscard]] BrokerProcess& operator[](const std::string& name);

  /// Frame rejects (reassembly plus decode) over every role, counting the
  /// incarnations that crash() destroyed.
  [[nodiscard]] std::uint64_t frame_rejects() const;

 private:
  struct Role {
    ProcessOptions options;
    std::unique_ptr<BrokerProcess> process;
  };

  Role& role(const std::string& name);
  static std::uint64_t rejects_of(BrokerProcess& p);

  std::filesystem::path dir_;
  EventLoop loop_;
  std::map<std::string, Role> roles_;
  std::uint64_t rejects_crashed_ = 0;
};

}  // namespace gryphon::net
