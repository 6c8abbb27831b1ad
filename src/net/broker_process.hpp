// BrokerProcess — one gryphon process hosting a single role over TCP.
//
// This is the composition root of the stand-alone runtime: it owns the
// process's SocketNetwork (driven by the EventLoop scheduler instead of
// the Simulator) and hosts exactly one role — a PHB / intermediate / SHB
// broker, or a publisher / durable-subscriber client driver.
//
// Host. A broker's NodeResources runs on the real host: an InlineExecutor
// (handlers run FIFO on the event loop, no cost model) and a FileDisk
// (held-open segment files under the WAL directory, every barrier a real
// fdatasync on the node's syncer thread). The process watches the disk's
// completion eventfd on the loop, so an ack leaves only after the fdatasync
// covering its event returned.
//
// Topology model. The SocketNetwork holds the role's endpoint plus one
// endpoint per remote peer, named after the peer. send() codec-encodes an
// outbound message and writes it to the peer's Connection; the
// connection's read callback hands each inbound frame to deliver(), which
// decodes it (corruption counts a decode reject, exactly as in the
// simulation) and calls the role. Brokers still queue their handlers
// through the InlineExecutor; client handlers run inline. The broker and
// client state machines are byte-for-byte the code the simulator runs; no
// EndpointId ever crosses the wire, so per-process endpoint numbering is
// free to differ on every host.
//
// Handshake. The dialer opens with one text line `GRYHELLO <name> <role>`;
// the acceptor answers `GRYREADY` only once its own role has started, and
// queues READY ahead of any frames on that connection. Boot therefore
// settles root-first: the PHB starts once all expected broker children
// have said hello; an intermediate needs its parent's READY plus its own
// children; an SHB needs only its parent; clients drive traffic only after
// their hosting broker's READY. The role's sends go out on a connection
// only once READY has been sent (acceptor) or received (dialer); until
// then they are dropped. Restarted peers re-hello under the same name and
// are re-attached to their existing peer endpoint.
//
// Restart. When the WAL directory already holds segments from a previous
// incarnation, the process adopts them (LogVolume/Database::adopt — a
// replay of what the segment files hold, *not* a truncation to this
// process's watermarks) and boots the broker through its recover() path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/intermediate.hpp"
#include "core/node_resources.hpp"
#include "core/phb.hpp"
#include "core/publisher_client.hpp"
#include "core/shb.hpp"
#include "core/subscriber_client.hpp"
#include "net/event_loop.hpp"
#include "net/socket_network.hpp"
#include "net/tcp.hpp"
#include "storage/storage_backend.hpp"
#include "util/logging.hpp"

namespace gryphon::net {

struct ProcessOptions {
  std::string name;  // unique across the topology; a re-hello reattaches by it
  std::string role;  // "phb" | "imb" | "shb" | "pub" | "sub"

  // Brokers listen; everyone except the PHB dials a parent.
  std::uint16_t listen_port = 0;  // 0 = ephemeral (read back via port())
  std::string parent_host = "127.0.0.1";
  std::uint16_t parent_port = 0;
  int expected_children = 0;  // broker children to await before starting

  int num_pubends = 4;
  core::BrokerConfig broker{};
  storage::StorageOptions storage{};  // file_dir set => WAL segment files
  int shb_db_connections = 1;
  wire::CodecTransport::Options codec{};

  // Client-role knobs.
  std::uint32_t client_id = 1;
  std::string predicate = "g >= 0";       // sub: selector (default matches all)
  std::uint64_t publish_count = 0;        // pub: stop after this many (0 = forever)
  SimDuration publish_interval = msec(2); // pub: inter-publish gap
  int publish_burst = 1;                  // pub: events per pump tick (throughput)
  std::size_t payload_bytes = 64;
  int groups = 4;                         // event factory: g = seq % groups
  std::uint64_t expect_events = 0;        // sub: done at this count (0 = run until stopped)
  core::SubscriberObserver* observer = nullptr;  // sub: sees every delivery (tests)
};

class BrokerProcess {
 public:
  BrokerProcess(EventLoop& loop, ProcessOptions options);
  ~BrokerProcess();
  BrokerProcess(const BrokerProcess&) = delete;
  BrokerProcess& operator=(const BrokerProcess&) = delete;

  /// The actual listening port (resolves listen_port 0). 0 for clients.
  [[nodiscard]] std::uint16_t port() const;

  /// The role has booted (brokers: start()/recover() ran; clients: the
  /// hosting broker sent READY and traffic is flowing).
  [[nodiscard]] bool started() const { return started_; }

  /// Client roles: the configured workload completed (publisher fully
  /// acked / subscriber reached expect_events). Always false for brokers.
  [[nodiscard]] bool done() const { return done_; }

  /// This process booted over pre-existing WAL segments.
  [[nodiscard]] bool adopted() const { return adopted_; }

  /// One-line JSON summary of the process's counters (result files).
  [[nodiscard]] std::string result_json() const;

  // Role accessors (null unless hosting that role).
  [[nodiscard]] core::Publisher* publisher() { return publisher_.get(); }
  [[nodiscard]] core::DurableSubscriber* subscriber() { return subscriber_.get(); }
  [[nodiscard]] core::SubscriberHostingBroker* shb() { return shb_.get(); }
  [[nodiscard]] core::PublisherHostingBroker* phb() { return phb_.get(); }
  [[nodiscard]] core::IntermediateBroker* imb() { return imb_.get(); }
  [[nodiscard]] sim::Network& network() { return net_; }
  [[nodiscard]] core::NodeResources* node() { return node_.get(); }

  /// Frame-reassembly rejects across all peer connections, living and dead.
  [[nodiscard]] std::uint64_t reassembly_rejects() const;

 private:
  struct Peer {
    std::string role;
    sim::EndpointId endpoint = 0;
    std::unique_ptr<Connection> conn;
    bool ready_sent = false;  // acceptor side: READY already queued on conn
  };

  [[nodiscard]] bool is_broker() const;
  [[nodiscard]] bool is_client() const;
  [[nodiscard]] sim::EndpointId local_endpoint() const;

  void setup_listener();
  void dial_parent();
  void adopt_socket(int fd);
  void on_hello(std::unique_ptr<Connection> conn, const std::string& line);
  /// Attaches a live connection to `name`'s peer slot, creating its
  /// endpoint on first sight.
  Peer& attach_peer(const std::string& name, const std::string& role,
                    std::unique_ptr<Connection> conn);
  void wire_frame_sink(sim::EndpointId peer, Connection& conn);
  /// Drops a peer's dead connection; its sends fail until it reattaches.
  void detach(Peer& peer);
  void on_peer_closed(const std::string& name, const std::string& reason);
  void on_parent_ready();
  void maybe_start();
  void start_role();
  void start_client();
  void pump_publisher();
  void send_ready(Peer& peer);
  void check_client_done();
  /// Runs `step` after `delay` unless this process died first.
  void after(SimDuration delay, void (BrokerProcess::*step)());

  EventLoop& loop_;
  /// Stamps log entries with the loop's wall-clock time (seconds since the
  /// loop started) while this process lives.
  Logger::ScopedClock log_clock_;
  ProcessOptions options_;
  SocketNetwork net_;  // outlives the roles and connections declared below
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);

  std::unique_ptr<TcpListener> listener_;
  // Accepted connections that have not said hello yet (owned here until the
  // preamble names them).
  std::vector<std::unique_ptr<Connection>> pending_;
  std::map<std::string, Peer> peers_;
  std::uint64_t rejects_closed_ = 0;  // reassembly rejects of dead connections

  // Parent link (dialer side): the peer "__parent" in peers_.
  bool parent_dial_started_ = false;  // first dial issued (redials reuse it)
  bool parent_ready_ = false;
  int children_seen_ = 0;

  bool adopted_ = false;
  bool started_ = false;
  bool done_ = false;

  // Broker roles.
  std::unique_ptr<core::NodeResources> node_;
  std::unique_ptr<core::PublisherHostingBroker> phb_;
  std::unique_ptr<core::IntermediateBroker> imb_;
  std::unique_ptr<core::SubscriberHostingBroker> shb_;

  // Client roles.
  core::Publisher::EventFactory event_factory_;
  std::unique_ptr<core::Publisher> publisher_;
  std::unique_ptr<core::DurableSubscriber> subscriber_;
};

}  // namespace gryphon::net
