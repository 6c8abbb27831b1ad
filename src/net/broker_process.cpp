#include "net/broker_process.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "core/messages.hpp"
#include "matching/event.hpp"
#include "net/inline_executor.hpp"
#include "storage/file_disk.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace gryphon::net {

namespace {

constexpr char kParent[] = "__parent";  // the peers_ slot of the upstream link
constexpr SimDuration kRedialDelay = msec(300);
constexpr SimDuration kClientPollInterval = msec(20);

bool wal_dir_populated(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec) &&
        entry.path().filename().string().ends_with(".wal")) {
      return true;
    }
  }
  return false;
}

core::Publisher::EventFactory make_event_factory(int groups,
                                                 std::size_t payload_bytes) {
  return [groups, payload_bytes](std::uint64_t seq) {
    matching::EventData::AttributeList attrs;
    attrs.reserve(2);
    attrs.emplace_back("g", matching::Value(static_cast<std::int64_t>(
                                seq % static_cast<std::uint64_t>(groups))));
    attrs.emplace_back("seq", matching::Value(static_cast<std::int64_t>(seq)));
    return std::make_shared<matching::EventData>(std::move(attrs), std::string{},
                                                 payload_bytes);
  };
}

}  // namespace

BrokerProcess::BrokerProcess(EventLoop& loop, ProcessOptions options)
    : loop_(loop),
      log_clock_([&loop] { return loop.elapsed(); }),
      options_(std::move(options)),
      net_(options_.codec) {
  GRYPHON_CHECK_MSG(is_broker() || is_client(),
                    "unknown role '" << options_.role << "'");

  if (is_broker()) {
    setup_listener();
    adopted_ = !options_.storage.file_dir.empty() &&
               wal_dir_populated(options_.storage.file_dir);
    node_ = std::make_unique<core::NodeResources>(
        loop_, net_, options_.name, std::make_unique<InlineExecutor>(loop_),
        std::make_unique<storage::FileDisk>(loop_, options_.name + ".disk"),
        options_.role == "shb" ? options_.shb_db_connections : 1, options_.storage);
    // Peer endpoints are numbered in hello order, which a restart need not
    // repeat; their names (the peers' own) are stable.
    node_->peer_key = [this](sim::EndpointId ep) { return net_.name_of(ep); };
    storage::FileDisk& disk = *node_->file_disk();
    loop_.watch_fd(disk.completion_fd(), /*want_read=*/true, /*want_write=*/false,
                   [&disk](std::uint32_t) { disk.run_completions(); });
    if (adopted_) {
      // A fresh process over a previous incarnation's WAL files: replay
      // what the segment files hold. (crash_and_recover would
      // truncate to *this* process's watermarks — zero — and wipe it.)
      node_->log_volume.adopt();
      node_->database.adopt();
    }
    std::vector<PubendId> pubends;
    pubends.reserve(static_cast<std::size_t>(options_.num_pubends));
    for (int i = 1; i <= options_.num_pubends; ++i) {
      pubends.emplace_back(static_cast<std::uint32_t>(i));
    }
    if (options_.role == "phb") {
      phb_ = std::make_unique<core::PublisherHostingBroker>(*node_, options_.broker,
                                                            pubends);
    } else if (options_.role == "imb") {
      imb_ = std::make_unique<core::IntermediateBroker>(*node_, options_.broker,
                                                        pubends);
    } else {
      shb_ = std::make_unique<core::SubscriberHostingBroker>(*node_, options_.broker,
                                                             pubends);
    }
  }

  sim::EndpointId parent = 0;
  if (options_.role != "phb") {
    GRYPHON_CHECK_MSG(options_.parent_port != 0,
                      options_.role << " requires a parent address");
    parent = net_.add_peer("parent");
    peers_[kParent] = Peer{"parent", parent, nullptr};
    // An intermediate holds its hello back until its own children are in:
    // the parent starts streaming the moment it sees a broker child's hello,
    // and stream data must never reach a broker that cannot start yet (its
    // children gate is still open). Dialing late makes READY -> start
    // atomic on this side. Roles without a children gate dial immediately.
    if (options_.role != "imb" || options_.expected_children == 0) dial_parent();
  }

  if (options_.role == "pub") {
    core::Publisher::Options po;
    po.id = PublisherId(options_.client_id);
    po.pubend = PubendId((options_.client_id - 1) %
                             static_cast<std::uint32_t>(options_.num_pubends) +
                         1);
    po.interval = core::Publisher::Options::kManualOnly;
    event_factory_ = make_event_factory(options_.groups, options_.payload_bytes);
    publisher_ = std::make_unique<core::Publisher>(loop_, net_, po, parent,
                                                   event_factory_);
  } else if (options_.role == "sub") {
    core::DurableSubscriber::Options so;
    so.id = SubscriberId(options_.client_id);
    so.predicate = options_.predicate;
    subscriber_ = std::make_unique<core::DurableSubscriber>(loop_, net_, so, parent,
                                                            options_.observer);
  }

  maybe_start();  // a PHB expecting zero children starts immediately
}

BrokerProcess::~BrokerProcess() {
  if (node_ != nullptr) {
    // The syncer stops before the node's WALs close their segment files,
    // and barriers it has not completed are dropped, not acked.
    storage::FileDisk& disk = *node_->file_disk();
    loop_.unwatch_fd(disk.completion_fd());
    disk.stop();
  }
}

void BrokerProcess::after(SimDuration delay, void (BrokerProcess::*step)()) {
  loop_.schedule_after(delay, [this, step, alive = std::weak_ptr<int>(alive_)] {
    if (!alive.expired()) (this->*step)();
  });
}

bool BrokerProcess::is_broker() const {
  return options_.role == "phb" || options_.role == "imb" || options_.role == "shb";
}

bool BrokerProcess::is_client() const {
  return options_.role == "pub" || options_.role == "sub";
}

sim::EndpointId BrokerProcess::local_endpoint() const {
  if (node_ != nullptr) return node_->endpoint;
  if (publisher_ != nullptr) return publisher_->endpoint();
  GRYPHON_CHECK(subscriber_ != nullptr);
  return subscriber_->endpoint();
}

std::uint16_t BrokerProcess::port() const {
  return listener_ != nullptr ? listener_->port() : 0;
}

std::uint64_t BrokerProcess::reassembly_rejects() const {
  std::uint64_t total = rejects_closed_;
  for (const auto& [name, peer] : peers_) {
    if (peer.conn != nullptr) total += peer.conn->reassembly_rejects();
  }
  for (const auto& conn : pending_) total += conn->reassembly_rejects();
  return total;
}

void BrokerProcess::setup_listener() {
  std::string err;
  const int fd = tcp_listen(options_.listen_port, &err);
  GRYPHON_CHECK_MSG(fd >= 0, options_.name << " listen failed: " << err);
  listener_ = std::make_unique<TcpListener>(loop_, fd,
                                            [this](int peer) { adopt_socket(peer); });
  GRYPHON_LOG(kInfo, options_.name, " listening on port " << listener_->port());
}

void BrokerProcess::adopt_socket(int fd) {
  auto conn = std::make_unique<Connection>(loop_, fd, options_.name + ".accept",
                                           /*connecting=*/false);
  Connection* raw = conn.get();
  raw->set_on_line([this, raw](const std::string& line) {
    auto it = std::find_if(pending_.begin(), pending_.end(),
                           [raw](const auto& c) { return c.get() == raw; });
    GRYPHON_CHECK(it != pending_.end());
    std::unique_ptr<Connection> owned = std::move(*it);
    pending_.erase(it);
    on_hello(std::move(owned), line);
  });
  raw->set_on_close([this, raw](const std::string&) {
    // Died before naming itself: forget it.
    auto it = std::find_if(pending_.begin(), pending_.end(),
                           [raw](const auto& c) { return c.get() == raw; });
    if (it != pending_.end()) {
      rejects_closed_ += (*it)->reassembly_rejects();
      pending_.erase(it);
    }
  });
  conn->start();
  pending_.push_back(std::move(conn));
}

void BrokerProcess::on_hello(std::unique_ptr<Connection> conn,
                             const std::string& line) {
  std::istringstream in(line);
  std::string verb, name, role;
  in >> verb >> name >> role;
  const bool broker_child = role == "imb" || role == "shb";
  const bool client = role == "pub" || role == "sub";
  if (verb != "GRYHELLO" || name.empty() || !(broker_child || client)) {
    GRYPHON_LOG(kWarn, options_.name, " rejecting bad hello: '" << line << "'");
    rejects_closed_ += conn->reassembly_rejects();
    conn->close();
    return;
  }
  const bool known = peers_.contains(name);
  Peer& peer = attach_peer(name, role, std::move(conn));
  if (broker_child) {
    if (!started_) {
      if (!known) {
        ++children_seen_;
        // Children complete: an intermediate may now announce itself upward
        // (see the constructor for why the dial waits on the gate).
        if (!parent_dial_started_ && options_.role == "imb" &&
            children_seen_ >= options_.expected_children) {
          dial_parent();
        }
        maybe_start();  // start_role() sends READY to everyone when the gate opens
      }
      return;
    }
    // A child arriving after boot: a restarted peer resumes on its existing
    // endpoint; a genuinely new one is wired into the running broker.
    if (!known) {
      if (phb_ != nullptr) phb_->add_child(peer.endpoint);
      if (imb_ != nullptr) imb_->add_child(peer.endpoint);
    }
    send_ready(peer);
    return;
  }
  if (started_) send_ready(peer);  // clients wait for boot otherwise
}

BrokerProcess::Peer& BrokerProcess::attach_peer(const std::string& name,
                                                const std::string& role,
                                                std::unique_ptr<Connection> conn) {
  auto [it, fresh] = peers_.try_emplace(name);
  Peer& peer = it->second;
  if (fresh) peer.endpoint = net_.add_peer(name);
  detach(peer);  // a re-hello can beat the old connection's close
  peer.role = role;
  peer.conn = std::move(conn);
  peer.ready_sent = false;
  wire_frame_sink(peer.endpoint, *peer.conn);
  peer.conn->set_on_close(
      [this, name](const std::string& reason) { on_peer_closed(name, reason); });
  return peer;
}

void BrokerProcess::wire_frame_sink(sim::EndpointId peer, Connection& conn) {
  conn.set_on_frame([this, peer](std::shared_ptr<const sim::FrameMessage> frame) {
    net_.deliver(peer, local_endpoint(), std::move(frame));
  });
}

void BrokerProcess::detach(Peer& peer) {
  net_.set_connection(peer.endpoint, nullptr);
  if (peer.conn != nullptr) {
    rejects_closed_ += peer.conn->reassembly_rejects();
    peer.conn.reset();
  }
}

void BrokerProcess::on_peer_closed(const std::string& name,
                                   const std::string& reason) {
  auto it = peers_.find(name);
  if (it == peers_.end()) return;
  GRYPHON_LOG(kInfo, options_.name, " lost peer " << name << ": " << reason);
  detach(it->second);
}

void BrokerProcess::dial_parent() {
  parent_dial_started_ = true;
  std::string err;
  const int fd = tcp_connect_start(options_.parent_host, options_.parent_port, &err);
  if (fd < 0) {
    GRYPHON_LOG(kWarn, options_.name, " dial failed (" << err << "); retrying");
    after(kRedialDelay, &BrokerProcess::dial_parent);
    return;
  }
  Peer& peer = peers_.at(kParent);
  peer.conn = std::make_unique<Connection>(loop_, fd, options_.name + "->parent",
                                           /*connecting=*/true);
  peer.conn->set_on_line([this](const std::string& line) {
    if (line == "GRYREADY") {
      on_parent_ready();
      return;
    }
    GRYPHON_LOG(kWarn, options_.name, " unexpected preamble '" << line << "'");
    peers_.at(kParent).conn->fail("bad preamble");
  });
  wire_frame_sink(peer.endpoint, *peer.conn);
  peer.conn->set_on_close([this](const std::string& reason) {
    GRYPHON_LOG(kInfo, options_.name, " parent link down: " << reason);
    detach(peers_.at(kParent));
    if (subscriber_ != nullptr && started_) subscriber_->notify_connection_reset();
    after(kRedialDelay, &BrokerProcess::dial_parent);
  });
  peer.conn->start();
  peer.conn->send_line("GRYHELLO " + options_.name + " " + options_.role);
}

void BrokerProcess::on_parent_ready() {
  const Peer& parent = peers_.at(kParent);
  net_.set_connection(parent.endpoint, parent.conn.get());
  parent_ready_ = true;
  maybe_start();
}

void BrokerProcess::maybe_start() {
  if (started_) return;
  if (options_.role == "phb") {
    if (children_seen_ < options_.expected_children) return;
    start_role();
  } else if (options_.role == "imb") {
    if (!parent_ready_ || children_seen_ < options_.expected_children) return;
    start_role();
  } else if (options_.role == "shb") {
    if (!parent_ready_) return;
    start_role();
  } else {
    if (!parent_ready_) return;
    start_client();
  }
}

void BrokerProcess::start_role() {
  for (auto& [name, peer] : peers_) {
    if (peer.role == "imb" || peer.role == "shb") {
      if (phb_ != nullptr) phb_->add_child(peer.endpoint);
      if (imb_ != nullptr) imb_->add_child(peer.endpoint);
    }
  }
  if (phb_ != nullptr) {
    if (adopted_) phb_->recover();
    phb_->start();
  } else if (imb_ != nullptr) {
    imb_->set_parent(peers_.at(kParent).endpoint);
    if (adopted_) {
      imb_->recover();
      imb_->start(/*fresh=*/false);
    } else {
      imb_->start(/*fresh=*/true);
    }
  } else if (shb_ != nullptr) {
    shb_->set_parent(peers_.at(kParent).endpoint);
    if (adopted_) {
      shb_->recover();  // resumes timers and re-nacks the missed span itself
    } else {
      shb_->start();
    }
  }
  started_ = true;
  GRYPHON_LOG(kInfo, options_.name, (adopted_ ? " recovered" : " started"));
  for (auto& [name, peer] : peers_) {
    if (peer.role != "parent") send_ready(peer);
  }
}

void BrokerProcess::start_client() {
  started_ = true;
  if (publisher_ != nullptr) pump_publisher();
  if (subscriber_ != nullptr) subscriber_->connect();
  check_client_done();
}

void BrokerProcess::pump_publisher() {
  // Manual-mode driving publishes exactly publish_count events (the timed
  // loop in Publisher has no stop-at-count and would overshoot, breaking
  // the demo's published == received accounting). Retries of unacked seqs
  // stay Publisher-internal either way.
  for (int i = 0; i < options_.publish_burst; ++i) {
    if (options_.publish_count != 0 &&
        publisher_->published() >= options_.publish_count) {
      return;
    }
    publisher_->publish(event_factory_(publisher_->published() + 1));
  }
  after(options_.publish_interval, &BrokerProcess::pump_publisher);
}

void BrokerProcess::check_client_done() {
  bool finished = false;
  if (publisher_ != nullptr && options_.publish_count != 0) {
    finished = publisher_->published() >= options_.publish_count &&
               publisher_->acked() >= options_.publish_count;
  } else if (subscriber_ != nullptr && options_.expect_events != 0) {
    finished = subscriber_->events_received() >= options_.expect_events;
  }
  if (finished) {
    done_ = true;
    loop_.stop();
    return;
  }
  after(kClientPollInterval, &BrokerProcess::check_client_done);
}

void BrokerProcess::send_ready(Peer& peer) {
  if (peer.ready_sent || peer.conn == nullptr || !peer.conn->is_open()) return;
  peer.conn->send_line("GRYREADY");
  peer.ready_sent = true;
  net_.set_connection(peer.endpoint, peer.conn.get());
}

std::string BrokerProcess::result_json() const {
  std::string out;
  JsonWriter(out, JsonWriter::Style::kCompact)
      .begin_object()
      .field("name", options_.name)
      .field("role", options_.role)
      .field("started", started_)
      .field("adopted", adopted_)
      .field("done", done_)
      .field("published", publisher_ != nullptr ? publisher_->published() : 0)
      .field("acked", publisher_ != nullptr ? publisher_->acked() : 0)
      .field("received", subscriber_ != nullptr ? subscriber_->events_received() : 0)
      .field("gaps", subscriber_ != nullptr ? subscriber_->gaps_received() : 0)
      .field("decode_rejects", net_.decode_rejects())
      .field("reassembly_rejects", reassembly_rejects())
      .end_object();
  return out;
}

}  // namespace gryphon::net
