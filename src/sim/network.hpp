// Network — the endpoint table every protocol object sends through. The
// base holds what both worlds share: endpoints, the Transport seam
// (sim/transport.hpp), the per-endpoint wire counters behind the net.*
// probes, and deliver(). send() is its one virtual:
//  * LinkNetwork (below): the simulator's links, scheduled on the simulator.
//  * net::SocketNetwork (src/net/socket_network.hpp): the real runtime,
//    which writes each send to the peer's TCP connection inside the call.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "sim/message.hpp"
#include "sim/scheduler.hpp"
#include "sim/transport.hpp"
#include "util/assert.hpp"

namespace gryphon::sim {

class Network {
 public:
  /// Receives (source endpoint, message).
  using Handler = std::function<void(EndpointId, MessagePtr)>;

  Network() = default;
  virtual ~Network() = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Installs the transport every send/delivery is translated through. With
  /// none installed, messages travel as the structs themselves. The
  /// transport must outlive the network.
  void set_transport(Transport* transport) { transport_ = transport; }
  [[nodiscard]] Transport* transport() const { return transport_; }

  /// Registers an endpoint. The handler is invoked at delivery time.
  EndpointId add_endpoint(std::string name, Handler handler);

  /// Sends a message. Returns false when the send is refused; a true return
  /// still only means "handed to the wire".
  virtual bool send(EndpointId from, EndpointId to, MessagePtr msg) = 0;

  /// Hands a message that reached `to` over the wire to its endpoint:
  /// from_wire(), then the handler, or a counted decode reject (dropped
  /// like a lost message) when the transport cannot decode it.
  void deliver(EndpointId from, EndpointId to, MessagePtr msg);

  /// Marks an endpoint down (a crashed broker): a LinkNetwork refuses its
  /// sends and drops what is queued or in flight to it.
  void set_down(EndpointId id, bool down);

  [[nodiscard]] const std::string& name_of(EndpointId id) const;

  /// Total messages/bytes ever delivered (diagnostics & tests).
  [[nodiscard]] std::uint64_t delivered_messages() const { return delivered_msgs_; }
  [[nodiscard]] std::uint64_t delivered_bytes() const { return delivered_bytes_; }

  /// Messages/bytes delivered per destination endpoint.
  [[nodiscard]] std::uint64_t delivered_messages_to(EndpointId id) const;
  [[nodiscard]] std::uint64_t delivered_bytes_to(EndpointId id) const;

  /// Messages/bytes accepted onto the wire per source endpoint.
  [[nodiscard]] std::uint64_t sent_messages_from(EndpointId id) const;
  [[nodiscard]] std::uint64_t sent_bytes_from(EndpointId id) const;

  /// Deliveries the transport rejected (corrupt frame) at this endpoint.
  [[nodiscard]] std::uint64_t decode_rejects_at(EndpointId id) const;

  /// Byte frames put on the wire by this endpoint / decoded at it (zero in
  /// struct mode — these count FrameMessages, i.e. codec-transport work).
  [[nodiscard]] std::uint64_t frames_encoded_from(EndpointId id) const;
  [[nodiscard]] std::uint64_t frames_decoded_at(EndpointId id) const;

  /// Total transport decode rejects.
  [[nodiscard]] std::uint64_t decode_rejects() const { return decode_rejects_; }

 protected:
  struct Endpoint {
    std::string name;
    Handler handler;
    bool down = false;
    std::uint64_t epoch = 0;  // bumped on set_down(true); stale deliveries drop
    std::uint64_t delivered_msgs = 0;
    std::uint64_t delivered_bytes = 0;
    std::uint64_t sent_msgs = 0;
    std::uint64_t sent_bytes = 0;
    std::uint64_t decode_rejects = 0;
    std::uint64_t frames_encoded = 0;
    std::uint64_t frames_decoded = 0;
  };

  Endpoint& endpoint(EndpointId id) {
    GRYPHON_CHECK_MSG(id < endpoints_.size(), "unknown endpoint " << id);
    return endpoints_[id];
  }
  [[nodiscard]] const Endpoint& endpoint(EndpointId id) const {
    GRYPHON_CHECK_MSG(id < endpoints_.size(), "unknown endpoint " << id);
    return endpoints_[id];
  }

  /// Replaces an outgoing message with its wire form (Transport::to_wire)
  /// and counts it as sent from `from`. Returns its wire size, which a
  /// struct message computes by running its encoder.
  std::size_t to_wire(EndpointId from, EndpointId to, MessagePtr& msg);

 private:
  Transport* transport_ = nullptr;
  std::vector<Endpoint> endpoints_;
  std::uint64_t delivered_msgs_ = 0;
  std::uint64_t delivered_bytes_ = 0;
  std::uint64_t decode_rejects_ = 0;
};

struct LinkConfig {
  SimDuration latency = msec(1);
  double bandwidth_bytes_per_sec = 1e9;  // effectively unconstrained default
};

// Simulated network of reliable FIFO point-to-point links (TCP stand-in).
//
// Semantics the protocols rely on, and which this class guarantees:
//  * per-directed-link FIFO delivery,
//  * no loss, no duplication, no corruption while both endpoints are up
//    and the link is healthy,
//  * messages in flight to a *down* endpoint are dropped (connection severed
//    by the crash), exactly like TCP connections dying with a broker.
//
// Latency model per message: arrival = departure + latency, where
// departure = max(send time, link free time) + wire_size/bandwidth. The link
// serializes messages, so a burst queues behind itself like a socket buffer.
// to_wire() runs at send time, before the bandwidth model prices the message.
//
// Fault injection (link level, endpoints stay alive):
//  * partition(a, b) severs the link in both directions: everything in
//    flight is dropped and subsequent sends are refused (send() returns
//    false) until heal(a, b). A partition+heal cycle always drops what was
//    in flight — like a TCP connection reset — so protocols must recover by
//    retransmission, not by hoping the pipe survived.
//  * degrade(a, b, ...) stretches latency and shrinks bandwidth by given
//    factors (a congested or flaky path); restore(a, b) reverts to the
//    configured values.
//  * schedule_flaps(a, b, ...) scripts a partition/heal square wave.
//  * corrupt_frames(a, b, ...) mangles the next N frames delivered on a
//    directed link (seeded byte flips / truncations). Only byte-encoded
//    messages (Transport = codec) can be mangled; struct messages under a
//    corruption window are dropped outright, the closest struct-mode
//    equivalent. A mangled frame that the transport then rejects is counted
//    as a decode reject at the destination and dropped like a lost message.
class LinkNetwork final : public Network {
 public:
  explicit LinkNetwork(Scheduler& scheduler) : sim_(scheduler) {}

  /// Creates a bidirectional link. Both directions share the config but have
  /// independent FIFO queues.
  void connect(EndpointId a, EndpointId b, LinkConfig config = {});

  [[nodiscard]] bool are_connected(EndpointId a, EndpointId b) const;

  /// Requires a link. Returns false when the send is refused (sender down
  /// or link partitioned). Delivery is dropped if the destination is down
  /// at (or goes down before) arrival, or the link partitions before
  /// arrival.
  bool send(EndpointId from, EndpointId to, MessagePtr msg) override;

  /// Severs the a<->b link without touching either endpoint. In-flight
  /// messages (both directions) are dropped; sends are refused until heal().
  /// Idempotent.
  void partition(EndpointId a, EndpointId b);

  /// Reopens a partitioned link. Messages that were in flight when the
  /// partition hit stay lost. Idempotent.
  void heal(EndpointId a, EndpointId b);

  [[nodiscard]] bool is_partitioned(EndpointId a, EndpointId b) const;

  /// Degrades the a<->b link: latency is multiplied by `latency_factor`
  /// (>= 1) and bandwidth by `bandwidth_factor` (in (0, 1]). Messages
  /// already in flight keep their arrival times. Calling again re-derives
  /// from the values given at connect() time (factors do not compound).
  void degrade(EndpointId a, EndpointId b, double latency_factor,
               double bandwidth_factor);

  /// Reverts a degraded link to its connect()-time configuration.
  void restore(EndpointId a, EndpointId b);

  /// Scripts `cycles` partition/heal pairs on the a<->b link starting now:
  /// down for `down`, then up for `up`, repeated. Overlapping manual
  /// partition()/heal() calls compose (both are idempotent).
  void schedule_flaps(EndpointId a, EndpointId b, SimDuration down,
                      SimDuration up, int cycles);

  /// Arms frame corruption on the *directed* from->to link: the next `count`
  /// messages delivered on it are mangled (a seeded byte flip or truncation
  /// when the message carries wire bytes; dropped outright when it does
  /// not). Deterministic in (seed, delivery order). Re-arming replaces any
  /// remaining budget.
  void corrupt_frames(EndpointId from, EndpointId to, int count, std::uint64_t seed);

  /// Disarms any remaining corruption budget on the directed from->to link.
  void clear_corruption(EndpointId from, EndpointId to);

  /// Sends refused because the link was partitioned (diagnostics & tests).
  [[nodiscard]] std::uint64_t refused_sends() const { return refused_sends_; }

  /// Frames mangled by corrupt_frames().
  [[nodiscard]] std::uint64_t corrupted_frames() const { return corrupted_frames_; }

 private:
  struct Link {
    LinkConfig config;        // effective (possibly degraded) parameters
    LinkConfig base;          // connect()-time parameters, for restore()
    SimTime free_at = 0;      // serialization point for FIFO + bandwidth
    bool partitioned = false;
    std::uint64_t epoch = 0;  // bumped on partition(); in-flight msgs drop
    int corrupt_remaining = 0;     // frames still to mangle on this link
    std::uint64_t corrupt_seed = 0;
    std::uint64_t corrupt_drawn = 0;  // mangles performed (mixer input)
  };

  /// The a->b link, or nullptr when a and b are not connected.
  [[nodiscard]] Link* find_link(EndpointId a, EndpointId b) const {
    if (a >= out_.size() || b >= out_[a].size()) return nullptr;
    return out_[a][b];
  }
  Link& link(EndpointId a, EndpointId b);
  [[nodiscard]] const Link& link(EndpointId a, EndpointId b) const;

  /// Applies one armed corruption to a wire message: a mangled copy, or
  /// nullptr when the message must be dropped instead (no bytes to flip).
  [[nodiscard]] MessagePtr mangle(Link& l, const MessagePtr& msg);

  Scheduler& sim_;
  /// Every link ever connected. A deque keeps each Link at a stable address
  /// (send() captures Link* for the delivery) and links are never erased.
  std::deque<Link> links_;
  /// Out-link table: out_[a][b] is the a->b link, or nullptr. Each row is
  /// sized to its endpoint's largest peer id, so a send finds its link with
  /// two indexed loads. Brokers register before their clients, so a
  /// client's row stays as short as the broker ids it links to.
  std::vector<std::vector<Link*>> out_;
  std::uint64_t refused_sends_ = 0;
  std::uint64_t corrupted_frames_ = 0;
};

}  // namespace gryphon::sim
