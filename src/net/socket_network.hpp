// SocketNetwork — the real runtime's sim::Network: the endpoints of other
// processes are reached through their TCP Connection.
//
// send() to a peer encodes the message once through the installed
// transport (its own wire::CodecTransport unless a decorator wraps it) and
// queues the frame on the peer's Connection inside the call. Without an
// open connection the message is dropped and send() returns false, like a
// send into a reset TCP connection: the protocols repair by
// retransmission. The owner hands inbound frames to deliver() from the
// connection's read callback, so no loop timer sits between the socket and
// the handler.
#pragma once

#include <string>
#include <vector>

#include "net/tcp.hpp"
#include "sim/network.hpp"
#include "wire/codec_transport.hpp"

namespace gryphon::net {

class SocketNetwork final : public sim::Network {
 public:
  explicit SocketNetwork(const wire::CodecTransport::Options& codec);

  /// Registers a remote peer: an address for send(), never a delivery
  /// target in this process.
  sim::EndpointId add_peer(std::string name);

  /// The connection frames to `peer` are written to; nullptr while the
  /// peer is away. The connection must outlive its registration.
  void set_connection(sim::EndpointId peer, Connection* conn);

  bool send(sim::EndpointId from, sim::EndpointId to, sim::MessagePtr msg) override;

 private:
  wire::CodecTransport codec_;
  std::vector<Connection*> conns_;  // by endpoint id; null = no connection
};

}  // namespace gryphon::net
