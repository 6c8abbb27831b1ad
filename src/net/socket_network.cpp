#include "net/socket_network.hpp"

#include "util/assert.hpp"

namespace gryphon::net {

SocketNetwork::SocketNetwork(const wire::CodecTransport::Options& codec)
    : codec_(codec) {
  set_transport(&codec_);
}

sim::EndpointId SocketNetwork::add_peer(std::string name) {
  return add_endpoint(std::move(name), [](sim::EndpointId, sim::MessagePtr) {
    GRYPHON_CHECK_MSG(false, "a remote peer's endpoint received a local delivery");
  });
}

void SocketNetwork::set_connection(sim::EndpointId peer, Connection* conn) {
  endpoint(peer);  // validates the id
  if (conns_.size() <= peer) conns_.resize(peer + 1, nullptr);
  conns_[peer] = conn;
}

bool SocketNetwork::send(sim::EndpointId from, sim::EndpointId to, sim::MessagePtr msg) {
  GRYPHON_CHECK(msg != nullptr);
  Connection* conn = to < conns_.size() ? conns_[to] : nullptr;
  if (conn == nullptr || !conn->is_open()) return false;
  to_wire(from, to, msg);
  GRYPHON_CHECK_MSG(!msg->wire_bytes().empty(), "struct message on a socket");
  conn->send_bytes(msg->wire_bytes());
  return true;
}

}  // namespace gryphon::net
