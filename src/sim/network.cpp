#include "sim/network.hpp"

#include <cmath>

#include "util/rng.hpp"

namespace gryphon::sim {

EndpointId Network::add_endpoint(std::string name, Handler handler) {
  GRYPHON_CHECK(handler != nullptr);
  endpoints_.push_back(Endpoint{std::move(name), std::move(handler)});
  return static_cast<EndpointId>(endpoints_.size() - 1);
}

void Network::set_down(EndpointId id, bool down) {
  Endpoint& ep = endpoint(id);
  if (down && !ep.down) ++ep.epoch;  // sever in-flight deliveries
  ep.down = down;
}

std::size_t Network::to_wire(EndpointId from, EndpointId to, MessagePtr& msg) {
  // Transport seam: what travels (and what a link's bandwidth model
  // prices) is the wire form — the struct itself, or its encoded frame.
  if (transport_ != nullptr) {
    msg = transport_->to_wire(from, to, std::move(msg));
    GRYPHON_CHECK_MSG(msg != nullptr, "transport refused to encode a message");
  }
  const std::size_t bytes = msg->wire_size();
  Endpoint& src = endpoint(from);
  ++src.sent_msgs;
  src.sent_bytes += bytes;
  if (!msg->wire_bytes().empty()) ++src.frames_encoded;
  return bytes;
}

void Network::deliver(EndpointId from, EndpointId to, MessagePtr msg) {
  Endpoint& dst = endpoint(to);
  const std::size_t bytes = msg->wire_size();
  ++delivered_msgs_;
  delivered_bytes_ += bytes;
  ++dst.delivered_msgs;
  dst.delivered_bytes += bytes;
  const bool was_frame = !msg->wire_bytes().empty();
  if (transport_ != nullptr) {
    msg = transport_->from_wire(from, to, std::move(msg));
    if (msg == nullptr) {
      // Corrupt frame: counted, then dropped exactly like a lost message —
      // the protocols recover by retransmission.
      ++decode_rejects_;
      ++dst.decode_rejects;
      return;
    }
    if (was_frame) ++dst.frames_decoded;
  }
  dst.handler(from, std::move(msg));
}

const std::string& Network::name_of(EndpointId id) const {
  return endpoint(id).name;
}

std::uint64_t Network::delivered_messages_to(EndpointId id) const {
  return endpoint(id).delivered_msgs;
}

std::uint64_t Network::delivered_bytes_to(EndpointId id) const {
  return endpoint(id).delivered_bytes;
}

std::uint64_t Network::sent_messages_from(EndpointId id) const {
  return endpoint(id).sent_msgs;
}

std::uint64_t Network::sent_bytes_from(EndpointId id) const {
  return endpoint(id).sent_bytes;
}

std::uint64_t Network::decode_rejects_at(EndpointId id) const {
  return endpoint(id).decode_rejects;
}

std::uint64_t Network::frames_encoded_from(EndpointId id) const {
  return endpoint(id).frames_encoded;
}

std::uint64_t Network::frames_decoded_at(EndpointId id) const {
  return endpoint(id).frames_decoded;
}

void LinkNetwork::connect(EndpointId a, EndpointId b, LinkConfig config) {
  GRYPHON_CHECK_MSG(a != b, "self-link");
  GRYPHON_CHECK(config.latency >= 0 && config.bandwidth_bytes_per_sec > 0);
  endpoint(a);
  endpoint(b);
  GRYPHON_CHECK_MSG(!are_connected(a, b), "duplicate link " << a << "<->" << b);
  const auto add = [&](EndpointId from, EndpointId to) {
    links_.push_back(Link{config, config, 0, false, 0});
    if (from >= out_.size()) out_.resize(from + 1);
    if (to >= out_[from].size()) out_[from].resize(to + 1, nullptr);
    out_[from][to] = &links_.back();
  };
  add(a, b);
  add(b, a);
}

bool LinkNetwork::are_connected(EndpointId a, EndpointId b) const {
  return find_link(a, b) != nullptr;
}

LinkNetwork::Link& LinkNetwork::link(EndpointId a, EndpointId b) {
  Link* l = find_link(a, b);
  GRYPHON_CHECK_MSG(l != nullptr, "no link " << name_of(a) << " -> " << name_of(b));
  return *l;
}

const LinkNetwork::Link& LinkNetwork::link(EndpointId a, EndpointId b) const {
  const Link* l = find_link(a, b);
  GRYPHON_CHECK_MSG(l != nullptr, "no link " << name_of(a) << " -> " << name_of(b));
  return *l;
}

bool LinkNetwork::send(EndpointId from, EndpointId to, MessagePtr msg) {
  GRYPHON_CHECK(msg != nullptr);
  Link& l = link(from, to);
  if (endpoint(from).down) return false;  // a crashed node sends nothing
  if (l.partitioned) {
    // Connection refused / send error: the caller sees the failure
    // immediately (a real TCP send into a severed link eventually errors).
    ++refused_sends_;
    return false;
  }

  const std::size_t sent_bytes = to_wire(from, to, msg);
  const auto ser_time = static_cast<SimDuration>(
      std::ceil(static_cast<double>(sent_bytes) /
                l.config.bandwidth_bytes_per_sec * 1e6));
  const SimTime departure = std::max(sim_.now(), l.free_at) + ser_time;
  l.free_at = departure;
  const SimTime arrival = departure + l.config.latency;

  const std::uint64_t send_epoch = endpoint(to).epoch;
  const std::uint64_t link_epoch = l.epoch;
  // Capture the link by pointer: links_ keeps addresses stable and links
  // are never erased, so delivery skips the lookup.
  Link* lp = &l;
  sim_.schedule_at(arrival, [this, lp, from, to, send_epoch, link_epoch,
                             msg = std::move(msg)]() mutable {
    // Dropped if the link partitioned after the send (even if since healed —
    // the connection was reset) …
    if (lp->epoch != link_epoch) return;
    const Endpoint& dst = endpoint(to);
    // … or the destination crashed after the send (connection severed) or is
    // currently down.
    if (dst.down || dst.epoch != send_epoch) return;
    if (lp->corrupt_remaining > 0) {
      --lp->corrupt_remaining;
      msg = mangle(*lp, msg);
      if (msg == nullptr) return;  // struct message under corruption: dropped
    }
    deliver(from, to, std::move(msg));
  });
  return true;
}

MessagePtr LinkNetwork::mangle(Link& l, const MessagePtr& msg) {
  ++corrupted_frames_;
  const std::uint64_t draw = splitmix64(l.corrupt_seed + l.corrupt_drawn++);
  // Frames are told apart by their ownership handle: even a zero-length
  // mangled frame is still a frame, while struct messages have no bytes.
  const std::span<const std::byte> bytes = msg->wire_bytes();
  if (msg->wire_owner() == nullptr || bytes.empty()) {
    // Struct messages have no byte representation to flip: the closest
    // struct-mode equivalent of an unreadable frame is losing the message.
    return nullptr;
  }
  std::vector<std::byte> mutated(bytes.begin(), bytes.end());
  const std::size_t pos = (draw >> 1) % mutated.size();
  if ((draw & 1) == 0) {
    // Byte flip: XOR with a non-zero pattern so the frame always changes.
    mutated[pos] ^= static_cast<std::byte>(0x5A | ((draw >> 8) & 0xA5) | 1);
  } else {
    // Truncation: a torn prefix, as if the connection died mid-frame.
    mutated.resize(pos);
  }
  return std::make_shared<FrameMessage>(std::move(mutated));
}

void LinkNetwork::partition(EndpointId a, EndpointId b) {
  for (Link* l : {&link(a, b), &link(b, a)}) {
    if (l->partitioned) continue;
    l->partitioned = true;
    ++l->epoch;               // drop everything currently in flight
    l->free_at = sim_.now();  // the queue behind the cut is gone too
  }
}

void LinkNetwork::heal(EndpointId a, EndpointId b) {
  link(a, b).partitioned = false;
  link(b, a).partitioned = false;
}

bool LinkNetwork::is_partitioned(EndpointId a, EndpointId b) const {
  return link(a, b).partitioned;
}

void LinkNetwork::degrade(EndpointId a, EndpointId b, double latency_factor,
                      double bandwidth_factor) {
  GRYPHON_CHECK_MSG(latency_factor >= 1.0 && bandwidth_factor > 0.0 &&
                        bandwidth_factor <= 1.0,
                    "degrade factors out of range: latency x" << latency_factor
                        << ", bandwidth x" << bandwidth_factor);
  for (Link* l : {&link(a, b), &link(b, a)}) {
    l->config.latency = static_cast<SimDuration>(
        std::llround(static_cast<double>(l->base.latency) * latency_factor));
    l->config.bandwidth_bytes_per_sec =
        l->base.bandwidth_bytes_per_sec * bandwidth_factor;
  }
}

void LinkNetwork::restore(EndpointId a, EndpointId b) {
  link(a, b).config = link(a, b).base;
  link(b, a).config = link(b, a).base;
}

void LinkNetwork::schedule_flaps(EndpointId a, EndpointId b, SimDuration down,
                             SimDuration up, int cycles) {
  GRYPHON_CHECK(down > 0 && up > 0 && cycles > 0);
  link(a, b);  // validated up front, not at first fire
  SimDuration at = 0;
  for (int i = 0; i < cycles; ++i) {
    sim_.schedule_after(at, [this, a, b] { partition(a, b); });
    sim_.schedule_after(at + down, [this, a, b] { heal(a, b); });
    at += down + up;
  }
}

void LinkNetwork::corrupt_frames(EndpointId from, EndpointId to, int count,
                             std::uint64_t seed) {
  GRYPHON_CHECK(count > 0);
  Link& l = link(from, to);
  l.corrupt_remaining = count;
  l.corrupt_seed = seed;
  l.corrupt_drawn = 0;
}

void LinkNetwork::clear_corruption(EndpointId from, EndpointId to) {
  link(from, to).corrupt_remaining = 0;
}

}  // namespace gryphon::sim
