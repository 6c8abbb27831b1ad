// Tests for the real-socket runtime (src/net): frame reassembly over every
// possible TCP fragmentation, the poll-based event loop's Scheduler
// contract, loopback Connections, the SocketNetwork and the Transport seam
// of in-process BrokerProcess roles, and a forked two-broker smoke topology
// driven through the actual gryphon_broker binary.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/client_observer.hpp"
#include "core/messages.hpp"
#include "net/broker_process.hpp"
#include "net/event_loop.hpp"
#include "net/frame_stream.hpp"
#include "net/socket_network.hpp"
#include "net/tcp.hpp"
#include "util/logging.hpp"
#include "wire/codec_transport.hpp"
#include "wire/frame.hpp"

namespace gryphon {
namespace {

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  if (!s.empty()) std::memcpy(out.data(), s.data(), s.size());  // data() may be null
  return out;
}

// A batch of frames with deliberately awkward shapes: empty payload, one
// byte, a couple of mid-size ones, and one large enough to span many reads.
struct Batch {
  std::vector<std::byte> wire;
  std::vector<std::string> payloads;
  std::vector<std::uint8_t> kinds;
};

Batch make_batch() {
  Batch b;
  b.payloads = {"", "x", "hello frames", std::string(300, 'q'),
                std::string(2100, 'Z')};
  b.kinds = {0, 1, 3, 2, 4};
  for (std::size_t i = 0; i < b.payloads.size(); ++i) {
    const auto payload = bytes_of(b.payloads[i]);
    wire::append_frame(b.wire, b.kinds[i], payload);
  }
  return b;
}

/// Feeds `wire` in chunks of `stride` bytes and expects every frame to come
/// out exactly once, in order, with zero rejects.
void expect_clean_reassembly(const Batch& b, std::size_t stride) {
  net::FrameReassembler r;
  std::size_t seen = 0;
  for (std::size_t off = 0; off < b.wire.size(); off += stride) {
    const std::size_t n = std::min(stride, b.wire.size() - off);
    r.feed(std::span<const std::byte>(b.wire.data() + off, n));
    while (auto frame = r.next()) {
      ASSERT_LT(seen, b.payloads.size()) << "stride " << stride;
      const auto parsed = wire::parse_frame(frame->wire_bytes());
      ASSERT_GT(parsed.consumed, 0u);
      EXPECT_EQ(parsed.kind, b.kinds[seen]);
      const std::string payload(reinterpret_cast<const char*>(parsed.payload.data()),
                                parsed.payload.size());
      EXPECT_EQ(payload, b.payloads[seen]) << "stride " << stride;
      ++seen;
    }
  }
  EXPECT_EQ(seen, b.payloads.size()) << "stride " << stride;
  EXPECT_EQ(r.rejects(), 0u) << "stride " << stride;
  EXPECT_EQ(r.buffered(), 0u) << "stride " << stride;
}

TEST(FrameReassembler, EveryChunkSizeFromTrickleToWholeBatch) {
  const Batch b = make_batch();
  // stride 1 is the 1-byte trickle; stride wire.size() is one coalesced
  // arena-sized write. Everything in between exercises a different header/
  // payload straddle.
  for (std::size_t stride = 1; stride <= b.wire.size(); ++stride) {
    expect_clean_reassembly(b, stride);
  }
}

TEST(FrameReassembler, EverySplitPointOfTwoChunks) {
  const Batch b = make_batch();
  for (std::size_t split = 0; split <= b.wire.size(); ++split) {
    net::FrameReassembler r;
    r.feed(std::span<const std::byte>(b.wire.data(), split));
    std::size_t seen = 0;
    while (r.next()) ++seen;
    r.feed(std::span<const std::byte>(b.wire.data() + split, b.wire.size() - split));
    while (r.next()) ++seen;
    EXPECT_EQ(seen, b.payloads.size()) << "split " << split;
    EXPECT_EQ(r.rejects(), 0u) << "split " << split;
  }
}

TEST(FrameReassembler, CorruptMiddleFrameIsRejectedWithoutDesync) {
  Batch b = make_batch();
  // Flip one payload byte of the fourth frame (the 300-byte one): CRC fails,
  // the frame is consumed and counted, frames behind it still decode.
  std::size_t offset = 0;
  for (int i = 0; i < 3; ++i) {
    const auto p = wire::parse_frame(
        std::span<const std::byte>(b.wire.data() + offset, b.wire.size() - offset));
    offset += p.consumed;
  }
  b.wire[offset + wire::kFrameHeaderBytes + 10] ^= std::byte{0x40};

  for (const std::size_t stride : {std::size_t{1}, std::size_t{7}, b.wire.size()}) {
    net::FrameReassembler r;
    std::vector<std::string> seen;
    for (std::size_t off = 0; off < b.wire.size(); off += stride) {
      const std::size_t n = std::min(stride, b.wire.size() - off);
      r.feed(std::span<const std::byte>(b.wire.data() + off, n));
      while (auto frame = r.next()) {
        const auto parsed = wire::parse_frame(frame->wire_bytes());
        seen.emplace_back(reinterpret_cast<const char*>(parsed.payload.data()),
                          parsed.payload.size());
      }
    }
    ASSERT_EQ(seen.size(), 4u) << "stride " << stride;
    EXPECT_EQ(seen[0], b.payloads[0]);
    EXPECT_EQ(seen[1], b.payloads[1]);
    EXPECT_EQ(seen[2], b.payloads[2]);
    EXPECT_EQ(seen[3], b.payloads[4]);  // the corrupt 300-byte frame is gone
    EXPECT_EQ(r.rejects(), 1u) << "stride " << stride;
  }
}

TEST(FrameReassembler, GarbageBetweenFramesCountsOneRejectPerRun) {
  Batch clean = make_batch();
  std::vector<std::byte> wire;
  const auto junk = bytes_of("this is not a frame header at all...");
  // frame0 | junk | frame1..4
  const auto first = wire::parse_frame(
      std::span<const std::byte>(clean.wire.data(), clean.wire.size()));
  wire.insert(wire.end(), clean.wire.begin(),
              clean.wire.begin() + static_cast<std::ptrdiff_t>(first.consumed));
  wire.insert(wire.end(), junk.begin(), junk.end());
  wire.insert(wire.end(),
              clean.wire.begin() + static_cast<std::ptrdiff_t>(first.consumed),
              clean.wire.end());

  for (const std::size_t stride : {std::size_t{1}, std::size_t{13}, wire.size()}) {
    net::FrameReassembler r;
    std::size_t seen = 0;
    for (std::size_t off = 0; off < wire.size(); off += stride) {
      const std::size_t n = std::min(stride, wire.size() - off);
      r.feed(std::span<const std::byte>(wire.data() + off, n));
      while (r.next()) ++seen;
    }
    EXPECT_EQ(seen, clean.payloads.size()) << "stride " << stride;
    EXPECT_EQ(r.rejects(), 1u) << "stride " << stride;
  }
}

TEST(FrameReassembler, TornTailIsBufferedNotEmitted) {
  const Batch b = make_batch();
  net::FrameReassembler r;
  // Everything except the last 5 bytes: final frame incomplete.
  r.feed(std::span<const std::byte>(b.wire.data(), b.wire.size() - 5));
  std::size_t seen = 0;
  while (r.next()) ++seen;
  EXPECT_EQ(seen, b.payloads.size() - 1);
  EXPECT_GT(r.buffered(), 0u);
  EXPECT_EQ(r.rejects(), 0u);
  // The tail arrives: the last frame completes.
  r.feed(std::span<const std::byte>(b.wire.data() + b.wire.size() - 5, 5));
  EXPECT_NE(r.next(), nullptr);
  EXPECT_EQ(r.buffered(), 0u);
}

TEST(FrameReassembler, KindAboveMaxIsCorruption) {
  std::vector<std::byte> wire;
  const auto payload = bytes_of("payload");
  wire::append_frame(wire, core::kMaxMsgKind + 1, payload);
  wire::append_frame(wire, /*kind=*/2, payload);

  net::FrameReassembler r;
  r.feed(wire);
  const auto frame = r.next();
  ASSERT_NE(frame, nullptr);  // the second frame survives the reject
  EXPECT_EQ(wire::parse_frame(frame->wire_bytes()).kind, 2);
  EXPECT_EQ(r.rejects(), 1u);
  EXPECT_EQ(r.next(), nullptr);
}

TEST(FrameReassembler, InsaneLengthPrefixIsConsumedAsCorruption) {
  std::vector<std::byte> wire;
  const auto payload = bytes_of("abc");
  wire::append_frame(wire, 1, payload);
  // Mangle the length field of the first frame to a huge value; the
  // reassembler must not wait forever for 4GB, and must not skip by the
  // corrupt length — it resyncs by magic scan and finds the second frame.
  wire::append_frame(wire, 2, payload);
  wire[12] = std::byte{0xff};
  wire[13] = std::byte{0xff};
  wire[14] = std::byte{0xff};
  wire[15] = std::byte{0x7f};

  net::FrameReassembler r;
  r.feed(wire);
  const auto frame = r.next();
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(wire::parse_frame(frame->wire_bytes()).kind, 2);
  EXPECT_EQ(r.rejects(), 1u);
}

TEST(EventLoop, TimersFireInOrderAndOnTime) {
  net::EventLoop loop;
  std::vector<int> fired;
  loop.schedule_after(msec(30), [&] { fired.push_back(3); });
  loop.schedule_after(msec(10), [&] { fired.push_back(1); });
  loop.schedule_after(msec(20), [&] { fired.push_back(2); });
  loop.run_for(msec(200));
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, CancelledTimerNeverFires) {
  net::EventLoop loop;
  bool fired = false;
  const sim::TaskId id = loop.schedule_after(msec(10), [&] { fired = true; });
  loop.cancel(id);
  loop.run_for(msec(80));
  EXPECT_FALSE(fired);
}

TEST(EventLoop, PastDeadlineRunsImmediately) {
  net::EventLoop loop;
  bool fired = false;
  loop.schedule_at(loop.now() - msec(5), [&] { fired = true; });
  loop.run_for(msec(50));
  EXPECT_TRUE(fired);
}

// A chain of timers, each due 250us after the previous one fired: the loop
// wakes for every one on time instead of sleeping a whole millisecond.
TEST(EventLoop, SubMillisecondTimersFireOnTime) {
  net::EventLoop loop;
  constexpr std::size_t kTimers = 100;
  std::vector<SimDuration> lateness;
  SimTime due = 0;
  std::function<void()> fire = [&] {
    lateness.push_back(loop.now() - due);
    if (lateness.size() == kTimers) return;
    due = loop.now() + usec(250);
    loop.schedule_at(due, fire);
  };
  due = loop.now() + usec(250);
  loop.schedule_at(due, fire);
  for (int i = 0; lateness.size() < kTimers && i < 100000; ++i) loop.tick(msec(5));
  ASSERT_EQ(lateness.size(), kTimers);
  std::sort(lateness.begin(), lateness.end());
  EXPECT_LT(lateness[kTimers / 2], usec(400)) << "median timer lateness";
}

// A wait shorter than the timer's distance must still sleep: a timeout
// rounded down to zero would spin the loop until the timer is due.
TEST(EventLoop, AFarTimerDoesNotSpin) {
  net::EventLoop loop;
  bool fired = false;
  loop.schedule_after(msec(5), [&] { fired = true; });
  for (int i = 0; !fired && i < 100000; ++i) loop.tick(msec(500));
  EXPECT_TRUE(fired);
  EXPECT_LE(loop.polls(), 3u);
}

TEST(EventLoop, FdReadinessDispatches) {
  net::EventLoop loop;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  std::string got;
  loop.watch_fd(fds[0], /*want_read=*/true, /*want_write=*/false,
                [&](std::uint32_t events) {
                  ASSERT_TRUE(events & net::EventLoop::kReadable);
                  char buf[16];
                  const ssize_t n = ::read(fds[0], buf, sizeof buf);
                  if (n > 0) got.assign(buf, static_cast<std::size_t>(n));
                  loop.stop();
                });
  ASSERT_EQ(::write(fds[1], "ping", 4), 4);
  loop.run_for(sec(2));
  EXPECT_EQ(got, "ping");
  loop.unwatch_fd(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

// Two Connections over real loopback TCP in one event loop: handshake line
// first, then a burst of frames each way; both sides reassemble cleanly.
TEST(Connection, LoopbackHandshakeAndFrames) {
  net::EventLoop loop;
  std::string err;
  const int lfd = net::tcp_listen(0, &err);
  ASSERT_GE(lfd, 0) << err;

  std::unique_ptr<net::Connection> server;
  std::string server_line;
  std::size_t server_frames = 0;
  net::TcpListener listener(loop, lfd, [&](int fd) {
    server = std::make_unique<net::Connection>(loop, fd, "server", false);
    server->set_on_line([&](const std::string& line) {
      server_line = line;
      server->send_line("GRYREADY");
    });
    server->set_on_frame([&](std::shared_ptr<const sim::FrameMessage> f) {
      ++server_frames;
      server->send_bytes(f->wire_bytes());  // echo
    });
    server->set_on_close([&](const std::string&) {});
    server->start();
  });

  const int cfd = net::tcp_connect_start("127.0.0.1", listener.port(), &err);
  ASSERT_GE(cfd, 0) << err;
  net::Connection client(loop, cfd, "client", /*connecting=*/true);
  std::string client_line;
  std::size_t client_frames = 0;
  const Batch batch = make_batch();
  client.set_on_line([&](const std::string& line) {
    client_line = line;
    client.send_bytes(batch.wire);  // all frames in one write
  });
  client.set_on_frame([&](std::shared_ptr<const sim::FrameMessage>) {
    if (++client_frames == batch.payloads.size()) loop.stop();
  });
  client.set_on_close([&](const std::string&) {});
  client.start();
  client.send_line("GRYHELLO tester pub");

  loop.run_for(sec(5));
  EXPECT_EQ(server_line, "GRYHELLO tester pub");
  EXPECT_EQ(client_line, "GRYREADY");
  EXPECT_EQ(server_frames, batch.payloads.size());
  EXPECT_EQ(client_frames, batch.payloads.size());
  EXPECT_EQ(client.reassembly_rejects(), 0u);
}

void write_all(int fd, std::span<const std::byte> bytes) {
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
}

// More bytes than one 64 KiB recv buffer, written at once: the readable
// callback keeps reading after a full buffer, so every frame is handled in
// a single loop tick.
TEST(Connection, BurstLargerThanTheReadBufferArrivesInOneTick) {
  net::EventLoop loop;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  const int sndbuf = 1 << 20;
  ASSERT_EQ(::setsockopt(fds[1], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof sndbuf), 0);
  std::vector<std::byte> burst = bytes_of("GRYHELLO peer pub\n");
  std::vector<std::string> payloads;
  for (int i = 0; i < 4; ++i) payloads.push_back(std::string(20000, static_cast<char>('a' + i)));
  const Batch batch = make_batch();
  payloads.insert(payloads.end(), batch.payloads.begin(), batch.payloads.end());
  for (const std::string& p : payloads) wire::append_frame(burst, 1, bytes_of(p));
  ASSERT_GT(burst.size(), 65536u);

  net::Connection conn(loop, fds[0], "local", /*connecting=*/false);
  std::vector<std::string> got;
  conn.set_on_line([](const std::string&) {});
  conn.set_on_frame([&](std::shared_ptr<const sim::FrameMessage> f) {
    const auto payload = wire::parse_frame(f->wire_bytes()).payload;
    got.emplace_back(reinterpret_cast<const char*>(payload.data()), payload.size());
  });
  conn.set_on_close([](const std::string&) {});
  conn.start();
  write_all(fds[1], burst);
  loop.tick(msec(200));
  ASSERT_EQ(got.size(), payloads.size());
  EXPECT_TRUE(got == payloads) << "a payload arrived altered";
  EXPECT_EQ(conn.bytes_in(), burst.size());
  EXPECT_EQ(conn.reassembly_rejects(), 0u);
  ::close(fds[1]);
}

// A send that fails on a reset socket runs on_close from inside
// send_bytes(), and on_close may destroy the Connection (the broker's
// handlers reset their owning unique_ptr). Nothing may touch the freed
// Connection afterwards; under ASan any such access fails this test.
TEST(Connection, SendIntoAResetPeerSurvivesOnCloseDestroyingTheConnection) {
  net::EventLoop loop;
  std::string err;
  const int lfd = net::tcp_listen(0, &err);
  ASSERT_GE(lfd, 0) << err;
  const int cfd = net::tcp_connect_start("127.0.0.1", net::local_port(lfd), &err);
  ASSERT_GE(cfd, 0) << err;
  int sfd = -1;
  for (int tries = 0; sfd < 0 && tries < 200; ++tries) {
    sfd = ::accept(lfd, nullptr, nullptr);
    if (sfd < 0) ::usleep(5 * 1000);
  }
  ASSERT_GE(sfd, 0) << "loopback accept never completed";
  pollfd connected{cfd, POLLOUT, 0};
  ASSERT_EQ(::poll(&connected, 1, 2000), 1);

  auto conn = std::make_unique<net::Connection>(loop, cfd, "client",
                                                /*connecting=*/false);
  std::string reason;
  conn->set_on_close([&](const std::string& why) {
    reason = why;
    conn.reset();
  });
  conn->start();

  // SO_LINGER{1, 0}: close() sends RST instead of FIN.
  const linger hard_reset{1, 0};
  ASSERT_EQ(::setsockopt(sfd, SOL_SOCKET, SO_LINGER, &hard_reset, sizeof hard_reset), 0);
  ::close(sfd);
  ::close(lfd);
  pollfd reset{cfd, POLLIN, 0};
  ASSERT_EQ(::poll(&reset, 1, 2000), 1);  // the RST has landed

  // No loop tick: the failed send must run on_close and return cleanly.
  const std::vector<std::byte> bytes(512, std::byte{0x5a});
  conn->send_bytes(bytes);
  EXPECT_EQ(conn, nullptr);
  EXPECT_FALSE(reason.empty());
}

// A frame whose CRC and kind are valid but whose payload is no
// EventDelivery: it survives reassembly and only the codec can reject it.
std::vector<std::byte> undecodable_frame() {
  std::vector<std::byte> bad;
  wire::append_frame(bad, static_cast<std::uint8_t>(core::MsgKind::kEventDelivery), {});
  return bad;
}

// The far end of a socketpair plays the peer process: what it writes is
// decoded and handled inside one loop tick, and what the local endpoint
// sends is on the socket when send() returns.
TEST(SocketNetwork, FramesCrossASocketpairWithNoLoopTimer) {
  net::EventLoop loop;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  net::SocketNetwork net(wire::CodecTransport::Options{.verify_every = 1});
  std::vector<sim::MessagePtr> handled;
  const sim::EndpointId local =
      net.add_endpoint("local", [&](sim::EndpointId, sim::MessagePtr msg) {
        handled.push_back(std::move(msg));
      });
  const sim::EndpointId peer = net.add_peer("peer");
  const sim::EndpointId absent = net.add_peer("absent");
  net::Connection conn(loop, fds[0], "local", /*connecting=*/false);
  conn.set_on_frame([&](std::shared_ptr<const sim::FrameMessage> frame) {
    net.deliver(peer, local, std::move(frame));
  });
  conn.set_on_close([](const std::string&) {});
  conn.start();
  net.set_connection(peer, &conn);

  const auto ack =
      std::make_shared<core::AckMsg>(SubscriberId(7), core::CheckpointToken{});
  wire::CodecTransport far_codec;
  const sim::MessagePtr frame = far_codec.to_wire(peer, local, ack);
  write_all(fds[1], bytes_of("GRYHELLO peer sub\n"));  // the preamble line
  write_all(fds[1], frame->wire_bytes());
  const std::uint64_t timers = loop.timers_fired();
  loop.tick(msec(200));
  ASSERT_EQ(handled.size(), 1u);
  EXPECT_EQ(static_cast<const core::Msg&>(*handled[0]).kind(), core::MsgKind::kAck);
  EXPECT_EQ(loop.timers_fired(), timers);
  EXPECT_EQ(net.frames_decoded_at(local), 1u);

  write_all(fds[1], undecodable_frame());
  loop.tick(msec(200));
  EXPECT_EQ(handled.size(), 1u);
  EXPECT_EQ(net.decode_rejects(), 1u);
  EXPECT_EQ(net.decode_rejects_at(local), 1u);
  EXPECT_EQ(conn.reassembly_rejects(), 0u);

  ASSERT_TRUE(net.send(local, peer, ack));
  std::byte buf[4096];
  const ssize_t n = ::read(fds[1], buf, sizeof buf);
  ASSERT_GT(n, 0);
  const auto parsed =
      wire::parse_frame(std::span<const std::byte>(buf, static_cast<std::size_t>(n)));
  EXPECT_EQ(parsed.consumed, static_cast<std::size_t>(n));
  EXPECT_EQ(parsed.kind, static_cast<std::uint8_t>(core::MsgKind::kAck));
  EXPECT_FALSE(net.send(local, absent, ack));
  EXPECT_EQ(net.sent_messages_from(local), 1u);
  ::close(fds[1]);
}

/// Runs the loop until `done` holds; false after `timeout_s`.
template <typename Done>
bool run_until(net::EventLoop& loop, Done done, double timeout_s) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    loop.tick(msec(2));
  }
  return true;
}

/// Wraps a role's transport and checks each crossing: to_wire() turns one
/// protocol struct into one frame, from_wire() turns one frame into one
/// struct. Frames are entered in a ledger shared by all roles when encoded
/// and struck off when decoded, so a frame read without having been
/// written by some role's to_wire(), or decoded twice, is caught.
class SeamCounter final : public sim::Transport {
 public:
  SeamCounter(sim::Transport* inner, std::multiset<std::string>& ledger)
      : inner_(inner), ledger_(ledger) {}

  [[nodiscard]] const char* name() const override { return "seam-counter"; }

  [[nodiscard]] sim::MessagePtr to_wire(sim::EndpointId from, sim::EndpointId to,
                                        sim::MessagePtr msg) override {
    ++to_wire_calls;
    if (msg->wire_bytes().empty()) ++structs_encoded;
    sim::MessagePtr out = inner_->to_wire(from, to, std::move(msg));
    if (!out->wire_bytes().empty()) ledger_.insert(key(*out));
    return out;
  }

  [[nodiscard]] sim::MessagePtr from_wire(sim::EndpointId from, sim::EndpointId to,
                                          sim::MessagePtr msg) override {
    ++from_wire_calls;
    if (auto it = ledger_.find(key(*msg)); it != ledger_.end()) {
      ledger_.erase(it);
      ++ledger_hits;
    }
    sim::MessagePtr out = inner_->from_wire(from, to, std::move(msg));
    if (out != nullptr && out->wire_bytes().empty()) {
      ++structs_decoded;
      if (static_cast<const core::Msg&>(*out).kind() == core::MsgKind::kEventDelivery) {
        ++event_deliveries;
      }
    }
    return out;
  }

  std::uint64_t to_wire_calls = 0;
  std::uint64_t structs_encoded = 0;
  std::uint64_t from_wire_calls = 0;
  std::uint64_t ledger_hits = 0;
  std::uint64_t structs_decoded = 0;
  std::uint64_t event_deliveries = 0;

 private:
  static std::string key(const sim::Message& frame) {
    const auto bytes = frame.wire_bytes();
    return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
  }

  sim::Transport* inner_;
  std::multiset<std::string>& ledger_;
};

class EventCounter final : public core::SubscriberObserver {
 public:
  void on_event(SubscriberId, PubendId, Tick, const matching::EventDataPtr&, bool,
                SimTime) override {
    ++events;
  }
  std::uint64_t events = 0;
};

class InProcessRoles : public ::testing::Test {
 protected:
  void SetUp() override {
    Logger::instance().set_level(LogLevel::kOff);
    dir_ = std::filesystem::temp_directory_path() /
           ("gryphon_net_roles." + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    for (auto& role : roles_) role.reset();
    std::filesystem::remove_all(dir_);
  }

  net::BrokerProcess& start(net::ProcessOptions options) {
    if (options.role == "phb" || options.role == "shb") {
      options.storage.file_dir = (dir_ / options.name).string();
    }
    roles_.push_back(std::make_unique<net::BrokerProcess>(loop_, std::move(options)));
    return *roles_.back();
  }

  net::EventLoop loop_;
  std::filesystem::path dir_;
  // What the roles point at outlives them.
  std::multiset<std::string> ledger_;
  std::vector<std::unique_ptr<SeamCounter>> seams_;
  EventCounter observer_;
  std::vector<std::unique_ptr<net::BrokerProcess>> roles_;
};

// A peer that says hello and then sends an undecodable frame: the broker
// counts one decode reject, reports it, and hands the role nothing.
TEST_F(InProcessRoles, UndecodableFrameIsCountedInTheResult) {
  net::ProcessOptions o;
  o.name = "phb";
  o.role = "phb";
  net::BrokerProcess& phb = start(o);
  ASSERT_TRUE(phb.started());

  std::string err;
  const int fd = net::tcp_connect_start("127.0.0.1", phb.port(), &err);
  ASSERT_GE(fd, 0) << err;
  net::Connection raw(loop_, fd, "raw", /*connecting=*/true);
  raw.set_on_line([&](const std::string& line) {
    if (line == "GRYREADY") raw.send_bytes(undecodable_frame());
  });
  raw.set_on_close([](const std::string&) {});
  raw.start();
  raw.send_line("GRYHELLO raw pub");

  ASSERT_TRUE(run_until(loop_, [&] { return phb.network().decode_rejects() > 0; }, 10));
  EXPECT_EQ(phb.network().decode_rejects(), 1u);
  EXPECT_EQ(phb.reassembly_rejects(), 0u);
  EXPECT_NE(phb.result_json().find("\"decode_rejects\":1"), std::string::npos)
      << phb.result_json();
  EXPECT_EQ(phb.network().frames_decoded_at(phb.node()->endpoint), 0u);
}

// A broker process stamps its log entries with the loop's wall clock, so
// real-runtime logs read seconds since start instead of [0.000s].
TEST_F(InProcessRoles, LogEntriesCarryTheLoopWallClock) {
  net::ProcessOptions o;
  o.name = "phb";
  o.role = "phb";
  ASSERT_TRUE(start(o).started());
  loop_.run_for(msec(5));

  std::vector<SimTime> stamps;
  Logger::instance().set_sink(
      [&](LogLevel, const std::string&, const std::string&, SimTime t) {
        stamps.push_back(t);
      });
  Logger::instance().set_level(LogLevel::kInfo);
  GRYPHON_LOG(kInfo, "test", "five milliseconds in");
  Logger::instance().set_level(LogLevel::kOff);
  Logger::instance().set_sink(nullptr);
  ASSERT_EQ(stamps.size(), 1u);
  EXPECT_GE(stamps[0], msec(5));
}

// PHB, SHB, publisher and subscriber on one loop, each with a SeamCounter
// installed the way a benchmark installs its probe: every frame a role
// writes crossed its to_wire() once, every frame it reads crossed its
// from_wire() once, and the subscriber's decorator saw every delivery the
// subscriber handled.
TEST_F(InProcessRoles, EveryFrameCrossesTheTransportOnceEachWay) {
  constexpr std::uint64_t kEvents = 100;
  auto wrap = [&](net::BrokerProcess& role) -> net::BrokerProcess& {
    sim::Network& net = role.network();
    seams_.push_back(std::make_unique<SeamCounter>(net.transport(), ledger_));
    net.set_transport(seams_.back().get());
    return role;
  };

  net::ProcessOptions o;
  o.name = "phb";
  o.role = "phb";
  o.expected_children = 1;
  net::BrokerProcess& phb = wrap(start(o));
  o = {};
  o.name = "shb0";
  o.role = "shb";
  o.parent_port = phb.port();
  net::BrokerProcess& shb = wrap(start(o));
  o = {};
  o.name = "sub1";
  o.role = "sub";
  o.parent_port = shb.port();
  o.observer = &observer_;
  net::BrokerProcess& sub = wrap(start(o));
  ASSERT_TRUE(run_until(loop_, [&] { return sub.subscriber()->connected(); }, 20));
  o = {};
  o.name = "pub1";
  o.role = "pub";
  o.parent_port = phb.port();
  o.publish_count = kEvents;
  o.publish_interval = msec(1);
  net::BrokerProcess& pub = wrap(start(o));
  ASSERT_TRUE(run_until(
      loop_,
      [&] { return pub.publisher()->acked() >= kEvents && observer_.events >= kEvents; },
      30));

  EXPECT_EQ(observer_.events, kEvents);
  for (const auto& seam : seams_) {
    EXPECT_GT(seam->to_wire_calls, 0u);
    EXPECT_EQ(seam->structs_encoded, seam->to_wire_calls);
    EXPECT_GT(seam->from_wire_calls, 0u);
    EXPECT_EQ(seam->ledger_hits, seam->from_wire_calls);
    EXPECT_EQ(seam->structs_decoded, seam->from_wire_calls);
  }
  EXPECT_EQ(seams_[2]->event_deliveries, observer_.events);
  for (const auto& role : roles_) EXPECT_EQ(role->network().decode_rejects(), 0u);
}

// ---------------------------------------------------------------------------
// Forked smoke topology: real gryphon_broker processes on 127.0.0.1 with
// ephemeral ports. PHB and SHB processes host the brokers; pub/sub client
// processes drive 200 events through and verify exactly-once end to end
// (the subscriber aborts on any monotonicity violation).
// ---------------------------------------------------------------------------

class BrokerSmoke : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* bin = std::getenv("GRYPHON_BROKER_BIN");
    if (bin == nullptr || !std::filesystem::exists(bin)) {
      GTEST_SKIP() << "GRYPHON_BROKER_BIN not set; run via ctest";
    }
    bin_ = bin;
    dir_ = std::filesystem::temp_directory_path() /
           ("gryphon_net_smoke." + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_ / "phb");
    std::filesystem::create_directories(dir_ / "shb");
  }

  void TearDown() override {
    for (const pid_t pid : spawned_) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  pid_t spawn(const std::vector<std::string>& args) {
    std::vector<char*> argv;
    std::vector<std::string> storage = args;
    storage.insert(storage.begin(), bin_);
    for (auto& a : storage) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execv(bin_.c_str(), argv.data());
      ::_exit(127);
    }
    EXPECT_GT(pid, 0);
    spawned_.push_back(pid);
    return pid;
  }

  /// Polls for a --port-file written by a child; 0 on timeout.
  std::uint16_t wait_port(const std::filesystem::path& file, int timeout_ms) {
    for (int waited = 0; waited < timeout_ms; waited += 50) {
      std::ifstream in(file);
      int port = 0;
      if (in >> port && port > 0) return static_cast<std::uint16_t>(port);
      ::usleep(50 * 1000);
    }
    return 0;
  }

  /// Waits for a child to exit on its own; returns its exit code, -1 on
  /// timeout or abnormal termination.
  int wait_exit(pid_t pid, int timeout_ms) {
    for (int waited = 0; waited < timeout_ms; waited += 50) {
      int status = 0;
      const pid_t r = ::waitpid(pid, &status, WNOHANG);
      if (r == pid) {
        std::erase(spawned_, pid);
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      ::usleep(50 * 1000);
    }
    return -1;
  }

  static std::string slurp(const std::filesystem::path& p) {
    std::ifstream in(p);
    std::string s((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
    return s;
  }

  std::string bin_;
  std::filesystem::path dir_;
  std::vector<pid_t> spawned_;
};

TEST_F(BrokerSmoke, LoopbackTopologyDeliversExactlyOnce) {
  spawn({"--role", "phb", "--name", "phb", "--listen", "0", "--port-file",
         (dir_ / "phb.port").string(), "--children", "1", "--wal-dir",
         (dir_ / "phb").string(), "--pubends", "2", "--run-for-sec", "60"});
  const std::uint16_t phb_port = wait_port(dir_ / "phb.port", 10000);
  ASSERT_NE(phb_port, 0) << "PHB never published its port";

  spawn({"--role", "shb", "--name", "shb0", "--listen", "0", "--port-file",
         (dir_ / "shb.port").string(), "--parent", "127.0.0.1:" + std::to_string(phb_port),
         "--wal-dir", (dir_ / "shb").string(), "--pubends", "2", "--run-for-sec",
         "60"});
  const std::uint16_t shb_port = wait_port(dir_ / "shb.port", 10000);
  ASSERT_NE(shb_port, 0) << "SHB never published its port";

  const pid_t sub = spawn(
      {"--role", "sub", "--name", "sub1", "--client-id", "1", "--parent",
       "127.0.0.1:" + std::to_string(shb_port), "--pubends", "2", "--expect",
       "200", "--run-for-sec", "45", "--started-file",
       (dir_ / "sub.started").string(), "--result-file",
       (dir_ / "sub.json").string()});
  // The durable subscription covers ticks from its establishment onward:
  // publishing must start after the subscribe round trip settles, or the
  // earliest events are (correctly) never delivered.
  ASSERT_NE(wait_port(dir_ / "sub.started", 10000), 0)
      << "subscriber never started";
  ::usleep(500 * 1000);
  const pid_t pub = spawn(
      {"--role", "pub", "--name", "pub1", "--client-id", "1", "--parent",
       "127.0.0.1:" + std::to_string(phb_port), "--pubends", "2", "--events",
       "200", "--interval-usec", "1000", "--run-for-sec", "45", "--result-file",
       (dir_ / "pub.json").string()});

  EXPECT_EQ(wait_exit(pub, 45000), 0);
  EXPECT_EQ(wait_exit(sub, 45000), 0);

  const std::string pub_result = slurp(dir_ / "pub.json");
  const std::string sub_result = slurp(dir_ / "sub.json");
  EXPECT_NE(pub_result.find("\"published\":200"), std::string::npos) << pub_result;
  EXPECT_NE(pub_result.find("\"acked\":200"), std::string::npos) << pub_result;
  EXPECT_NE(sub_result.find("\"received\":200"), std::string::npos) << sub_result;
  EXPECT_NE(sub_result.find("\"gaps\":0"), std::string::npos) << sub_result;
  EXPECT_NE(sub_result.find("\"decode_rejects\":0"), std::string::npos) << sub_result;
}

// Numeric flags are checked whole and in range: a bad one prints usage and
// exits 2 instead of running as 0 (a --pubends 0 publisher used to die of
// SIGFPE in its constructor; --listen abc used to listen on a random port).
TEST_F(BrokerSmoke, BadNumericFlagsExitWithUsage) {
  const pid_t zero_pubends = spawn({"--role", "pub", "--name", "pub1", "--parent",
                                    "127.0.0.1:1", "--pubends", "0", "--run-for-sec",
                                    "2"});
  EXPECT_EQ(wait_exit(zero_pubends, 10000), 2);
  const pid_t bad_port = spawn(
      {"--role", "phb", "--name", "phb", "--listen", "abc", "--run-for-sec", "2"});
  EXPECT_EQ(wait_exit(bad_port, 10000), 2);
}

}  // namespace
}  // namespace gryphon
