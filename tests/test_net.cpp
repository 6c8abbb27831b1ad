// Tests for the real-socket runtime (src/net): frame reassembly over every
// possible TCP fragmentation, the poll-based event loop's Scheduler
// contract, loopback Connections, and a forked two-broker smoke topology
// driven through the actual gryphon_broker binary.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/messages.hpp"
#include "net/event_loop.hpp"
#include "net/frame_stream.hpp"
#include "net/tcp.hpp"
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

}  // namespace
}  // namespace gryphon
