// Nonblocking TCP building blocks for the broker runtime.
//
//  * tcp_listen / tcp_connect_start / local_port: thin POSIX wrappers, all
//    sockets nonblocking and TCP_NODELAY (frames are latency-sensitive
//    control traffic; batching is the codec arena's job, not Nagle's).
//  * TcpListener: accept loop on the event loop.
//  * Connection: one peer socket. Outbound bytes are buffered and flushed
//    on writability; inbound bytes pass through a one-line text preamble
//    (the process handshake: HELLO from the dialer, READY from the
//    acceptor) and then a FrameReassembler, so the owner receives whole
//    validated frames regardless of TCP boundaries.
//
// Reentrancy: handlers may close/destroy the connection they were invoked
// from; Connection guards itself with an alive token and returns
// immediately if a handler tore it down.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/event_loop.hpp"
#include "net/frame_stream.hpp"

namespace gryphon::net {

/// Creates a nonblocking listening socket on `port` (0 = ephemeral).
/// Returns the fd, or -1 with `*err` set.
int tcp_listen(std::uint16_t port, std::string* err);

/// Starts a nonblocking connect to host:port ("localhost" or dotted quad).
/// Returns the fd (connect may still be in progress), or -1 with `*err`.
int tcp_connect_start(const std::string& host, std::uint16_t port, std::string* err);

/// The locally bound port of a socket (resolves port 0 after listen).
std::uint16_t local_port(int fd);

/// Accept loop: watches a listening fd and hands accepted peer sockets
/// (already nonblocking + TCP_NODELAY) to the callback.
class TcpListener {
 public:
  using AcceptHandler = std::function<void(int fd)>;

  TcpListener(EventLoop& loop, int listen_fd, AcceptHandler on_accept);
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  EventLoop& loop_;
  int fd_;
  std::uint16_t port_;
  AcceptHandler on_accept_;
};

class Connection {
 public:
  /// The single preamble line from the peer (without the newline).
  using LineHandler = std::function<void(const std::string&)>;
  using FrameHandler = std::function<void(std::shared_ptr<const sim::FrameMessage>)>;
  /// Invoked once when the connection dies (peer close, error, failed
  /// connect). The fd is already closed; the owner usually destroys the
  /// Connection from here (safe).
  using CloseHandler = std::function<void(const std::string& reason)>;
  /// Nonblocking connect completion (dialer side), success already checked.
  using ConnectHandler = std::function<void()>;

  /// Adopts a socket. `connecting` = a tcp_connect_start fd whose handshake
  /// may still be in flight.
  Connection(EventLoop& loop, int fd, std::string label, bool connecting);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void set_on_line(LineHandler h) { on_line_ = std::move(h); }
  void set_on_frame(FrameHandler h) { on_frame_ = std::move(h); }
  void set_on_close(CloseHandler h) { on_close_ = std::move(h); }
  void set_on_connected(ConnectHandler h) { on_connected_ = std::move(h); }

  /// Begins watching the socket. Handlers must be set first.
  void start();

  /// Queues one preamble line (newline appended) ahead of any frames.
  void send_line(const std::string& line);

  /// Queues frame bytes for transmission.
  void send_bytes(std::span<const std::byte> bytes);

  /// Closes immediately; on_close is NOT invoked (owner-initiated).
  void close();

  /// Tears the socket down and reports `reason` to on_close (for protocol
  /// violations detected by the owner, e.g. a bad handshake line).
  void fail(const std::string& reason);

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] const std::string& label() const { return label_; }
  [[nodiscard]] std::uint64_t bytes_in() const { return bytes_in_; }
  [[nodiscard]] std::uint64_t bytes_out() const { return bytes_out_; }
  [[nodiscard]] std::uint64_t frames_in() const { return reassembler_.frames(); }
  [[nodiscard]] std::uint64_t reassembly_rejects() const {
    return reassembler_.rejects();
  }
  [[nodiscard]] std::size_t outbox_bytes() const { return outbox_.size() - out_head_; }

 private:
  void on_events(std::uint32_t events);
  void handle_readable(const std::shared_ptr<const char>& guard);
  void flush();
  void update_interest();

  EventLoop& loop_;
  int fd_;
  std::string label_;
  bool connecting_;
  bool line_mode_ = true;  // preamble not yet consumed
  std::string line_buf_;
  FrameReassembler reassembler_;
  LineHandler on_line_;
  FrameHandler on_frame_;
  CloseHandler on_close_;
  ConnectHandler on_connected_;
  std::vector<std::byte> outbox_;
  std::size_t out_head_ = 0;
  std::uint64_t bytes_in_ = 0;
  std::uint64_t bytes_out_ = 0;
  std::shared_ptr<const char> alive_;  // dropped by the destructor
};

}  // namespace gryphon::net
