// gryphon_broker — stand-alone process hosting one broker or client role
// over real TCP sockets (src/net runtime).
//
// A topology is a set of these processes wired parent-to-child:
//
//   gryphon_broker --role phb --name phb --listen 7700 --children 2
//       --wal-dir /tmp/demo/phb &
//   gryphon_broker --role imb --name imb0 --listen 7701 --children 2
//       --parent 127.0.0.1:7700 --wal-dir /tmp/demo/imb0 &
//   gryphon_broker --role shb --name shb0 --listen 7710
//       --parent 127.0.0.1:7701 --wal-dir /tmp/demo/shb0 &
//   gryphon_broker --role pub --name pub1 --client-id 1
//       --parent 127.0.0.1:7700 --events 2000 &
//   gryphon_broker --role sub --name sub1 --client-id 1
//       --parent 127.0.0.1:7710 --expect 8000 --result-file sub1.json
//
// Brokers run until SIGTERM (graceful: write the result file and exit 0) or
// SIGKILL (the crash the WAL recovery path exists for — restart with the
// same --wal-dir and --listen to recover). Client processes exit on their
// own once the configured workload completes. A subscriber that observes a
// non-monotonic delivery aborts the process — every run doubles as an
// exactly-once oracle.
//
// See tools/run_broker_demo.sh for the scripted 7-process demo.

#include <charconv>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <type_traits>

#include "core/subscriber_client.hpp"
#include "net/broker_process.hpp"
#include "net/event_loop.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int /*sig*/) { g_stop = 1; }

struct Flags {
  gryphon::net::ProcessOptions process;
  std::string port_file;
  std::string started_file;
  std::string result_file;
  double run_for_sec = 0;  // 0 = unbounded (clients stop on completion)
  std::string log_level = "warn";
};

void usage() {
  std::cerr <<
      "usage: gryphon_broker --role {phb|imb|shb|pub|sub} --name NAME [options]\n"
      "  --listen PORT        broker listen port (0 = ephemeral)\n"
      "  --port-file PATH     write the bound port here after listen\n"
      "  --started-file PATH  write '1' once the role has started (sub: subscribed)\n"
      "  --parent HOST:PORT   upstream broker (everyone except the PHB)\n"
      "  --children N         broker children to await before starting\n"
      "  --wal-dir DIR        WAL directory, fdatasync'ed (restart recovers)\n"
      "  --pubends N          pubend count, must match across the topology (4)\n"
      "  --client-id N        publisher/subscriber id (1)\n"
      "  --events N           pub: publish N events then exit when acked\n"
      "  --interval-usec N    pub: inter-publish gap (2000)\n"
      "  --burst N            pub: events per publish tick (1)\n"
      "  --payload N          pub: event payload bytes (64)\n"
      "  --groups N           pub: event group modulus (4)\n"
      "  --predicate EXPR     sub: selector ('g >= 0' matches all)\n"
      "  --expect N           sub: exit once N events consumed\n"
      "  --run-for-sec S      hard runtime bound (safety net for scripts)\n"
      "  --result-file PATH   write a one-line JSON summary on exit\n"
      "  --log-level L        off|debug|info|warn|error (warn)\n"
      "Numbers must be whole decimal values in range; anything else exits 2.\n";
}

/// Parses all of `text` into `out` when it is a number in [lo, hi]; the
/// type bounds the rest (a uint16_t port cannot exceed 65535).
template <typename T>
bool parse_number(const std::string& text, T& out, std::type_identity_t<T> lo = 0,
                  std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  T parsed{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, parsed);
  if (ec != std::errc{} || stop != end || !(parsed >= lo && parsed <= hi)) return false;
  out = parsed;
  return true;
}

bool parse_flags(int argc, char** argv, Flags& flags) {
  auto& p = flags.process;
  for (int i = 1; i < argc; i += 2) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << arg << "\n";
      return false;
    }
    const std::string v = argv[i + 1];
    bool ok = true;
    if (arg == "--role") {
      p.role = v;
    } else if (arg == "--name") {
      p.name = v;
    } else if (arg == "--listen") {
      ok = parse_number(v, p.listen_port);
    } else if (arg == "--port-file") {
      flags.port_file = v;
    } else if (arg == "--started-file") {
      flags.started_file = v;
    } else if (arg == "--parent") {
      const auto colon = v.rfind(':');
      ok = colon != std::string::npos &&
           parse_number(v.substr(colon + 1), p.parent_port, 1);
      if (ok) p.parent_host = v.substr(0, colon);
    } else if (arg == "--children") {
      ok = parse_number(v, p.expected_children);
    } else if (arg == "--wal-dir") {
      p.storage.file_dir = v;
    } else if (arg == "--pubends") {
      ok = parse_number(v, p.num_pubends, 1);
    } else if (arg == "--client-id") {
      ok = parse_number(v, p.client_id, 1);
    } else if (arg == "--events") {
      ok = parse_number(v, p.publish_count);
    } else if (arg == "--interval-usec") {
      ok = parse_number(v, p.publish_interval);
    } else if (arg == "--burst") {
      ok = parse_number(v, p.publish_burst);
    } else if (arg == "--payload") {
      ok = parse_number(v, p.payload_bytes);
    } else if (arg == "--groups") {
      ok = parse_number(v, p.groups, 1);
    } else if (arg == "--predicate") {
      p.predicate = v;
    } else if (arg == "--expect") {
      ok = parse_number(v, p.expect_events);
    } else if (arg == "--run-for-sec") {
      ok = parse_number(v, flags.run_for_sec);
    } else if (arg == "--result-file") {
      flags.result_file = v;
    } else if (arg == "--log-level") {
      flags.log_level = v;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return false;
    }
    if (!ok) {
      std::cerr << "bad value for " << arg << ": '" << v << "'\n";
      return false;
    }
  }
  return !p.role.empty() && !p.name.empty();
}

gryphon::LogLevel parse_level(const std::string& name) {
  using gryphon::LogLevel;
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  return LogLevel::kWarn;
}

/// Writes `content` and a newline to a `.tmp` sibling and renames it over
/// `path`, so a script polling `path` never reads a partial file.
bool publish_file(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  if (gryphon::write_file(tmp, content + "\n") &&
      std::rename(tmp.c_str(), path.c_str()) == 0) {
    return true;
  }
  std::remove(tmp.c_str());
  std::fprintf(stderr, "gryphon_broker: cannot write %s\n", path.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!parse_flags(argc, argv, flags)) {
    usage();
    return 2;
  }
  gryphon::Logger::instance().set_level(parse_level(flags.log_level));
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  gryphon::net::EventLoop loop;
  gryphon::net::BrokerProcess process(loop, flags.process);
  if (!flags.port_file.empty() && process.port() != 0 &&
      !publish_file(flags.port_file, std::to_string(process.port()))) {
    return 1;
  }

  // Started beacon for scripts: a durable subscription covers ticks from its
  // establishment onward, so a launcher must not start publishing until the
  // subscribers are up — this file is the wait target. A subscriber writes
  // it once its SHB confirmed the subscription, not at connect().
  bool write_failed = false;
  std::function<void()> announce_started = [&] {
    const bool subscribed =
        process.subscriber() == nullptr || process.subscriber()->connected();
    if (process.started() && subscribed) {
      if (!publish_file(flags.started_file, "1")) {
        write_failed = true;
        loop.stop();
      }
      return;
    }
    loop.schedule_after(gryphon::msec(10), [&] { announce_started(); });
  };
  if (!flags.started_file.empty()) announce_started();

  // Signal poll: SIGTERM interrupts poll(2); this timer turns the flag into
  // a loop exit so the process can write its result file and leave cleanly.
  std::function<void()> watch = [&] {
    if (g_stop != 0) {
      loop.stop();
      return;
    }
    loop.schedule_after(gryphon::msec(50), [&] { watch(); });
  };
  watch();

  if (flags.run_for_sec > 0) {
    loop.run_for(static_cast<gryphon::SimDuration>(flags.run_for_sec * 1e6));
  } else {
    loop.run();
  }

  const std::string result = process.result_json();
  std::cout << result << "\n";
  if (!flags.result_file.empty() && !publish_file(flags.result_file, result)) {
    write_failed = true;
  }
  return write_failed ? 1 : 0;
}
