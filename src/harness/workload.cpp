#include "harness/workload.hpp"

#include <cmath>

namespace gryphon::harness {

SystemConfig paper_config() {
  SystemConfig config;
  config.num_pubends = 4;
  config.broker.cores = 6;
  config.broker.costs.publish_base = usec(2000);
  config.phb_disk.sync_latency = msec(43);
  config.phb_disk.write_bandwidth_bytes_per_sec = 40e6;
  config.shb_disk.sync_latency = msec(4);
  config.shb_disk.read_seek_latency = msec(6);
  return config;
}

core::Publisher::EventFactory group_event_factory(int groups,
                                                  std::size_t payload_bytes) {
  GRYPHON_CHECK(groups >= 1);
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

std::string group_predicate(int k) { return "g == " + std::to_string(k); }

void start_paper_publishers(System& system, const PaperWorkloadConfig& config) {
  const int n = static_cast<int>(system.pubends().size());
  const double per_pubend = config.input_rate_eps / n;
  const auto interval = static_cast<SimDuration>(std::llround(1e6 / per_pubend));
  int i = 0;
  for (PubendId p : system.pubends()) {
    auto& pub = system.add_publisher(p, interval,
                                     group_event_factory(config.groups,
                                                         config.payload_bytes),
                                     /*start_offset=*/interval * i / n);
    pub.start();
    ++i;
  }
}

std::vector<core::DurableSubscriber*> add_group_subscribers(
    System& system, int shb_index, int count, int groups, std::uint32_t first_id,
    int machines, SimDuration ack_interval) {
  std::vector<core::DurableSubscriber*> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    core::DurableSubscriber::Options options;
    options.id = SubscriberId{first_id + static_cast<std::uint32_t>(i)};
    options.predicate = group_predicate(i % groups);
    options.ack_interval = ack_interval;
    auto& sub = system.add_subscriber(options, shb_index, i % machines);
    sub.connect();
    out.push_back(&sub);
  }
  return out;
}

std::vector<core::DurableSubscriber*> start_fig4_load(System& system, int per_shb) {
  start_paper_publishers(system, PaperWorkloadConfig{});
  std::vector<core::DurableSubscriber*> subs;
  for (int i = 0; i < system.num_shbs(); ++i) {
    auto added = add_group_subscribers(system, i, per_shb, 4,
                                       static_cast<std::uint32_t>(1000 * (i + 1)),
                                       /*machines=*/5);
    subs.insert(subs.end(), added.begin(), added.end());
  }
  system.run_for(sec(10));  // connect, fill pipelines
  return subs;
}

ShbCrashTimes run_shb_crash(System& system, const std::vector<core::DurableSubscriber*>& subs) {
  ShbCrashTimes times;
  system.run_for(sec(30));
  for (auto* sub : subs) sub->set_reconnect_hold(true);
  times.crash_at = system.simulator().now();
  system.crash_shb(0);
  system.run_for(sec(25));
  system.restart_shb(0);

  while (times.recovered_at == 0) {
    system.run_for(msec(500));
    bool ready = true;
    for (PubendId p : system.pubends()) {
      if (system.shb().latest_delivered(p) <
          tick_of_simtime(system.simulator().now()) - 1500) {
        ready = false;
        break;
      }
    }
    if (ready) times.recovered_at = system.simulator().now();
  }
  for (auto* sub : subs) sub->set_reconnect_hold(false);
  times.reconnect_at = system.simulator().now();
  return times;
}

SystemConfig chaos_soak_config() {
  SystemConfig config;
  config.num_pubends = 2;
  config.num_intermediates = 1;
  config.num_shbs = 2;
  return config;
}

std::vector<core::DurableSubscriber*> start_chaos_soak_load(System& system) {
  PaperWorkloadConfig wl;
  wl.input_rate_eps = 300;
  start_paper_publishers(system, wl);
  auto subs = add_group_subscribers(system, 0, 4, 4, 1);
  auto more = add_group_subscribers(system, 1, 4, 4, 100);
  subs.insert(subs.end(), more.begin(), more.end());
  system.run_for(sec(3));
  return subs;
}

SystemConfig herd_config(std::size_t admission_limit) {
  SystemConfig config;
  config.num_pubends = 1;
  config.num_intermediates = 1;
  config.num_shbs = 1;
  // A beefier broker than the paper's F80: the herd must be admission-
  // limited, not CPU-limited — 5000 subscribers' steady deliveries alone
  // would eat half of 6 cores and the backpressure pause would swamp the
  // queueing dynamics under test.
  config.broker.cores = 32;
  // ...and an SSD-class SHB spindle: every stream's PFS reads share one
  // disk, and the default 6 ms seek caps the whole herd at ~50 streams/s no
  // matter how wide the admission gate is.
  config.shb_disk.read_seek_latency = usec(100);
  config.shb_disk.sync_latency = msec(1);
  config.broker.costs.catchup_admission_limit = admission_limit;
  // Small istream cache (2 s < a 4 s down window) so the herd's catchup
  // truly depends on pubend retention — a degraded log answers the tail of
  // each stream with gap messages instead of a fat SHB cache hiding them.
  config.broker.costs.cache_span_ticks = 2000;
  // The paper's 380 ev/s catchup pacing would stretch a 40k-event herd over
  // minutes; the herd measures admission/backoff dynamics, not recovery
  // slope, so let the drain run at wire speed.
  config.broker.costs.catchup_rate_limit_eps = 5000.0;
  // Small segments so early release actually frees live bytes at a
  // granularity retention watermarks can see.
  config.storage.segment_bytes = 64 * 1024;
  return config;
}

std::vector<core::DurableSubscriber*> start_herd_load(System& system, int subscribers) {
  PaperWorkloadConfig wl;
  wl.input_rate_eps = 200;
  wl.groups = 100;
  start_paper_publishers(system, wl);
  auto subs = add_group_subscribers(system, 0, subscribers, wl.groups, /*first_id=*/1,
                                    /*machines=*/10, /*ack_interval=*/sec(1));
  system.run_for(sec(2));
  return subs;
}

ChurnDriver::ChurnDriver(System& system, std::vector<core::DurableSubscriber*> subs,
                         SimDuration period, SimDuration down_time)
    : system_(system), subs_(std::move(subs)), period_(period), down_time_(down_time) {
  GRYPHON_CHECK(period_ > down_time_ && down_time_ > 0);
  for (std::size_t i = 0; i < subs_.size(); ++i) {
    // Stagger first disconnects uniformly across the period.
    schedule(i, period_ * static_cast<SimDuration>(i + 1) /
                    static_cast<SimDuration>(subs_.size() + 1));
  }
}

StormDriver::StormDriver(System& system, std::vector<core::DurableSubscriber*> subs,
                         Options options)
    : system_(system), subs_(std::move(subs)), opt_(options) {
  GRYPHON_CHECK(opt_.waves >= 1 && opt_.down_time > 0);
  GRYPHON_CHECK(opt_.drop_fraction > 0.0 && opt_.drop_fraction <= 1.0);
  // The whole storm is planned here, up front, from one seeded stream: which
  // subscribers each wave drops, and (if spread > 0) each straggler's
  // reconnect offset. Nothing later consumes randomness.
  Rng rng(opt_.seed);
  for (int w = 0; w < opt_.waves; ++w) {
    const SimDuration drop_at = opt_.wave_interval * static_cast<SimDuration>(w + 1);
    for (std::size_t i = 0; i < subs_.size(); ++i) {
      if (opt_.drop_fraction < 1.0 && !rng.next_bool(opt_.drop_fraction)) {
        continue;
      }
      const SimDuration offset =
          opt_.reconnect_spread > 0
              ? static_cast<SimDuration>(rng.next_below(
                    static_cast<std::uint64_t>(opt_.reconnect_spread)))
              : 0;
      core::DurableSubscriber* sub = subs_[i];
      system_.simulator().schedule_after(drop_at, [this, sub] {
        if (!sub->connected()) return;
        sub->disconnect();
        ++disconnects_;
      });
      system_.simulator().schedule_after(drop_at + opt_.down_time + offset,
                                         [this, sub] {
                                           if (sub->connected()) return;
                                           sub->connect();
                                           ++reconnects_;
                                         });
    }
  }
}

void ChurnDriver::schedule(std::size_t idx, SimDuration delay) {
  system_.simulator().schedule_after(delay, [this, idx] {
    if (stopped_) return;
    core::DurableSubscriber* sub = subs_[idx];
    if (sub->connected()) {
      sub->disconnect();
      ++disconnects_;
      system_.simulator().schedule_after(down_time_, [sub] { sub->connect(); });
    }
    schedule(idx, period_);
  });
}

}  // namespace gryphon::harness
