// Layer replays: the layers with no injection seam are timed by feeding
// their public API the inputs the traced run produced. The totals estimate
// how much of the run's root time each layer took.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <utility>

#include "bench.hpp"
#include "matching/parser.hpp"
#include "matching/subscription_index.hpp"
#include "routing/tick_map.hpp"
#include "sim/simulator.hpp"
#include "storage/log_volume.hpp"
#include "storage/sim_disk.hpp"

namespace perfbench {

MatchReplay replay_matching(const std::vector<std::vector<std::string>>& predicates_per_shb,
                            const std::vector<matching::EventDataPtr>& events) {
  MatchReplay r;
  std::vector<SubscriberId> matched;
  for (const auto& predicates : predicates_per_shb) {
    matching::SubscriptionIndex index;
    for (std::size_t i = 0; i < predicates.size(); ++i) {
      index.add(SubscriberId{static_cast<std::uint32_t>(i + 1)},
                matching::parse_predicate(predicates[i]));
    }
    r.groups += static_cast<double>(index.group_count());
    const std::uint64_t c0 = index.candidates_evaluated();
    const std::uint64_t t0 = now_ns();
    for (const auto& e : events) index.match_into(*e, matched);
    r.total_ns += static_cast<double>(now_ns() - t0);
    r.candidates += static_cast<double>(index.candidates_evaluated() - c0);
  }
  return r;
}

StorageReplay replay_storage(std::uint64_t records, double bytes_per_record,
                             double records_per_barrier, const std::string& file_dir) {
  StorageReplay r;
  if (records == 0) return r;
  records = std::min<std::uint64_t>(records, 100'000);
  const auto size = static_cast<std::size_t>(std::max(1.0, std::round(bytes_per_record)));
  const auto batch =
      static_cast<std::uint64_t>(std::max(1.0, std::round(records_per_barrier)));

  sim::Simulator sim;  // completes the barriers; its clock is not measured
  storage::DiskConfig dc;
  dc.sync_latency = 0;
  storage::SimDisk disk(sim, "replay.disk", dc);
  storage::StorageOptions options;
  options.file_dir = file_dir;
  storage::LogVolume volume(disk, options, "replay");
  const storage::LogStreamId stream = volume.open_stream("replay");

  std::uint64_t append_ns = 0;
  std::uint64_t barrier_ns = 0;
  std::uint64_t barriers = 0;
  for (std::uint64_t done = 0; done < records;) {
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t k = 0; k < batch && done < records; ++k, ++done) {
      std::vector<std::byte> payload = volume.acquire_buffer();
      payload.assign(size, std::byte{0x5a});
      volume.append(stream, std::move(payload));
    }
    const std::uint64_t t1 = now_ns();
    volume.sync([] {});
    sim.run_until_idle();
    barrier_ns += now_ns() - t1;
    append_ns += t1 - t0;
    ++barriers;
    volume.chop(stream, volume.durable_index(stream));  // keeps the volume small
  }
  r.append_ns_per_record = static_cast<double>(append_ns) / static_cast<double>(records);
  r.barrier_ns = static_cast<double>(barrier_ns) / static_cast<double>(barriers);
  return r;
}

double replay_tickmap(const std::vector<CapturedStream>& captured) {
  std::map<std::pair<sim::EndpointId, PubendId>, std::unique_ptr<routing::TickMap>> maps;
  std::uint64_t ns = 0;
  std::uint64_t items = 0;
  for (const CapturedStream& c : captured) {
    if (c.items.empty()) continue;
    auto& map = maps[{c.to, c.pubend}];
    if (map == nullptr) {
      map = std::make_unique<routing::TickMap>(std::max<Tick>(c.items.front().range.from - 1, 0));
    }
    const std::uint64_t t0 = now_ns();
    for (const auto& item : c.items) map->apply(item);
    ns += now_ns() - t0;
    items += c.items.size();
  }
  return items > 0 ? static_cast<double>(ns) / static_cast<double>(items) : 0.0;
}

}  // namespace perfbench
