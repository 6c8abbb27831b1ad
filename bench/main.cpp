// gryphon_bench <workload> [arguments] — every paper figure, ablation, soak
// and wall-clock workload in one program. `--list` prints the workload
// names; an unknown or missing one prints the table and exits 2. The rest
// of the command line is the workload's own (see its file's header).
#include <cstdio>
#include <string_view>

#include "bench/alloc_hook.hpp"
#include "bench/bench_common.hpp"

namespace gryphon::bench {
namespace {

struct Workload {
  const char* name;
  int (*run)(Args&);
  const char* summary;
};

// Sorted by name.
constexpr Workload kWorkloads[] = {
    {"ablation_cache_size", run_ablation_cache_size, "SHB cache span vs recovery locality"},
    {"ablation_consolidation", run_ablation_consolidation, "the consolidated stream's value"},
    {"ablation_early_release", run_ablation_early_release, "maxRetain: storage vs gaps"},
    {"ablation_pfs_fanout", run_ablation_pfs_fanout, "PFS advantage vs matching fan-out"},
    {"ablation_pfs_precision", run_ablation_pfs_precision, "precise vs imprecise PFS"},
    {"chaos_soak", run_chaos_soak, "seeded fault schedules with the oracle on"},
    {"churn_storm", run_churn_storm, "reconnect herds through admission control"},
    {"fig4_scalability", run_fig4_scalability, "Fig. 4: peak rate vs number of SHBs"},
    {"fig5_catchup_duration", run_fig5_catchup_duration, "Fig. 5: catchup durations"},
    {"fig6_delivered_released", run_fig6_delivered_released, "Fig. 6: delivered and released"},
    {"fig7_crash_recovery", run_fig7_crash_recovery, "Fig. 7: SHB crash and recovery"},
    {"fig8_crash_throughput", run_fig8_crash_throughput, "Fig. 8: rates and CPU across a crash"},
    {"jms_autoack", run_jms_autoack, "JMS auto-acknowledge throughput (§5.2)"},
    {"latency_5hop", run_latency_5hop, "end-to-end latency over 5 brokers (§5)"},
    {"pfs_micro", run_pfs_micro, "PFS vs per-subscriber event logging (§5.1.2)"},
    {"recovery_fuzz", run_recovery_fuzz, "seeded crash points and WAL recovery"},
    {"scale_1m", run_scale_1m, "10^6 subscriptions: covering index, sharded PFS"},
    {"sockets", run_sockets, "the real runtime over loopback TCP"},
    {"wallclock", run_wallclock, "simulator wall-clock throughput"},
};

int usage() {
  std::fprintf(stderr, "usage: gryphon_bench <workload> [arguments]\n\nworkloads:\n");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, "  %-24s %s\n", w.name, w.summary);
  return 2;
}

}  // namespace
}  // namespace gryphon::bench

int main(int argc, char** argv) {
  using namespace gryphon::bench;
  if (argc == 2 && std::string_view(argv[1]) == "--list") {
    for (const Workload& w : kWorkloads) std::printf("%s\n", w.name);
    return 0;
  }
  if (argc < 2) return usage();
  for (const Workload& w : kWorkloads) {
    if (std::string_view(w.name) == argv[1]) {
      Args args(argv[1], std::vector<std::string>(argv + 2, argv + argc));
      return w.run(args);
    }
  }
  std::fprintf(stderr, "gryphon_bench: unknown workload '%s'\n\n", argv[1]);
  return usage();
}
