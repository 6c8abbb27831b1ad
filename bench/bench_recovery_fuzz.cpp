// Crash-point recovery fuzzer for the byte-level persistence engine.
//
// Each seed builds a small deployment (2 pubends -> PHB -> intermediate ->
// 1 SHB, 4 durable subscribers), warms it up, then injects a sequence of
// seeded broker
// crashes. Before every crash the target node's LogVolume and Database WALs
// are seeded with crash entropy, so recovery finds a surviving byte prefix
// torn somewhere inside the in-flight group-commit window — usually
// mid-frame, exercising the scanner's torn-tail truncation rule — instead
// of always exactly at the durable watermark. After every crash the broker
// restarts, rebuilds its state from the surviving WAL bytes alone, and the
// run must settle back to quiescence with the DeliveryOracle's exactly-once
// contract intact.
//
//   gryphon_bench recovery_fuzz [num_seeds] [first_seed] [--smoke] [--out FILE] [--wal-dir DIR]
//
// Defaults: 100 seeds x 2 crashes per seed = 200+ seeded crash points spread
// across PHB, intermediate and SHB WALs (the intermediate's knowledge/DB
// recovery path crashes just like the edges do). About a third of the
// crashes compose a second kill 1-40 ms after the restart, so the crash
// point lands inside the recovery window itself. A quarter of the seed
// count then re-runs in codec mode — byte frames on every link, canonical
// re-encode verified on every decode — with seeded frame corruption armed
// on the broker chain across each crash window: the crash x frame-fault
// cross product. The run fails (exit 1) if any seed violates the oracle,
// and — unless --smoke — if not a single crash point produced a torn-tail
// truncation, not a single re-crash landed inside a recovery window, or the
// codec leg rejected no frames (any of which would mean the fuzzer stopped
// reaching the interesting crash points, not that the engine got better).
// --smoke runs 3 struct + 1 codec seeds with none of those requirements:
// the sanitizer entry point for tools/run_chaos.sh.
// --wal-dir runs every node's WAL on real files (FileBackend) under
// DIR/seed<N>/ so the byte-level recovery path is exercised through the
// filesystem; --out writes a bench-JSON snapshot whose metrics block carries
// the accumulated wal.* totals (wal.recovery_truncated_bytes > 0 is the
// committed evidence that mid-frame tears were reached).
#include "bench/bench_common.hpp"

#include <exception>
#include <filesystem>

#include "storage/wal.hpp"
#include "util/rng.hpp"

namespace gryphon::bench {
namespace {

constexpr int kCrashesPerSeed = 2;

struct SeedResult {
  std::uint64_t seed = 0;
  int crashes = 0;
  int recovery_crashes = 0;  // re-crashes landed milliseconds into recovery
  std::uint64_t recoveries = 0;
  std::uint64_t truncated_bytes = 0;
  std::uint64_t torn_tail_recoveries = 0;
  std::uint64_t corrupted_frames = 0;  // codec leg: mangles armed + fired
  std::uint64_t decode_rejects = 0;    // codec leg: mangles caught + dropped
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;
  bool violated = false;
};

/// Prints each WAL's last recorded corruption (the torn/corrupt frame the
/// recovery scan truncated at) — the post-mortem a violating seed needs.
void dump_corruptions(harness::System& system) {
  for (core::NodeResources* node : system.nodes()) {
    const auto dump_wal = [&](const char* which, const storage::Wal& wal) {
      if (!wal.last_corruption().valid) return;
      std::fprintf(stderr, "  %s.%s: %s\n", node->name.c_str(), which,
                   storage::Wal::format_corruption(wal.last_corruption()).c_str());
    };
    dump_wal("log", node->log_volume.wal());
    dump_wal("db", node->database.wal());
  }
}

/// `codec` runs the whole seed over the byte-level wire (CodecTransport,
/// canonical re-encode verified on every frame) and arms seeded frame
/// corruption on the broker chain across each crash window — the crash x
/// frame-fault cross product: recovery must hold when torn WAL tails and
/// mangled in-flight frames compose.
SeedResult run_seed(std::uint64_t seed, const std::string& wal_dir, bool codec) {
  Rng rng(seed);
  harness::SystemConfig sc;
  sc.num_pubends = 2;
  sc.num_intermediates = 1;  // crash points also land mid-chain
  sc.num_shbs = 1;
  if (codec) {
    sc.wire = harness::WireMode::kCodec;
    sc.wire_verify_every = 1;
  }
  // Small segments + an aggressive DB compaction budget so a few seconds of
  // traffic already rolls, GCs and snapshot-compacts segments — recovery
  // then scans a multi-segment WAL, not one young segment.
  sc.storage.segment_bytes = 8 * 1024;
  sc.storage.db_compact_bytes = 64 * 1024;
  // A wide PHB barrier keeps a group commit in flight most of the time, so
  // seeded crash points usually land inside a dirty window (mid-frame).
  sc.phb_disk.sync_latency = msec(20);
  sc.shb_disk.sync_latency = msec(4);
  if (!wal_dir.empty()) {
    const std::string dir = wal_dir + "/seed" + std::to_string(seed);
    std::filesystem::remove_all(dir);
    sc.storage.file_dir = dir;
  }

  harness::System system(sc);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 400;
  harness::start_paper_publishers(system, wl);
  harness::add_group_subscribers(system, 0, /*count=*/4, /*groups=*/4,
                                 /*first_id=*/1);
  system.run_for(sec(2));

  // Codec leg: mangle a seeded handful of frames on every broker-chain
  // direction across the upcoming crash window, so decode rejects, torn WAL
  // tails and recovery handshakes all land in the same few hundred ms.
  const auto arm_chain_corruption = [&] {
    const sim::EndpointId phb = system.phb_endpoint();
    const sim::EndpointId mid = system.intermediate_endpoint(0);
    const sim::EndpointId shb = system.shb_endpoint(0);
    for (const auto& [a, b] : {std::pair{phb, mid}, std::pair{mid, shb}}) {
      system.network().corrupt_frames(a, b, 2 + static_cast<int>(rng.next_below(6)),
                                      rng.next_u64());
      system.network().corrupt_frames(b, a, 2 + static_cast<int>(rng.next_below(6)),
                                      rng.next_u64());
    }
  };

  SeedResult r;
  r.seed = seed;
  try {
    for (int c = 0; c < kCrashesPerSeed; ++c) {
      // Drift a seed-dependent slice so the crash instant (and with it the
      // barrier phase the entropy tears into) varies across seeds.
      system.run_for(msec(50 + static_cast<SimDuration>(rng.next_below(400))));
      // 0 = PHB, 1 = intermediate, 2 = SHB — every hop in the chain is a
      // legal crash target.
      const std::uint64_t target = rng.next_below(3);
      if (codec) arm_chain_corruption();
      const std::uint64_t entropy = rng.next_u64();
      core::NodeResources& node = target == 0   ? system.phb_node()
                                  : target == 1 ? system.intermediate_node(0)
                                                : system.shb_node(0);
      node.log_volume.set_crash_entropy(entropy);
      node.database.set_crash_entropy(entropy >> 7);
      switch (target) {
        case 0: system.crash_phb(); break;
        case 1: system.crash_intermediate(0); break;
        default: system.crash_shb(0); break;
      }
      ++r.crashes;
      system.run_for(msec(300 + static_cast<SimDuration>(rng.next_below(1200))));
      switch (target) {
        case 0: system.restart_phb(); break;
        case 1: system.restart_intermediate(0); break;
        default: system.restart_shb(0); break;
      }
      if (rng.next_below(3) == 0) {
        // Crash-during-recovery composition: kill the freshly restarted
        // broker again milliseconds into recovery, with fresh tear entropy.
        // The WAL written *by recovery itself* (resume handshakes, replayed
        // state) must be as crash-consistent as steady-state appends.
        system.run_for(msec(1 + static_cast<SimDuration>(rng.next_below(39))));
        const std::uint64_t entropy2 = rng.next_u64();
        node.log_volume.set_crash_entropy(entropy2);
        node.database.set_crash_entropy(entropy2 >> 7);
        switch (target) {
          case 0: system.crash_phb(); break;
          case 1: system.crash_intermediate(0); break;
          default: system.crash_shb(0); break;
        }
        ++r.crashes;
        ++r.recovery_crashes;
        system.run_for(msec(300 + static_cast<SimDuration>(rng.next_below(1200))));
        switch (target) {
          case 0: system.restart_phb(); break;
          case 1: system.restart_intermediate(0); break;
          default: system.restart_shb(0); break;
        }
      }
      system.run_for(sec(2));
    }
    system.run_for(sec(4));
    system.verify_quiescent();
  } catch (const std::exception& e) {
    r.violated = true;
    std::fprintf(stderr, "\nseed %llu violated the oracle: %s\n",
                 static_cast<unsigned long long>(seed), e.what());
    std::fprintf(stderr, "last truncation per WAL:\n");
    dump_corruptions(system);
    system.dump_flight_recorder(stderr);
  }

  for (core::NodeResources* node : system.nodes()) {
    r.recoveries += node->metrics.counter("wal.recoveries")->get();
    r.truncated_bytes += node->metrics.counter("wal.recovery_truncated_bytes")->get();
    r.torn_tail_recoveries += node->metrics.counter("wal.torn_tail_recoveries")->get();
  }
  r.corrupted_frames = system.network().corrupted_frames();
  r.decode_rejects = system.network().decode_rejects();
  r.published = system.oracle().published_count();
  r.delivered = system.oracle().delivered_count();
  return r;
}

}  // namespace
}  // namespace gryphon::bench

int gryphon::bench::run_recovery_fuzz(Args& args) {
  const std::string out_path = args.value("--out").value_or("");
  const std::string wal_dir = args.value("--wal-dir").value_or("");
  const bool smoke = args.flag("--smoke");
  const int num_seeds = args.positional<int>("seed count", smoke ? 3 : 100, 1);
  const auto first_seed = args.positional<std::uint64_t>("first seed", 1);
  args.finish();

  // The codec leg re-runs a slice of the seed range over the byte-level
  // wire with frame corruption armed across every crash window (the
  // crash x frame-fault cross product).
  const int codec_seeds = smoke ? 1 : std::max(3, num_seeds / 4);

  print_header("Recovery fuzz: " + std::to_string(num_seeds) + " struct + " +
               std::to_string(codec_seeds) + " codec seeds x " +
               std::to_string(kCrashesPerSeed) + " seeded crash points" +
               (wal_dir.empty() ? " (in-memory WAL)" : " (file WAL: " + wal_dir + ")"));
  print_row({"seed", "wire", "crashes", "rec_crash", "recoveries", "torn_tails",
             "trunc_bytes", "rejects", "published", "delivered", "verdict"}, 11);

  int violations = 0;
  int crash_points = 0;
  int recovery_crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t truncated_bytes = 0;
  std::uint64_t torn_tails = 0;
  std::uint64_t corrupted_frames = 0;
  std::uint64_t decode_rejects = 0;
  const auto run_leg = [&](int leg_seeds, bool codec) {
    for (int i = 0; i < leg_seeds; ++i) {
      const std::uint64_t seed = first_seed + static_cast<std::uint64_t>(i);
      const SeedResult r = run_seed(seed, wal_dir, codec);
      crash_points += r.crashes;
      recovery_crashes += r.recovery_crashes;
      recoveries += r.recoveries;
      truncated_bytes += r.truncated_bytes;
      torn_tails += r.torn_tail_recoveries;
      corrupted_frames += r.corrupted_frames;
      decode_rejects += r.decode_rejects;
      if (r.violated) ++violations;
      print_row({std::to_string(seed), codec ? "codec" : "struct",
                 std::to_string(r.crashes), std::to_string(r.recovery_crashes),
                 std::to_string(r.recoveries), std::to_string(r.torn_tail_recoveries),
                 std::to_string(r.truncated_bytes), std::to_string(r.decode_rejects),
                 std::to_string(r.published), std::to_string(r.delivered),
                 r.violated ? "VIOLATION" : "ok"}, 11);
    }
  };
  run_leg(num_seeds, /*codec=*/false);
  run_leg(codec_seeds, /*codec=*/true);

  std::printf("\n%d crash points (%d landed inside recovery), %llu recoveries, "
              "%llu torn-tail truncations (%llu bytes discarded), %llu frames "
              "mangled (%llu rejected), %d oracle violations\n",
              crash_points, recovery_crashes,
              static_cast<unsigned long long>(recoveries),
              static_cast<unsigned long long>(torn_tails),
              static_cast<unsigned long long>(truncated_bytes),
              static_cast<unsigned long long>(corrupted_frames),
              static_cast<unsigned long long>(decode_rejects), violations);

  bool failed = violations > 0;
  if (!smoke && torn_tails == 0) {
    std::printf("FUZZ GAP: no crash point tore a WAL tail mid-frame — the fuzzer "
                "is no longer reaching the interesting crash points\n");
    failed = true;
  }
  if (!smoke && recovery_crashes == 0) {
    std::printf("FUZZ GAP: no crash landed inside a recovery window — the "
                "crash-during-recovery composition stopped firing\n");
    failed = true;
  }
  if (!smoke && decode_rejects == 0) {
    std::printf("FUZZ GAP: the codec leg rejected no frames — the crash x "
                "frame-fault cross product stopped firing\n");
    failed = true;
  }

  if (!out_path.empty()) {
    WorkloadReport report;
    report.name = "recovery_fuzz";
    report.variant = "run";
    report.metrics = {
        {"seeds", static_cast<double>(num_seeds)},
        {"codec_seeds", static_cast<double>(codec_seeds)},
        {"crash_points", static_cast<double>(crash_points)},
        {"recovery_crashes", static_cast<double>(recovery_crashes)},
        {"oracle_violations", static_cast<double>(violations)},
    };
    report.registry = {
        {"wal.recoveries", static_cast<double>(recoveries)},
        {"wal.recovery_truncated_bytes", static_cast<double>(truncated_bytes)},
        {"wal.torn_tail_recoveries", static_cast<double>(torn_tails)},
        {"net.corrupted_frames", static_cast<double>(corrupted_frames)},
        {"net.decode_rejects", static_cast<double>(decode_rejects)},
    };
    write_bench_json(out_path, {report});
    std::printf("wrote %s\n", out_path.c_str());
  }
  return failed ? 1 : 0;
}
