#!/usr/bin/env bash
# Substrate wall-clock regression gate: builds the Release preset, runs
# `gryphon_bench wallclock`, and compares simulated-events-per-wall-second (for the
# 5,000-subscriber reconnect herd, catchup_herd_5k: deliveries per
# wall-second) against the post_pr numbers committed in BENCH_substrate.json.
# Exits non-zero when any workload regresses by more than the tolerance
# (default 15%).
#
# Usage: tools/run_bench.sh [tolerance] [reps]
#
# The fresh numbers land in BENCH_substrate.json.new next to the committed
# file; after an intentional perf change, re-record with
#   ./build-release/bench/gryphon_bench wallclock --out BENCH_substrate.json
# and update the variant tags (pre_pr_baseline / post_pr) by hand.
#
# Each workload entry in the JSON also carries a nested "metrics" block of
# broker-internal registry counters (summed over nodes). The wallclock
# workload itself fails on protocol-counter regressions (e.g. shb.gaps_sent > 0 on
# the steady fig4 workload), so a counter drifting into pathological
# territory fails this gate even when throughput looks fine. It also fails
# outright if the codec-mode steady workload runs slower than 2.0x its
# struct-mode twin or allocates more than 10 heap blocks per simulated
# event — the codec-tax ceiling, enforced independently of the committed
# baseline numbers.
#
# It also gates the real runtime: `gryphon_bench sockets --check
# BENCH_sockets.json` reruns the paced loopback-TCP topology (fdatasync'ed
# WALs) and fails unless delivery is exactly-once and e2e p50 and p99 stay
# under the gates the committed file records.
set -euo pipefail
cd "$(dirname "$0")/.."

TOLERANCE="${1:-0.15}"
REPS="${2:-3}"

cmake --preset release
cmake --build --preset release -j "$(nproc)" --target gryphon_bench

./build-release/bench/gryphon_bench wallclock \
  --out BENCH_substrate.json.new \
  --check BENCH_substrate.json \
  --tolerance "${TOLERANCE}" \
  --reps "${REPS}"

# Million-subscriber scale gates (DESIGN.md §4.8): the smoke tier self-asserts
# covering compression, sublinear match cost and shard parity, exiting
# non-zero on any gate failure.
./build-release/bench/gryphon_bench scale_1m --smoke --out BENCH_scale_1m.json.smoke
rm -f BENCH_scale_1m.json.smoke

# The committed full-scale artifact must carry passing gates — catches a
# re-recorded BENCH_scale_1m.json that silently shipped a failing gate.
for gate in gate_covering_compression gate_sublinear_match gate_shard_parity; do
  if ! grep -qE "\"${gate}\": 1" BENCH_scale_1m.json; then
    echo "ERROR: committed BENCH_scale_1m.json missing passing ${gate}" >&2
    exit 1
  fi
done

# The metrics block must have been recorded for the steady workload —
# guards against the registry silently going dark.
if ! grep -qF '"metrics": {' BENCH_substrate.json.new; then
  echo "ERROR: BENCH_substrate.json.new has no registry metrics block" >&2
  exit 1
fi

# Same for the per-stage latency percentiles: a fresh run with no "latency"
# block means the LatencyRecorder pipeline went dark, and the committed
# churn-storm artifact must keep carrying its catchup-wait histogram.
if ! grep -qF '"latency": {' BENCH_substrate.json.new; then
  echo "ERROR: BENCH_substrate.json.new has no latency percentile block" >&2
  exit 1
fi
if ! grep -qF '"latency": {' BENCH_churn_storm.json; then
  echo "ERROR: committed BENCH_churn_storm.json has no latency block" >&2
  exit 1
fi

# Real runtime: exactly-once and the e2e p50/p99 gates recorded in
# BENCH_sockets.json (re-record with --out BENCH_sockets.json).
./build-release/bench/gryphon_bench sockets --check BENCH_sockets.json
