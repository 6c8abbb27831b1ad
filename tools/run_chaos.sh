#!/usr/bin/env bash
# Chaos soak under ASan+UBSan: first builds the tier-1 configuration with
# warnings as errors, then builds the sanitizer preset and runs N seeded
# fault schedules plus the chaos, delivery-path, oracle, storage, WAL,
# socket, durability and wire test suites and a `gryphon_bench sockets`
# smoke of the real runtime, then runs the socket and power-loss durability
# suites again under ThreadSanitizer (the real runtime's syncer threads).
# Any invariant violation prints the offending
# seed and its decoded fault timeline; rerun with
#   gryphon_bench chaos_soak 1 <seed>
# (or ChaosConfig{.seed = <seed>} in a test) to replay it exactly.
#
# Usage: tools/run_chaos.sh [num_seeds] [first_seed] [horizon_s]
set -euo pipefail
cd "$(dirname "$0")/.."

NUM_SEEDS="${1:-10}"
FIRST_SEED="${2:-1}"
HORIZON_S="${3:-10}"

echo "== tier-1 build with warnings as errors =="
# The RelWithDebInfo build tier-1 runs, with -Werror: a new warning fails here.
cmake --preset werror
cmake --build --preset werror -j "$(nproc)"

cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$(nproc)" --target test_chaos test_delivery_path test_determinism_and_oracle test_net test_durability test_wire test_storage test_wal gryphon_broker_cli gryphon_bench gryphon_report

echo "== chaos test suite (asan-ubsan) =="
./build-asan/tests/test_chaos

echo "== delivery-path suite (asan-ubsan) =="
# The flat per-delivery state: the SHB session table and per-pubend entries
# (references into vectors, erased sessions under deferred sends), the link
# table's captured Link pointers, the oracle's streams, and the Logger clock
# a destroyed System must not leave behind.
./build-asan/tests/test_delivery_path

echo "== oracle suite (asan-ubsan) =="
# The oracle's owed sequences: head cursors, compaction, CT rewinds that
# truncate and re-derive a stream's suffix, and the gap and early-delivery
# side runs are all index arithmetic over vectors.
./build-asan/tests/test_determinism_and_oracle

echo "== storage and WAL suites (asan-ubsan) =="
# LogVolume::read returns a view into a MemoryBackend segment vector that a
# later append may reallocate; ASan catches a view held across that call.
./build-asan/tests/test_storage
./build-asan/tests/test_wal

echo "== socket and wire suites (asan-ubsan) =="
# Real sockets (reassembly, connection close paths, the forked broker smoke
# topology) and the frame/payload codec, with the sanitizers watching.
GRYPHON_BROKER_BIN=./build-asan/tools/gryphon_broker ./build-asan/tests/test_net
./build-asan/tests/test_durability
./build-asan/tests/test_wire

echo "== real-runtime smoke (asan-ubsan): sockets, exactly-once only =="
# PHB, SHB, publisher and subscriber over loopback TCP under a paced load:
# frames written inside send(), decoded and handled inside the read
# callback, client handlers run inline. Exits non-zero unless every event
# arrives exactly once; the latency gate (--check) is left to
# tools/run_bench.sh, since sanitizers slow the loop.
./build-asan/bench/gryphon_bench sockets --smoke

echo "== socket and durability suites (tsan) =="
# The first second thread in a broker process: each node's fdatasync syncer
# hands completions back to the event loop through an eventfd. TSan checks
# that hand-off, the shared Logger and the held-open segment files.
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" --target test_net test_durability gryphon_broker_cli
GRYPHON_BROKER_BIN=./build-tsan/tools/gryphon_broker ./build-tsan/tests/test_net
./build-tsan/tests/test_durability

echo "== substrate smoke (asan-ubsan): wallclock 1 seed =="
./build-asan/bench/gryphon_bench wallclock --smoke

echo "== recovery fuzz smoke (asan-ubsan): seeded crash points =="
./build-asan/bench/gryphon_bench recovery_fuzz --smoke

echo "== churn storm smoke (asan-ubsan): reconnect herd under admission control =="
./build-asan/bench/gryphon_bench churn_storm --smoke

echo "== scale smoke (asan-ubsan): covering index + sharded PFS gates =="
SCALE_SMOKE_JSON="$(mktemp)"
./build-asan/bench/gryphon_bench scale_1m --smoke --out "${SCALE_SMOKE_JSON}"
rm -f "${SCALE_SMOKE_JSON}"

echo "== flight recorder negative test: injected violation must dump =="
# A fabricated exactly-once violation must (a) fail the run and (b) produce
# the merged flight-recorder dump with a milestone checklist focused on the
# offending (pubend, tick). A "passing" injected run means the recorder is
# broken, so this asserts the failure.
INJECT_LOG="$(mktemp)"
if ./build-asan/bench/gryphon_bench chaos_soak 1 "${FIRST_SEED}" 5 --inject-violation \
    >"${INJECT_LOG}" 2>&1; then
  echo "ERROR: injected violation did not fail the run" >&2
  cat "${INJECT_LOG}" >&2
  rm -f "${INJECT_LOG}"
  exit 1
fi
for marker in "=== flight recorder: merged tick trace" \
              "--- milestone checklist for pubend" \
              "violation focus:"; do
  if ! grep -qF -e "${marker}" "${INJECT_LOG}"; then
    echo "ERROR: flight-recorder dump missing marker: ${marker}" >&2
    cat "${INJECT_LOG}" >&2
    rm -f "${INJECT_LOG}"
    exit 1
  fi
done
rm -f "${INJECT_LOG}"
echo "ok: injected violation produced the focused flight-recorder dump"

echo "== chaos trace export: fault windows on a Perfetto-loadable track =="
# One seeded schedule exported as a Chrome trace-event JSON, then validated:
# well-formed JSON, monotonically non-decreasing timestamps, and at least one
# chaos fault window on the dedicated "faults" track.
CHAOS_TRACE="$(mktemp --suffix=.trace.json)"
./build-asan/bench/gryphon_bench chaos_soak 1 "${FIRST_SEED}" 5 \
    --trace-out="${CHAOS_TRACE}"
./build-asan/tools/gryphon_report --validate-trace "${CHAOS_TRACE}" \
    --expect-fault-track
rm -f "${CHAOS_TRACE}"

echo "== chaos soak: ${NUM_SEEDS} seeds from ${FIRST_SEED}, ${HORIZON_S}s horizon =="
./build-asan/bench/gryphon_bench chaos_soak "${NUM_SEEDS}" "${FIRST_SEED}" "${HORIZON_S}"

echo "== codec chaos soak: byte transport + seeded frame corruption =="
# Same fault schedules, but every link runs through the wire codec (encode on
# send, CRC-checked decode on delivery) and frame-corruption windows flip or
# truncate bytes in flight. The receiving transport must reject every mangled
# frame as a drop — under ASan this also shakes out any decoder that reads
# past a truncated buffer. --wire-verify=always disables the 1-in-N sampling
# of the canonical re-encode check so every accepted decode is round-trip
# verified while the sanitizers watch.
./build-asan/bench/gryphon_bench chaos_soak "${NUM_SEEDS}" "${FIRST_SEED}" "${HORIZON_S}" \
    --wire=codec --frame-faults --wire-verify=always
