#!/bin/sh
# Observability artifact pipelines, run by ctest (see tests/CMakeLists.txt).
# Each check drives the real binaries and inspects what they wrote or said.
#
#   artifact_checks.sh CHECK BINARY...
#
#   sim-report GRYPHON_SIM GRYPHON_REPORT
#       a --metrics-interval scrape through the report mode and a
#       --trace-out export through --validate-trace
#   chaos-trace BENCH_CHAOS_SOAK GRYPHON_REPORT
#       a chaos soak's trace export must carry a fault track
#   sim-full-device GRYPHON_SIM
#       a snapshot or a scrape that cannot be written exits 1
#   broker-unwritable-file GRYPHON_BROKER
#       a port file that cannot be written exits 1
#   deep-nesting GRYPHON_REPORT
#       two million '[' fail validation with exit 1 and a message
#   hex-number GRYPHON_REPORT
#       a scrape line holding a non-JSON number fails with exit 1
set -u
check=$1
shift
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT

case $check in
  sim-report)
    "$1" --duration 5 --quiet --metrics-json "$dir/s.ndjson" --metrics-interval 1 \
         --trace-out "$dir/t.json" >/dev/null || exit 1
    "$2" "$dir/s.ndjson" && "$2" --validate-trace "$dir/t.json"
    ;;
  chaos-trace)
    "$1" 1 1 5 --trace-out="$dir/t.json" >/dev/null || exit 1
    "$2" --validate-trace "$dir/t.json" --expect-fault-track
    ;;
  sim-full-device)
    "$1" --duration 1 --quiet --metrics-json /dev/full >/dev/null 2>&1
    test $? -eq 1 || exit 1
    "$1" --duration 1 --quiet --metrics-json /dev/full --metrics-interval 1 >/dev/null 2>&1
    test $? -eq 1
    ;;
  broker-unwritable-file)
    "$1" --role phb --name phb --listen 0 --port-file "$dir/missing/phb.port" \
         --run-for-sec 5 >/dev/null 2>&1
    test $? -eq 1
    ;;
  deep-nesting)
    head -c 2000000 /dev/zero | tr '\0' '[' >"$dir/t.json"
    "$1" --validate-trace "$dir/t.json" 2>"$dir/err"
    rc=$?
    cat "$dir/err"
    test $rc -eq 1 && grep -q 'nesting too deep' "$dir/err"
    ;;
  hex-number)
    printf '{"t": 0x10}\n' >"$dir/s.ndjson"
    "$1" "$dir/s.ndjson" 2>"$dir/err"
    rc=$?
    cat "$dir/err"
    test $rc -eq 1 && grep -q 'line 1:' "$dir/err"
    ;;
  *)
    echo "unknown check: $check" >&2
    exit 2
    ;;
esac
