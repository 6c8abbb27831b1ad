#!/usr/bin/env bash
# Multi-process broker demo over real TCP sockets.
#
# Launches the full stand-alone runtime topology as 7 broker processes —
#   1 PHB  <-  2 intermediates  <-  4 SHBs (two per intermediate)
# — plus one publisher and four durable subscribers (one per SHB), every
# link a real loopback socket, every broker on FileBackend WALs. A third of
# the way into the stream it SIGKILLs one SHB and restarts it on the same
# port over its surviving WAL directory; the restarted process must adopt
# the segments (recover(), not a cold start) and its subscriber must still
# end with exactly-once delivery.
#
# The oracle applied at the end:
#   - every process exits 0,
#   - publisher: published == acked == EVENTS,
#   - every subscriber: received == EVENTS, gaps == 0, decode_rejects == 0,
#   - the restarted SHB reports "adopted":true.
#
# Usage: tools/run_broker_demo.sh [events]   (default 3000)
set -uo pipefail
cd "$(dirname "$0")/.."

BIN="${GRYPHON_BROKER_BIN:-build/tools/gryphon_broker}"
EVENTS="${1:-3000}"
PUBENDS=4
RUN_CAP=180   # hard wall-clock cap handed to every process (seconds)

if [ ! -x "$BIN" ]; then
  echo "broker binary not found at $BIN (build it or set GRYPHON_BROKER_BIN)" >&2
  exit 2
fi

DIR="$(mktemp -d "${TMPDIR:-/tmp}/gryphon_demo.XXXXXX")"
PIDS=()
cleanup() {
  kill "${PIDS[@]}" >/dev/null 2>&1 || true
  wait >/dev/null 2>&1 || true
  rm -rf "$DIR"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# Blocks until the process writes its port file (brokers write it only once
# the listener is live), then echoes the port.
wait_port() {
  local file=$1
  for _ in $(seq 150); do
    if [ -s "$file" ]; then cat "$file"; return 0; fi
    sleep 0.1
  done
  return 1
}

# field <json-file> <key> — pulls a bare integer/bool out of the one-line
# result JSON without needing jq.
field() { sed -n "s/.*\"$2\":\([a-z0-9]*\).*/\1/p" "$1"; }

broker() {  # broker <name> <role> <extra args...>
  local name=$1 role=$2; shift 2
  mkdir -p "$DIR/$name"
  "$BIN" --role "$role" --name "$name" --listen 0 --port-file "$DIR/$name.port" \
         --wal-dir "$DIR/$name" --pubends $PUBENDS --run-for-sec $RUN_CAP \
         --result-file "$DIR/$name.json" "$@" &
  PIDS+=($!)
}

echo "== demo dir $DIR, $EVENTS events over $PUBENDS pubends =="

broker phb phb --children 2
PHB_PORT=$(wait_port "$DIR/phb.port") || fail "phb never opened its port"

broker imb0 imb --children 2 --parent "127.0.0.1:$PHB_PORT"
broker imb1 imb --children 2 --parent "127.0.0.1:$PHB_PORT"
IMB0_PORT=$(wait_port "$DIR/imb0.port") || fail "imb0 never opened its port"
IMB1_PORT=$(wait_port "$DIR/imb1.port") || fail "imb1 never opened its port"

SHB_PORT=()
SHB_PID=()
for s in 0 1 2 3; do
  parent=$IMB0_PORT; [ $s -ge 2 ] && parent=$IMB1_PORT
  broker "shb$s" shb --parent "127.0.0.1:$parent"
  SHB_PID[$s]=${PIDS[-1]}
  SHB_PORT[$s]=$(wait_port "$DIR/shb$s.port") || fail "shb$s never opened its port"
done
echo "== 7 brokers up (phb:$PHB_PORT imb:$IMB0_PORT,$IMB1_PORT shb:${SHB_PORT[*]}) =="

SUB_PID=()
for s in 0 1 2 3; do
  "$BIN" --role sub --name "sub$s" --client-id $((s + 1)) \
         --parent "127.0.0.1:${SHB_PORT[$s]}" --pubends $PUBENDS \
         --expect "$EVENTS" --run-for-sec $RUN_CAP \
         --started-file "$DIR/sub$s.started" \
         --result-file "$DIR/sub$s.json" &
  SUB_PID[$s]=$!
  PIDS+=($!)
done
# Durable subscriptions cover ticks from their establishment onward: a
# subscriber writes its started file once its SHB confirmed the
# subscription, so the stream starts only after all four hold.
for s in 0 1 2 3; do
  wait_port "$DIR/sub$s.started" >/dev/null || fail "sub$s never subscribed"
done
"$BIN" --role pub --name pub0 --client-id 1 --parent "127.0.0.1:$PHB_PORT" \
       --pubends $PUBENDS --events "$EVENTS" --interval-usec 1000 \
       --run-for-sec $RUN_CAP --started-file "$DIR/pub.started" \
       --result-file "$DIR/pub.json" &
PUB_PID=$!
PIDS+=($!)
wait_port "$DIR/pub.started" >/dev/null || fail "publisher never started"

# Let a third of the stream run (one event per millisecond from the first
# publish), then murder shb1 mid-flight and bring it back on the same port
# over the WAL segments the dead process left behind.
sleep "$(awk -v n="$EVENTS" 'BEGIN { printf "%.3f", n / 3000 }')"
echo "== SIGKILL shb1 (pid ${SHB_PID[1]}) mid-stream =="
kill -9 "${SHB_PID[1]}" 2>/dev/null || true
sleep 1
echo "== restarting shb1 on port ${SHB_PORT[1]} over its WAL =="
rm -f "$DIR/shb1.port"
"$BIN" --role shb --name shb1 --listen "${SHB_PORT[1]}" --port-file "$DIR/shb1.port" \
       --parent "127.0.0.1:$IMB0_PORT" --wal-dir "$DIR/shb1" \
       --pubends $PUBENDS --run-for-sec $RUN_CAP \
       --result-file "$DIR/shb1.json" &
SHB_PID[1]=$!
PIDS+=($!)
wait_port "$DIR/shb1.port" >/dev/null || fail "restarted shb1 never opened its port"

wait "$PUB_PID" || fail "publisher exited nonzero"
for s in 0 1 2 3; do
  wait "${SUB_PID[$s]}" || fail "sub$s exited nonzero"
done
echo "== clients done; stopping brokers =="

# Graceful stop so every broker writes its result file (SIGTERM -> result).
for s in 0 1 2 3; do kill "${SHB_PID[$s]}" 2>/dev/null || true; done
for _ in $(seq 100); do
  [ -s "$DIR/shb1.json" ] && break
  sleep 0.1
done

echo "== results =="
cat "$DIR/pub.json" "$DIR"/sub?.json "$DIR/shb1.json" 2>/dev/null

[ "$(field "$DIR/pub.json" published)" = "$EVENTS" ] || fail "publisher published != $EVENTS"
[ "$(field "$DIR/pub.json" acked)" = "$EVENTS" ]     || fail "publisher acked != $EVENTS"
for s in 0 1 2 3; do
  f="$DIR/sub$s.json"
  [ "$(field "$f" received)" = "$EVENTS" ] || fail "sub$s received != $EVENTS"
  [ "$(field "$f" gaps)" = "0" ]           || fail "sub$s saw delivery gaps"
  [ "$(field "$f" decode_rejects)" = "0" ] || fail "sub$s saw decode rejects"
done
[ "$(field "$DIR/shb1.json" adopted)" = "true" ] || fail "restarted shb1 did not adopt its WAL"

echo "PASS: $EVENTS events exactly-once across 4 subscribers, shb1 WAL-recovered mid-stream"
