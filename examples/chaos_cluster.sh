#!/usr/bin/env sh
# Chaos smoke: a 3-node cluster run under a seeded FaultPlan (loss +
# added latency + a scripted partition on the survivor links), with
# stable-point checkpointing and the heartbeat failure detector on.
# Node 2 quiesces after QUIESCE_ROUND, is SIGKILLed mid-run — no final
# report, no graceful departure — and is relaunched with --recover as
# soon as both survivors' failure detectors have suspected it: the fresh
# process fetches a survivor's checkpoint over the state-transfer
# frames, restores, and rejoins a round still running through leader
# admission. The script fails unless every member (including the
# recovered one) reports the identical stable-point digest with zero
# checker violations, and unless the recovered node started rounds past
# the cycle it restored (it rejoined live traffic, not a finished run).
#
# Artifacts left in OUT_DIR: fault.txt, reportN.txt, metricsN.prom
# (gated in CI by bench/compare.py --metrics), flightN.bin (file-backed
# flight-recorder rings; flight2_killed.bin preserves the SIGKILLed
# incarnation's ring before the relaunch overwrites the path).
#
# Usage: examples/chaos_cluster.sh [BUILD_DIR] [ROUNDS] [OPS] [OUT_DIR] [OBJECT]
#
# OBJECT picks the replicated object the cluster runs (--object; any
# catalog name: counter, queue, registry, ...). Defaults to
# $CBC_CLUSTER_OBJECT when set, else counter.
set -eu

BUILD_DIR=${1:-build}
ROUNDS=${2:-100}
OPS=${3:-10}
OUT=${4:-$(mktemp -d /tmp/cbc_chaos.XXXXXX)}
OBJECT=${5:-${CBC_CLUSTER_OBJECT:-counter}}
QUIESCE_ROUND=2
SUSPECT_MS=4000
NODE_BIN=$BUILD_DIR/src/net/cbc_node
if [ ! -x "$NODE_BIN" ]; then
  echo "error: $NODE_BIN not built (run: cmake --build $BUILD_DIR --target cbc_node)" >&2
  exit 1
fi
mkdir -p "$OUT"

trap 'kill $P0 $P1 $P2 2>/dev/null || true' EXIT INT TERM

cat > "$OUT/cluster.txt" <<EOF
0 127.0.0.1:9121
1 127.0.0.1:9122
2 127.0.0.1:9123
EOF

# Adversity on the SURVIVOR links only: the victim's links stay clean so
# its pre-kill traffic drains promptly and the safe-kill ordering below
# is reached fast. The partition window (1s) is shorter than the suspect
# timeout, so it never triggers false suspicion — a false suspicion
# would let the leader close cycles without a live member's markers and
# fork the digest chain (see docs/ROBUSTNESS.md).
cat > "$OUT/fault.txt" <<EOF
seed 42
link 0 1 drop 0.08 delay 200 1500
link 1 0 drop 0.08 delay 200 1500
partition 2000000 1000000 0|1
EOF

start_node() {
  i=$1
  shift
  "$NODE_BIN" --config "$OUT/cluster.txt" --id "$i" \
      --rounds "$ROUNDS" --ops "$OPS" --object "$OBJECT" \
      --fault-plan "$OUT/fault.txt" \
      --checkpoint "$OUT/checkpoint$i.bin" \
      --suspect-timeout-ms "$SUSPECT_MS" \
      --report "$OUT/report$i.txt" --progress "$OUT/progress$i.txt" \
      --metrics-port 0 --metrics-snapshot "$OUT/metrics$i.prom" \
      --flight "$OUT/flight$i.bin" \
      "$@" &
  eval "P$i=\$!"
}

# Blocks until progress file $1 reports key $2 >= $3.
wait_progress() {
  while ! awk -F= -v key="$2" -v want="$3" \
      '$1 == key && $2 + 0 >= want { ok = 1 } END { exit !ok }' \
      "$1" 2>/dev/null; do
    sleep 0.1
  done
}

# Blocks until metrics page $1 (rewritten every 250 ms) reports series
# $2 >= $3.
wait_metric() {
  while ! awk -v key="$2" -v want="$3" \
      '$1 == key && $2 + 0 >= want { ok = 1 } END { exit !ok }' \
      "$1" 2>/dev/null; do
    sleep 0.1
  done
}

start_node 0
start_node 1
start_node 2 --quiesce-at-round "$QUIESCE_ROUND"

# Safe-kill ordering: the victim must be drained (quiesced=1) AND both
# survivors must have delivered its quiesce-round sync, so the transfer
# peer's checkpoint frontier covers every message node 2 ever sent
# (else the recovered process would reuse sequence numbers of its own
# uncovered messages and peers would dup-drop them).
wait_progress "$OUT/progress2.txt" quiesced 1
wait_progress "$OUT/progress0.txt" syncs $((QUIESCE_ROUND + 1))
wait_progress "$OUT/progress1.txt" syncs $((QUIESCE_ROUND + 1))

echo "--- SIGKILL node 2 (no departure, no report)"
kill -KILL "$P2"
wait "$P2" 2>/dev/null || true

# The killed incarnation left no report and flushed nothing — its only
# evidence is the file-backed flight ring, which survives SIGKILL by
# construction. Preserve it before the relaunch reuses the path, and
# prove it still decodes when the decoder CLI is built.
cp "$OUT/flight2.bin" "$OUT/flight2_killed.bin"
FLIGHT_BIN=$BUILD_DIR/src/obs/cbc_flight
if [ -x "$FLIGHT_BIN" ]; then
  echo "--- postmortem: flight ring of the killed node 2"
  "$FLIGHT_BIN" --summary "$OUT/flight2_killed.bin"
fi

# Relaunch once the failure detector has fired on both survivors, so the
# chaos gate can require suspect and alive events: the leader marks node
# 2 departed and closes rounds without its marker meanwhile, and the
# relaunched process restores the latest checkpoint and is admitted into
# a round still running. Waiting longer would let the run finish first,
# leaving the recovered node nothing to rejoin.
wait_metric "$OUT/metrics0.prom" cbc_reliable_suspect_events 1
wait_metric "$OUT/metrics1.prom" cbc_reliable_suspect_events 1

echo "--- relaunch node 2 with --recover"
start_node 2 --recover

for i in 0 1 2; do
  while ! grep -q '^done=1' "$OUT/report$i.txt" 2>/dev/null; do sleep 0.1; done
done

# SIGTERM flushes each node's final report and metrics snapshot.
kill -TERM "$P0" "$P1" "$P2"
wait "$P0" "$P1" "$P2" 2>/dev/null || true

for i in 0 1 2; do
  echo "--- node $i"
  cat "$OUT/report$i.txt"
done

FAIL=0
D0=$(grep '^digest=' "$OUT/report0.txt")
for i in 1 2; do
  Di=$(grep "^digest=" "$OUT/report$i.txt")
  if [ "$Di" != "$D0" ]; then
    echo "DIGEST MISMATCH: node $i $Di vs node 0 $D0" >&2
    FAIL=1
  fi
done
for i in 0 1 2; do
  if ! grep -q '^violations=0' "$OUT/report$i.txt"; then
    echo "CHECKER VIOLATIONS at node $i" >&2
    FAIL=1
  fi
done
if ! grep -q '^recovered=1' "$OUT/report2.txt"; then
  echo "node 2 report does not carry recovered=1" >&2
  FAIL=1
fi
# Live rejoin: the recovered node started rounds past the cycles it
# restored. A node relaunched after the last round closed restores every
# cycle and starts none.
STARTED=$(sed -n 's/^rounds_started=//p' "$OUT/report2.txt")
RESTORED=$(awk '$1 == "cbc_recovery_restored_cycles" { print $2 + 0 }' \
    "$OUT/metrics2.prom")
if [ -z "$STARTED" ] || [ -z "$RESTORED" ] ||
    [ "$STARTED" -le "$RESTORED" ]; then
  echo "node 2 rejoined no live round: rounds_started=$STARTED" \
      "restored_cycles=$RESTORED" >&2
  FAIL=1
fi
[ "$FAIL" -eq 0 ] || exit 1
echo "all members (incl. SIGKILLed + recovered node 2) agree: $D0"
echo "--- artifacts in $OUT"
ls "$OUT"
