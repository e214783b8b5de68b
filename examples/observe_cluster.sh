#!/usr/bin/env sh
# Launches a 3-node cluster with the observability layer on: every node
# runs --trace (its flight ring, sized up, is decoded into a Chrome trace
# at SIGTERM, with Occurs_After edges joined from its recorded deps),
# serves live Prometheus metrics off its event loop, and snapshots the
# page to disk. The script waits for the workload, scrapes a live
# endpoint, merges the per-node traces into one timeline (load it in
# Perfetto / chrome://tracing), and leaves all artifacts in OUT_DIR:
#
#   scrape.prom        live scrape of node 0's /metrics endpoint
#   metricsN.prom      each node's final snapshot file
#   traceN.json        each node's Chrome trace
#   trace_merged.json  the merged cross-process timeline
#   latency.json       cbc_trace_merge --report-json over the three traces
#   reportN.txt        each node's key=value report
#
# Exits non-zero unless the merged trace has deliver spans for every
# node, at least one Occurs_After flow, and nonzero encode, wire, hold
# and deliver sample counts in latency.json.
#
# Usage: examples/observe_cluster.sh [BUILD_DIR] [ROUNDS] [OPS] [OUT_DIR] [OBJECT]
#
# OBJECT picks the replicated object the cluster runs (--object; any
# catalog name: counter, registry, document, card_game, set, queue).
# Defaults to $CBC_CLUSTER_OBJECT when set, else counter.
set -eu

BUILD_DIR=${1:-build}
ROUNDS=${2:-10}
OPS=${3:-20}
OUT=${4:-$(mktemp -d /tmp/cbc_observe.XXXXXX)}
OBJECT=${5:-${CBC_CLUSTER_OBJECT:-counter}}
NODE_BIN=$BUILD_DIR/src/net/cbc_node
MERGE_BIN=$BUILD_DIR/src/obs/cbc_trace_merge
for bin in "$NODE_BIN" "$MERGE_BIN"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built (run: cmake --build $BUILD_DIR --target cbc_node cbc_trace_merge)" >&2
    exit 1
  fi
done
mkdir -p "$OUT"

trap 'kill $P0 $P1 $P2 2>/dev/null || true' EXIT INT TERM

cat > "$OUT/cluster.txt" <<EOF
0 127.0.0.1:9111
1 127.0.0.1:9112
2 127.0.0.1:9113
EOF

for i in 0 1 2; do
  "$NODE_BIN" --config "$OUT/cluster.txt" --id $i \
      --rounds "$ROUNDS" --ops "$OPS" --object "$OBJECT" \
      --report "$OUT/report$i.txt" --progress "$OUT/progress$i.txt" \
      --trace "$OUT/trace$i.json" \
      --metrics-port 0 --metrics-snapshot "$OUT/metrics$i.prom" &
  eval "P$i=\$!"
done

for i in 0 1 2; do
  while ! grep -q '^done=1' "$OUT/report$i.txt" 2>/dev/null; do sleep 0.1; done
done

# Scrape node 0's live endpoint (the kernel picked the port; the node
# published it in its report).
PORT=$(sed -n 's/^metrics_port=//p' "$OUT/report0.txt")
if command -v curl >/dev/null 2>&1; then
  curl -sf "http://127.0.0.1:$PORT/metrics" > "$OUT/scrape.prom"
else
  python3 -c "import urllib.request,sys;
sys.stdout.write(urllib.request.urlopen('http://127.0.0.1:$PORT/metrics').read().decode())" \
    > "$OUT/scrape.prom"
fi

# SIGTERM flushes each node's final report, snapshot, and trace.
kill -TERM $P0 $P1 $P2
wait $P0 $P1 $P2 2>/dev/null || true

"$MERGE_BIN" -o "$OUT/trace_merged.json" --report-json "$OUT/latency.json" \
    "$OUT/trace0.json" "$OUT/trace1.json" "$OUT/trace2.json"

# Gate the merged timeline on the stages the single event pipeline must
# carry end to end.
python3 - "$OUT/trace_merged.json" "$OUT/latency.json" <<'EOF'
import json
import sys
from collections import Counter

events = json.load(open(sys.argv[1]))["traceEvents"]
report = json.load(open(sys.argv[2]))
delivering = {e["pid"] for e in events
              if e["ph"] == "X" and e["name"] == "deliver"}
edge = {ph: Counter(e["id"] for e in events
                    if e.get("cat") == "occurs_after" and e["ph"] == ph)
        for ph in ("s", "f")}
flows = sum(min(n, edge["f"][key]) for key, n in edge["s"].items())
problems = ["no deliver spans for node %d" % pid
            for pid in (0, 1, 2) if pid not in delivering]
if flows == 0:
    problems.append("no Occurs_After flows")
problems += ["no %s samples in latency.json" % stage
             for stage in ("encode", "wire", "hold", "deliver")
             if report[stage]["count"] == 0]
for problem in problems:
    print("observe_cluster: FAIL: " + problem, file=sys.stderr)
print("--- merged trace: %d nodes with deliver spans, %d Occurs_After flows"
      % (len(delivering), flows))
sys.exit(1 if problems else 0)
EOF

echo "--- scraped from node 0 (port $PORT)"
grep -E '^cbc_(osend_delivered|udp_datagrams_sent|batch_messages_in|check_stable_points) ' \
    "$OUT/scrape.prom" || true
echo "--- artifacts in $OUT"
ls "$OUT"
