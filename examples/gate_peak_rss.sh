#!/usr/bin/env sh
# Memory-growth gate over cbc_node / cbc_kv reports. Each report's
# peak_rss_kb is its process's VmHWM. Run the same cluster twice, SHORT
# and LONG rounds, on one host and build; the gate fails unless each run
# holds exactly COUNT `peak_rss_kb=` lines (one per process) and every
# process of the long run peaks at most SLACK_KB above the short run's
# largest peak. The shared-library and runtime baseline, which differs
# from host to host, is in both runs and cancels out: what fails the gate
# is retained state that grows with run length.
#
# SHORT and LONG are each a file of reports (run_cluster.sh's output) or
# a directory whose report_*.txt files hold one each (run_kv.sh OUT_DIR).
#
# Usage: examples/gate_peak_rss.sh SLACK_KB COUNT SHORT LONG
set -eu

if [ "$#" -ne 4 ]; then
  echo "usage: $0 SLACK_KB COUNT SHORT LONG" >&2
  exit 2
fi
SLACK=$1
COUNT=$2

# Prints the peak_rss_kb values of reports $1, one a line; fails unless
# there are exactly COUNT of them.
peaks() {
  if [ -d "$1" ]; then
    cat "$1"/report_*.txt
  else
    cat "$1"
  fi | awk -F= -v count="$COUNT" -v what="$1" '
    /^peak_rss_kb=/ { print $2 + 0; seen += 1 }
    END {
      if (seen != count) {
        printf "%s: expected %d peak_rss_kb lines, found %d\n", what, count,
               seen > "/dev/stderr"
        exit 1
      }
    }'
}

SHORT_PEAKS=$(peaks "$3")
LONG_PEAKS=$(peaks "$4")
BASE=$(printf '%s\n' "$SHORT_PEAKS" | sort -n | tail -n 1)
echo "$3: largest peak_rss_kb=$BASE of $COUNT"
printf '%s\n' "$LONG_PEAKS" | awk -v base="$BASE" -v slack="$SLACK" \
    -v what="$4" '
  {
    verdict = ($1 <= base + slack) ? "ok" : "GREW"
    if (verdict == "GREW") grew += 1
    printf "%s: peak_rss_kb=%d %s (%+d KiB, gate +%d KiB)\n", what, $1,
           verdict, $1 - base, slack
  }
  END { exit grew > 0 }'
