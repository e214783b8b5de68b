#!/usr/bin/env python3
"""Compare a fresh Google-Benchmark JSON run against a committed baseline.

Usage:
    bench/compare.py BASELINE.json FRESH.json [--threshold 0.5]
    bench/compare.py --metrics BASELINE.prom FRESH.prom \
        [--key name[:slack]]... [--require-positive name]...

Exits non-zero when any benchmark present in the baseline

  * is missing from the fresh run (coverage silently lost), or
  * regressed by more than --threshold (fractional; 0.5 == +50% time).

A file recorded with --benchmark_repetitions is read through its
`median` aggregate rows (keyed by run_name, so "BM_X/4_median" compares
as "BM_X/4"); a file without them through its per-iteration rows. CI
records with --benchmark_repetitions=5
--benchmark_report_aggregates_only=true, so one noisy repetition moves
neither side of the gate.

A file may hold the runs of several processes, their `benchmarks` lists
concatenated; each benchmark is then gated on the median over processes.
Repetitions inside one process do not capture the spread between
processes, which on a shared 4-vCPU VM moved single rows by up to 90%,
so BENCH_m1.json and CI's fresh m1 run each hold five processes,
merged with

    jq -s '{context: .[0].context, benchmarks: [.[].benchmarks[]]}' \
        RUN1.json RUN2.json RUN3.json RUN4.json RUN5.json > MERGED.json

Benchmarks new in the fresh run are reported but never fail the gate, so
adding benchmarks does not require touching the baseline in the same
change. The default threshold is deliberately loose: shared CI runners
jitter by tens of percent, and this gate exists to catch order-of-
magnitude regressions (an accidental O(n^2), a lost zero-copy path), not
single-digit noise. Tighten it when running on quiet hardware.

With --metrics the two inputs are Prometheus plaintext snapshots (as
written by `cbc_node --metrics-snapshot` or scraped from its endpoint)
and the gate is on counter *deltas*: for every --key name[:slack] the
fresh value may exceed the baseline by at most `slack` (absolute;
default 0). That is the right shape for recovery-work counters —
retransmissions, drops, batch flushes — where a committed baseline of
zeros plus a small slack says "this workload should need almost no
recovery". --require-positive names counters that must be strictly
positive in the fresh snapshot (traffic actually flowed).
"""

import argparse
import json
import statistics
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_times(path):
    """Returns {benchmark name: real_time in ns}: per process, the median
    aggregate of each benchmark when the file has them, else its
    per-iteration row; over the processes in the file, their median."""
    with open(path) as fh:
        data = json.load(fh)
    rows = data.get("benchmarks", [])
    medians = any(bench.get("aggregate_name") == "median" for bench in rows)
    times = {}
    for bench in rows:
        if medians:
            if bench.get("aggregate_name") != "median":
                continue
            name = bench.get("run_name", bench["name"])
        elif bench.get("run_type") == "aggregate":
            continue  # mean/stddev/cv without a median: not gated
        else:
            name = bench["name"]
        unit = _UNIT_NS.get(bench.get("time_unit", "ns"))
        if unit is None or "real_time" not in bench:
            continue
        times.setdefault(name, []).append(bench["real_time"] * unit)
    return {name: statistics.median(runs) for name, runs in times.items()}


def load_prom(path):
    """Returns {metric name: value} from a Prometheus plaintext page.

    Label decoration is stripped and same-name series are summed, so a
    gate on `cbc_kv_requests` sees the value whether the process exposes
    it bare or as `cbc_kv_requests{shard="0",replica="1"}`. Histogram
    bucket series aggregate under their `_bucket` name, which no gate
    targets.
    """
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                continue  # labels with spaces, exemplars: not gated
            name = parts[0]
            brace = name.find("{")
            if brace != -1:
                name = name[:brace]
            try:
                values[name] = values.get(name, 0.0) + float(parts[1])
            except ValueError:
                continue
    return values


def compare_metrics(args):
    baseline = load_prom(args.baseline)
    fresh = load_prom(args.fresh)
    if not fresh:
        print(f"error: no series in fresh snapshot {args.fresh}")
        return 2

    failures = []
    gated = []
    for spec in args.key or []:
        name, _, slack_text = spec.partition(":")
        slack = float(slack_text) if slack_text else 0.0
        gated.append((name, slack))

    names = [name for name, _ in gated] + (args.require_positive or [])
    width = max((len(name) for name in names), default=10)
    for name, slack in gated:
        if name not in fresh:
            failures.append(f"{name}: missing from fresh snapshot")
            print(f"{name:<{width}}  MISSING")
            continue
        base = baseline.get(name, 0.0)
        delta = fresh[name] - base
        marker = ""
        if delta > slack:
            marker = "  EXCEEDED"
            failures.append(
                f"{name}: {base:g} -> {fresh[name]:g} "
                f"(delta {delta:+g}, slack {slack:g})"
            )
        print(
            f"{name:<{width}}  {base:12g}  ->  {fresh[name]:12g}  "
            f"(delta {delta:+g}, slack {slack:g}){marker}"
        )
    for name in args.require_positive or []:
        value = fresh.get(name, 0.0)
        ok = value > 0.0
        print(f"{name:<{width}}  {value:12g}  (required > 0)"
              f"{'' if ok else '  ZERO'}")
        if not ok:
            failures.append(f"{name}: required positive, got {value:g}")

    if failures:
        print(f"\n{len(failures)} metric gate(s) failed:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nall {len(gated) + len(args.require_positive or [])} "
          "metric gates passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("fresh", help="freshly produced JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="max tolerated fractional regression (default 0.5 == +50%%)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="inputs are Prometheus snapshots; gate on counter deltas",
    )
    parser.add_argument(
        "--key",
        action="append",
        metavar="NAME[:SLACK]",
        help="metrics mode: gate this series' delta (absolute slack)",
    )
    parser.add_argument(
        "--require-positive",
        action="append",
        metavar="NAME",
        help="metrics mode: series that must be > 0 in the fresh snapshot",
    )
    args = parser.parse_args()

    if args.metrics:
        return compare_metrics(args)

    baseline = load_times(args.baseline)
    fresh = load_times(args.fresh)
    if not baseline:
        print(f"error: no benchmarks in baseline {args.baseline}")
        return 2

    failures = []
    width = max(len(name) for name in baseline)
    for name in sorted(baseline):
        base_ns = baseline[name]
        if name not in fresh:
            failures.append(f"{name}: missing from fresh run")
            print(f"{name:<{width}}  {base_ns:12.1f} ns  ->  MISSING")
            continue
        fresh_ns = fresh[name]
        ratio = fresh_ns / base_ns if base_ns > 0 else float("inf")
        marker = ""
        if ratio > 1.0 + args.threshold:
            marker = "  REGRESSED"
            failures.append(
                f"{name}: {base_ns:.1f} ns -> {fresh_ns:.1f} ns "
                f"({(ratio - 1.0) * 100.0:+.1f}%, threshold "
                f"{args.threshold * 100.0:+.0f}%)"
            )
        print(
            f"{name:<{width}}  {base_ns:12.1f} ns  ->  {fresh_ns:12.1f} ns  "
            f"({(ratio - 1.0) * 100.0:+6.1f}%){marker}"
        )

    for name in sorted(set(fresh) - set(baseline)):
        print(f"{name:<{width}}  (new, not gated)")

    if failures:
        print(f"\n{len(failures)} benchmark(s) beyond threshold:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nall {len(baseline)} baseline benchmarks within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
