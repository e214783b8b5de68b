#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the library).

    python3 perfbench/tests/test_perfbench.py

Builds perfbench like run.py does, then checks:
  - the span self-time arithmetic and allocation attribution (C++ unit test);
  - node_faulty_sim repeats its delivery, retransmission, fault-decision and
    digest counts exactly for one seed;
  - every workload prints exactly the metrics BENCHMARK.json names, with
    their units, in both trace modes, and passes its output checks.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402  (perfbench/run.py)

BUILD_DIR = os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")


def bench(*args):
    """Runs the benchmark binary; returns (exit code, stdout lines, result)."""
    done = subprocess.run(
        [os.path.join(BUILD_DIR, "perfbench"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(ROOT, BUILD_DIR)
        subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                        "perfbench_span_test"], check=True,
                       stdout=subprocess.DEVNULL)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_span_arithmetic(self):
        done = subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_span_test")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.assertEqual(done.returncode, 0, done.stdout)

    def test_faulty_sim_counts_repeat_per_seed(self):
        # A tiny --seconds runs only the episodes the metrics need.
        args = ["--workload", "node_faulty_sim", "--seed", "7", "--seconds",
                "0.001", "--trace", "1", "--rounds", "8"]
        runs = [bench(*args) for _ in range(2)]
        counts = []
        for code, lines, result in runs:
            self.assertEqual(code, 0, "\n".join(lines))
            self.assertTrue(result["correct"])
            counts.append([l for l in lines if l.startswith("# counts")])
        self.assertIn("# counts traced=0", counts[0][0])
        self.assertIn("# counts traced=1", counts[0][1])
        self.assertEqual(counts[0], counts[1])
        exact = ["fault.injected_per_op", "transport.retransmits_per_op",
                 "transport.dup_drops_per_op", "transport.control_frames_per_op",
                 "net.datagrams_per_op", "causal.held_back_frac"]
        first, second = (r[2]["metrics"] for r in runs)
        for name in exact:
            self.assertEqual(first[name]["value"], second[name]["value"], name)
        self.assertGreater(first["fault.injected_per_op"]["value"], 0)
        self.assertGreater(first["transport.retransmits_per_op"]["value"], 0)

    def test_every_metric_is_printed(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, lines, result = bench(
                        "--workload", workload, "--seed", "3", "--seconds",
                        "0.001", "--trace", trace, "--rounds", "3")
                    self.assertEqual(code, 0, "\n".join(lines))
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)


if __name__ == "__main__":
    unittest.main()
