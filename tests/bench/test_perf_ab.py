#!/usr/bin/env python3
# SPDX-License-Identifier: Apache-2.0
"""bench/perf_ab.py's verdicts, against stub benchmarks that print a canned
result line, with the bounds and directions of the repository's
BENCHMARK.json."""

import json
import os
import stat
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PERF_AB = os.path.join(REPO, "bench", "perf_ab.py")

with open(os.path.join(REPO, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = BENCHMARK["end_to_end"]


def result(failed=0, scale=None, drop=None):
    """A result line: every workload's metrics at 100, except `scale`
    {key: factor}; the workload `drop` is left out."""
    scale = scale or {}
    metrics = {}
    for w in WORKLOADS:
        if w == drop:
            continue
        for m in METRICS:
            key = f"{w}.{m['name']}"
            metrics[key] = {"value": 100.0 * scale.get(key, 1.0), "unit": m["unit"]}
    return {"correct": failed == 0, "attempted": 12, "failed": failed,
            "metrics": metrics}


class PerfAb(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def stub(self, name, lines, digests=None):
        """An executable that appends its arguments to `<name>.args`, writes
        `<out>/<workload>.json` with each of `digests` {workload: digest},
        prints a report and then its next result line as JSON: `lines` is
        one line for every round, or a list with one line per round."""
        path = os.path.join(self.tmp.name, name)
        lines = lines if isinstance(lines, list) else [lines]
        with open(path, "w") as f:
            f.write(f"#!{sys.executable}\n"
                    f"import json, os, sys\n"
                    f"with open({json.dumps(path + '.args')}, 'a+') as f:\n"
                    f"    f.write(' '.join(sys.argv[1:]) + '\\n')\n"
                    f"    f.seek(0)\n"
                    f"    run = len(f.readlines()) - 1\n"
                    f"out = sys.argv[sys.argv.index('--out') + 1]\n"
                    f"os.makedirs(out, exist_ok=True)\n"
                    f"for w, d in {json.dumps(digests or {})}.items():\n"
                    f"    with open(os.path.join(out, w + '.json'), 'w') as f:\n"
                    f"        json.dump({{'workload': w, 'digest': d}}, f)\n"
                    f"lines = {json.dumps([json.dumps(line) for line in lines])}\n"
                    f"print('matmul_4mib: end to end')\n"
                    f"print(lines[run % len(lines)])\n")
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
        return path

    def ab(self, base, head, base_digests=None, head_digests=None):
        proc = subprocess.run(
            [sys.executable, PERF_AB, "--base", self.stub("base", base, base_digests),
             "--head", self.stub("head", head, head_digests)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        return proc.returncode, proc.stdout

    def test_identical_sides_pass(self):
        code, out = self.ab(result(), result())
        self.assertEqual(code, 0, out)
        self.assertEqual(out.count("| ok |"), len(WORKLOADS) * len(METRICS))

    def test_each_side_runs_three_rounds_of_the_benchmark_length(self):
        self.ab(result(), result())
        for side in ("base", "head"):
            with open(os.path.join(self.tmp.name, side + ".args")) as f:
                runs = f.read().splitlines()
            self.assertEqual(len(runs), 3)
            for args in runs:
                self.assertIn(f"--workload all --seconds {BENCHMARK['run_seconds']} "
                              "--trace 0 --seed 1", args)

    def test_lower_throughput_beyond_bound_fails(self):
        code, out = self.ab(
            result(), result(scale={"matmul_4mib.host_mcycles_per_s": 0.75}))
        self.assertEqual(code, 1, out)
        self.assertIn("| matmul_4mib.host_mcycles_per_s | 100 | 75 |", out)

    def test_slower_run_within_bound_passes(self):
        code, out = self.ab(result(), result(scale={"axpy_farmem.run_s": 1.15}))
        self.assertEqual(code, 0, out)

    def test_more_simulated_cycles_fail(self):
        code, out = self.ab(
            result(), result(scale={"system_mixed_4c.sim_cycles": 1.002}))
        self.assertEqual(code, 1, out)

    def test_more_failed_reps_fail(self):
        code, out = self.ab(result(), result(failed=1))
        self.assertEqual(code, 1, out)
        self.assertIn("failed reps: parent 0, change 3", out)

    def test_better_metrics_pass(self):
        code, out = self.ab(result(), result(scale={
            "axpy_dma_bw8.run_s": 0.5, "axpy_dma_bw8.host_mcycles_per_s": 1.5}))
        self.assertEqual(code, 0, out)

    def test_rounds_spread_wider_than_the_bound_are_unresolved(self):
        key, other = "axpy_farmem.run_s", "matmul_4mib.setup_s"
        base = [result(scale={key: f}) for f in (1.0, 1.3, 0.95)]
        head = [result(scale={key: 1.25, other: f}) for f in (1.0, 1.3, 0.95)]
        code, out = self.ab(base, head)
        self.assertEqual(code, 0, out)
        self.assertIn(f"| {key} | 100 | 125 | ×1.250 | 0.2 | unresolved |", out)
        self.assertIn(f"| {other} | 100 | 100 | ×1.000 | 0.25 | unresolved |", out)

    def test_worse_than_every_round_of_a_wide_parent_fails(self):
        key = "axpy_farmem.run_s"
        base = [result(scale={key: f}) for f in (1.0, 1.3, 0.95)]
        code, out = self.ab(base, result(scale={key: 1.4}))
        self.assertEqual(code, 1, out)
        self.assertIn(f"| {key} | 100 | 140 | ×1.400 | 0.2 | **worse** |", out)

    def test_workload_missing_on_base_reads_no_data(self):
        code, out = self.ab(result(drop="system_mixed_4c"), result())
        self.assertEqual(code, 0, out)
        self.assertIn("| system_mixed_4c.run_s | – | 100 | – | 0.2 | no data |", out)

    def test_digests_read_same_or_differs_without_failing(self):
        base = {w: "00000000000000aa" for w in WORKLOADS}
        head = dict(base, axpy_farmem="00000000000000bb")
        del head["system_mixed_4c"]
        code, out = self.ab(result(), result(), base, head)
        self.assertEqual(code, 0, out)
        self.assertIn("| axpy_farmem | 00000000000000aa | 00000000000000bb | differs |", out)
        self.assertIn("| matmul_4mib | 00000000000000aa | 00000000000000aa | same |", out)
        self.assertIn("| system_mixed_4c | 00000000000000aa | no digest | – |", out)
        self.assertIn("verdict: pass", out)


if __name__ == "__main__":
    unittest.main()
