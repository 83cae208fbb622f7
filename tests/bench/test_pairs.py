#!/usr/bin/env python3
# SPDX-License-Identifier: Apache-2.0
"""bench/pairs.py's order, statistics and verdicts, against stub benchmarks
that print canned `key value` lines."""

import json
import os
import stat
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PAIRS = os.path.join(REPO, "bench", "pairs.py")
CYCLES = 4_000_000


class Pairs(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.log = os.path.join(self.tmp.name, "log")

    def tearDown(self):
        self.tmp.cleanup()

    def stub(self, name, run_s, digest="d1", fail_at=None):
        """An executable that logs `<name> <args>` and prints the run_s of
        its n-th call from `run_s`, with `cluster_cycles` and `digest`; on
        call `fail_at` it prints nothing and exits 1."""
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            f.write(f"#!{sys.executable}\n"
                    f"import sys\n"
                    f"with open({json.dumps(self.log)}, 'a+') as f:\n"
                    f"    f.seek(0)\n"
                    f"    n = sum(1 for line in f if line.split()[0] == {json.dumps(name)})\n"
                    f"    f.write({json.dumps(name)} + ' ' + ' '.join(sys.argv[1:]) + '\\n')\n"
                    f"if n == {fail_at!r}:\n"
                    f"    sys.exit(1)\n"
                    f"print('workload x')\n"
                    f"print('run_s', {json.dumps(run_s)}[n])\n"
                    f"print('cluster_cycles', {CYCLES})\n"
                    f"print('digest', {json.dumps(digest)})\n")
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
        return path

    def pairs(self, base, head, pairs=10):
        proc = subprocess.run(
            [sys.executable, PAIRS, "--base", base, "--head", head, "--workload", "w",
             "--seed", "11", "--pairs", str(pairs)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        return proc.returncode, proc.stdout

    def row(self, out, label):
        """The cells of the table row for `label`."""
        for line in out.splitlines():
            if line.startswith(f"| {label} "):
                return [cell.strip() for cell in line.strip("|").split("|")]
        self.fail(f"no row {label} in\n{out}")

    def test_alternates_the_side_that_goes_first(self):
        code, out = self.pairs(self.stub("base", [1.0] * 4), self.stub("head", [0.5] * 4),
                               pairs=4)
        self.assertEqual(code, 0, out)
        with open(self.log) as f:
            calls = [line.split() for line in f]
        self.assertEqual([c[0] for c in calls],
                         ["base", "head", "head", "base", "base", "head", "head", "base"])
        for call in calls:
            args = call[1:]
            self.assertEqual(args[:8], ["--rep", "--workload", "w", "--seed", "11",
                                        "--trace", "0", "--out"])

    def test_a_clear_gain_holds(self):
        base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
        head = [0.80] * 10
        code, out = self.pairs(self.stub("base", base), self.stub("head", head))
        self.assertEqual(code, 0, out)
        # run_s: median 1.0, quartiles 0.9825 and 1.0175.
        self.assertEqual(self.row(out, "run_s"),
                         ["run_s (lower is better)", "1 [0.9825, 1.018]", "0.8 [0.8, 0.8]",
                          "×0.800", "10/10", "yes"])
        # host Mcycle/s = 4e6 cycles / run_s / 1e6.
        self.assertEqual(self.row(out, "host Mcycle/s")[2:], ["5 [5, 5]", "×1.250", "10/10",
                                                              "yes"])
        self.assertIn("digest: every rep read d1", out)

    def test_eight_wins_in_ten_is_no_gain(self):
        base = [1.0] * 10
        head = [0.8] * 8 + [1.2] * 2
        code, out = self.pairs(self.stub("base", base), self.stub("head", head))
        self.assertEqual(code, 0, out)
        self.assertEqual(self.row(out, "run_s")[-2:], ["8/10", "no"])

    def test_ties_count_for_neither_side(self):
        base = [1.0] * 10
        head = [0.8] * 9 + [1.0]
        code, out = self.pairs(self.stub("base", base), self.stub("head", head))
        self.assertEqual(self.row(out, "run_s")[-2:], ["9/10", "yes"])
        head = [0.8] * 8 + [1.0] * 2
        code, out = self.pairs(self.stub("base2", base), self.stub("head2", head))
        self.assertEqual(self.row(out, "run_s")[-2:], ["8/10", "no"])

    def test_a_gap_inside_the_parents_spread_is_no_gain(self):
        # Every pair won, but the medians differ by 0.05 against an
        # interquartile range of 0.4 on the parent's side.
        base = [0.80, 1.20, 0.80, 1.20, 0.80, 1.20, 0.80, 1.20, 1.00, 1.00]
        head = [0.79, 1.19, 0.79, 1.19, 0.79, 1.19, 0.79, 1.19, 0.95, 0.95]
        code, out = self.pairs(self.stub("base", base), self.stub("head", head))
        self.assertEqual(self.row(out, "run_s")[-2:], ["10/10", "no"])

    def test_a_slower_change_has_no_gain(self):
        code, out = self.pairs(self.stub("base", [0.8] * 10), self.stub("head", [1.0] * 10))
        self.assertEqual(self.row(out, "run_s")[-2:], ["0/10", "no"])
        self.assertEqual(self.row(out, "host Mcycle/s")[-2:], ["0/10", "no"])

    def test_differing_digests_are_reported(self):
        code, out = self.pairs(self.stub("base", [1.0] * 10, digest="d1"),
                               self.stub("head", [0.8] * 10, digest="d2"))
        self.assertEqual(code, 0, out)
        self.assertIn("digest: reps differ (d1, d2)", out)

    def test_a_rep_without_a_result_fails(self):
        code, _ = self.pairs(self.stub("base", [1.0] * 10),
                             self.stub("head", [0.8] * 10, fail_at=3))
        self.assertEqual(code, 1)


if __name__ == "__main__":
    unittest.main()
