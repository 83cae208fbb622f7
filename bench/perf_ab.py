#!/usr/bin/env python3
# SPDX-License-Identifier: Apache-2.0
"""Host-perf gate: the end-to-end benchmark at a parent commit vs a change.

Runs bench/e2e's mp3d_bench built from each side in alternating rounds and
judges every end-to-end metric BENCHMARK.json lists, on every workload, by
that metric's own bound and direction:

    python3 bench/perf_ab.py --base PARENT/build-bench/mp3d_bench \\
        --head build-bench/mp3d_bench

Each of the 3 rounds runs every workload once per side for BENCHMARK.json's
`run_seconds` (`--trace 0`, seed 1), and the side that goes first flips
from round to round. Prints a markdown table of each side's median over the
rounds. Exits 1 when a metric of the change is worse than the parent's by
more than its bound, or when the change fails more reps than the parent.
A metric whose rounds spread wider than its bound on either side reads
"unresolved" and does not fail, unless every round of one side beats every
round of the other. After the table it prints each workload's digest from
both sides' first round and whether they match; that check is informational
and never changes the verdict.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUNDS = 3
SEED = 1


def run_once(binary, seconds, out_dir):
    """Run every workload once; return the last stdout line, which is the
    `{correct, attempted, failed, metrics}` object."""
    proc = subprocess.run(
        [binary, "--workload", "all", "--seconds", str(seconds), "--trace", "0",
         "--seed", str(SEED), "--out", out_dir],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"{binary} exited {proc.returncode} without a result line")


def rounds(results):
    """`<workload>.<metric>` -> its value in each run that reports it."""
    values = {}
    for result in results:
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
    return values


def worse_by(base, head, better):
    """How much worse `head` is than `base`, as a fraction of `base`
    (negative when it is better)."""
    change = (head - base) / base
    return -change if better == "higher" else change


def spread(values):
    """The range of one side's rounds, as a fraction of their median."""
    return (max(values) - min(values)) / statistics.median(values)


def verdict(b, h, metric):
    """Judge one metric from each side's rounds `b` and `h`. When either
    side's rounds spread wider than the bound, their medians cannot tell a
    change of that size from the machine's noise: the metric is
    "unresolved" unless every round of one side beats every round of the
    other."""
    bound, better = metric["bound"], metric["better"]
    pairs = [worse_by(x, y, better) for x in b for y in h]
    separated = min(pairs) > 0 or max(pairs) < 0
    if max(spread(b), spread(h)) > bound and not separated:
        return "unresolved"
    if worse_by(statistics.median(b), statistics.median(h), better) > bound:
        return "**worse**"
    return "ok"


def compare(base_results, head_results, end_to_end):
    """One table row per gated `<workload>.<metric>` either side reports:
    (key, base median, head median, bound, verdict)."""
    gated = {m["name"]: m for m in end_to_end}
    base, head = rounds(base_results), rounds(head_results)
    rows = []
    for key in dict.fromkeys(list(base) + list(head)):
        metric = gated.get(key.split(".", 1)[-1])
        if metric is None:
            continue
        b, h = base.get(key), head.get(key)
        judged = "no data" if b is None or h is None else verdict(b, h, metric)
        rows.append((key, b and statistics.median(b), h and statistics.median(h),
                     metric["bound"], judged))
    return rows


def fmt(value):
    return "–" if value is None else f"{value:.6g}"


def digests(out_dir, workloads):
    """Each workload's digest from `<out_dir>/<workload>.json`, or None where
    the file is missing or names none."""
    found = {}
    for w in workloads:
        try:
            with open(os.path.join(out_dir, f"{w}.json")) as f:
                found[w] = json.load(f)["digest"]
        except (OSError, ValueError, KeyError):
            found[w] = None
    return found


def identity(base, head):
    """Whether two digests show the same simulation: "same", "differs", or
    "–" when either side has none."""
    if base is None or head is None:
        return "–"
    return "same" if base == head else "differs"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent's mp3d_bench")
    parser.add_argument("--head", required=True, help="the change's mp3d_bench")
    args = parser.parse_args()
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        benchmark = json.load(f)

    workloads = [w["name"] for w in benchmark["workloads"]]
    results = {"base": [], "head": []}
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(ROUNDS):
            order = ("base", "head") if r % 2 == 0 else ("head", "base")
            for side in order:
                print(f"round {r + 1}/{ROUNDS}: {side}", file=sys.stderr)
                out_dir = os.path.join(tmp, f"{side}{r}")
                results[side].append(run_once(
                    getattr(args, side), benchmark["run_seconds"], out_dir))
        ids = {side: digests(os.path.join(tmp, f"{side}0"), workloads)
               for side in results}

    rows = compare(results["base"], results["head"], benchmark["end_to_end"])
    print(f"### Host-perf gate: parent vs change (median of {ROUNDS} rounds "
          f"of {benchmark['run_seconds']} s per workload, seed {SEED})\n")
    print("| workload.metric | parent | change | change/parent | bound | verdict |")
    print("|---|---|---|---|---|---|")
    for key, b, h, bound, verdict in rows:
        ratio = f"×{h / b:.3f}" if b and h is not None else "–"
        print(f"| {key} | {fmt(b)} | {fmt(h)} | {ratio} | {bound} | {verdict} |")
    print("\n### Simulation identity (round 1 digests; informational)\n")
    print("| workload | parent | change | |")
    print("|---|---|---|---|")
    for w in workloads:
        b, h = ids["base"][w], ids["head"][w]
        print(f"| {w} | {b or 'no digest'} | {h or 'no digest'} | {identity(b, h)} |")
    failed = {side: sum(r["failed"] for r in res) for side, res in results.items()}
    print(f"\nfailed reps: parent {failed['base']}, change {failed['head']}")

    flagged = [row[0] for row in rows if row[4] == "**worse**"]
    if failed["head"] > failed["base"]:
        flagged.append("failed reps")
    print(f"verdict: {'FAIL (' + ', '.join(flagged) + ')' if flagged else 'pass'}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
