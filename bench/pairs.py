#!/usr/bin/env python3
# SPDX-License-Identifier: Apache-2.0
"""Alternating parent/change pairs of one end-to-end workload, judged by the
gain rule a perf change must meet.

    python3 bench/pairs.py --base PARENT/build-bench/mp3d_bench \\
        --head build-bench/mp3d_bench --workload axpy_dma_bw8 --seed 11 --pairs 10

Each pair runs one `mp3d_bench --rep --trace 0` child of either binary; the
side that goes first flips from pair to pair. Prints each side's median and
quartiles of `run_s` and of host Mcycle/s (`cluster_cycles` / `run_s` / 1e6),
how many pairs the change won on each (ties count for neither), whether
every rep printed the same digest, and the verdict of the gain rule: the
change wins at least nine tenths of the pairs, and its median is better
than the parent's by more than the parent's interquartile range. Exits 1
when a child prints no result, 0 otherwise.
"""

import argparse
import statistics
import subprocess
import sys
import tempfile

# (label, better) of each reported metric.
METRICS = (("run_s", "lower"), ("host Mcycle/s", "higher"))


def run_rep(binary, workload, seed, out_dir):
    """One rep's `key value` lines as {key: text}; exits when the child
    prints no run_s, cluster_cycles or digest."""
    proc = subprocess.run(
        [binary, "--rep", "--workload", workload, "--seed", str(seed), "--trace", "0",
         "--out", out_dir],
        stdout=subprocess.PIPE, text=True)
    rep = dict(line.split(" ", 1) for line in proc.stdout.splitlines() if " " in line)
    if proc.returncode != 0 or not {"run_s", "cluster_cycles", "digest"} <= rep.keys():
        sys.exit(f"{binary} exited {proc.returncode} without run_s, cluster_cycles and digest")
    return rep


def metrics(rep):
    """The reported metrics of one rep, in METRICS order."""
    run_s = float(rep["run_s"])
    return (run_s, float(rep["cluster_cycles"]) / run_s / 1e6)


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def gain(base, head, better):
    """The rule for claiming a gain: (pairs the change won, whether the
    claim holds)."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    q1, median, q3 = quartiles(base)
    holds = wins * 10 >= 9 * len(base) and \
        sign * (statistics.median(head) - median) > q3 - q1
    return wins, holds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent's mp3d_bench")
    parser.add_argument("--head", required=True, help="the change's mp3d_bench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()

    reps = {"base": [], "head": []}
    with tempfile.TemporaryDirectory() as tmp:
        for p in range(args.pairs):
            for side in ("base", "head") if p % 2 == 0 else ("head", "base"):
                rep = run_rep(getattr(args, side), args.workload, args.seed, tmp)
                reps[side].append(rep)
                print(f"pair {p + 1}/{args.pairs} {side}: run_s {float(rep['run_s']):.4f}",
                      file=sys.stderr)

    print(f"### {args.workload}, seed {args.seed}: {args.pairs} alternating pairs\n")
    print("| metric | parent median [quartiles] | change median [quartiles] | "
          "change/parent | change wins | gain |")
    print("|---|---|---|---|---|---|")
    for i, (label, better) in enumerate(METRICS):
        base = [metrics(rep)[i] for rep in reps["base"]]
        head = [metrics(rep)[i] for rep in reps["head"]]
        cells = []
        for values in (base, head):
            q1, median, q3 = quartiles(values)
            cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
        wins, holds = gain(base, head, better)
        ratio = statistics.median(head) / statistics.median(base)
        print(f"| {label} ({better} is better) | {cells[0]} | {cells[1]} | ×{ratio:.3f} | "
              f"{wins}/{args.pairs} | {'yes' if holds else 'no'} |")
    digests = {rep["digest"] for side in reps.values() for rep in side}
    if len(digests) == 1:
        print(f"\ndigest: every rep read {digests.pop()}")
    else:
        print(f"\ndigest: reps differ ({', '.join(sorted(digests))})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
