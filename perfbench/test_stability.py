"""Two sets of runs of the same code agree within the bounds of BENCHMARK.json.

    python3 perfbench/test_stability.py

For the default seed and for the held-out seed, runs every workload 2 x 5
times for run_seconds of BENCHMARK.json each, alternating between set A and
set B so both sets see the same machine.  It fails when a run reports wrong
outputs, when the share of failed operations differs between runs, when a
metric's spread (quartile distance over median) exceeds its bound (set-up
time excepted), or when the two sets' medians differ by more than the
bound, in either direction.  It takes about 40 minutes.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402

RUNS_PER_SET = 5


def one_run(workload, seed, seconds):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    if proc.returncode not in (0, 1):     # 1: ran, but an output was wrong
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def compare(workload, sets, bounds):
    """Problems found between set A and set B of one workload and seed."""
    problems = []
    runs = sets["A"] + sets["B"]
    if not all(r["correct"] for r in runs):
        problems.append(f"{workload}: a run reported wrong outputs")
    if len({(r["failed"] / r["attempted"]) for r in runs}) != 1:
        problems.append(f"{workload}: failed share differs between runs")
    for name, bound in bounds.items():
        med = {}
        for label, rs in sets.items():
            values = [r["metrics"][name]["value"] for r in rs]
            med[label] = statistics.median(values)
            if name != "setup_s" and spread(values) > bound:
                problems.append(f"{workload} {name}: set {label} spread {spread(values):.3f} "
                                f"> bound {bound}")
        gap = abs(med["B"] - med["A"]) / med["A"]
        if gap > bound:
            problems.append(f"{workload} {name}: set medians differ by {gap:.3f} > {bound}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    problems = []
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for workload in WORKLOADS:
            sets = {"A": [], "B": []}
            for _ in range(RUNS_PER_SET):
                for label in sets:
                    sets[label].append(one_run(workload, seed, bench["run_seconds"]))
            problems += [f"seed {seed}: {p}" for p in compare(workload, sets, bounds)]
    print("\n".join(problems) if problems else "two sets agree within the bounds")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
