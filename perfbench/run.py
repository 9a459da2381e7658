"""growthlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process and prints, as its last line, one JSON
object with "correct", "attempted", "failed" and "metrics": the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  Without
--workload it runs every workload, untraced and then traced, each in a
process of its own, and prints one plain-text table per workload instead
of JSON.  Either way the exit status is 1 when an output is wrong.

Run from the root of a source checkout: the program is imported from
./src, never from an installed copy.  Load is one process, one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# before numpy loads anywhere: single-threaded BLAS and growthlab
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "GROWTHLAB_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("tower_ensemble", "probe_scan", "sphere_caps", "cli_suite")
DEFAULT_SEED = 20260808
HELD_OUT_SEED = 4242
SETUP_REPEATS = 5


def load_program():
    if not os.path.isfile(os.path.join(SRC, "growthlab", "__init__.py")):
        sys.exit(f"error: no growthlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import growthlab
    return growthlab


def make_workload(name, seed):
    import workloads   # next to this script, which is on sys.path[0]
    workdir = os.path.join(OUT, f"{name}-{os.getpid()}")
    return workloads.WORKLOADS[name](sys.modules["growthlab"], seed, workdir), workdir


def setup_child(name, seed):
    """Time importing growthlab plus building the workload's inputs."""
    t0 = time.perf_counter()
    load_program()
    t1 = time.perf_counter()
    work, workdir = make_workload(name, seed)
    t2 = time.perf_counter()
    work.build()
    t3 = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))


def setup_seconds(name, seed):
    """Median over fresh processes, so each sample pays the imports again."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, __file__, "--setup-child", "--workload", name,
                               "--seed", str(seed)], capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


class Clock:
    """Accumulates the time of program calls; installs the tracer around them."""

    def __init__(self, tracer=None):
        self.elapsed = 0.0
        self.tracer = tracer

    @contextlib.contextmanager
    def __call__(self):
        if self.tracer:
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.elapsed += time.perf_counter() - t0
            if self.tracer:
                self.tracer.uninstall()


def measure(name, seed, seconds, trace):
    load_program()
    setup_s = setup_seconds(name, seed)
    work, workdir = make_workload(name, seed)
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        work.build()
    finally:
        if tracer:
            tracer.uninstall()
            tracer.phase = tracing.ROUND
    work.warm_up()

    attempted = failed = 0
    correct = True
    times = {True: [], False: []}          # traced?, program seconds per round
    ops = 0
    start = time.perf_counter()
    index = 0
    # traced runs alternate traced and untraced rounds to measure the overhead
    while True:
        traced = bool(trace) and index % 2 == 0
        clock = Clock(tracer if traced else None)
        outcomes, ops = work.round(index, clock)
        times[traced].append(clock.elapsed)
        attempted += len(outcomes)
        failed += sum(not o.ok for o in outcomes)
        correct &= all(o.ok or o.known for o in outcomes)
        index += 1
        if time.perf_counter() - start >= seconds and (not trace or index >= 2):
            break
    shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        overhead = statistics.median(times[True]) / statistics.median(times[False]) - 1.0
        metrics = tracer.metrics(len(times[True]), overhead)
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"trace-{name}-{seed}.jsonl"))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "ops_per_s": {"value": ops / statistics.median(times[False]), "unit": "1/s"},
        }
    print(f"{name}: {index} rounds of {ops} {work.unit}, seed {seed}, round seconds "
          f"{[round(t, 3) for t in times[False] + times[True]]}", file=sys.stderr)
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    if not correct:
        sys.exit(1)


def run_all(seed, seconds):
    """Every workload untraced then traced, each run in a process of its own."""
    load_program()
    all_correct = True
    for name in WORKLOADS:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                                   str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                                  capture_output=True, text=True, timeout=900)
            if proc.returncode not in (0, 1):     # 1: ran, but an output was wrong
                sys.exit(f"error: {name} --trace {trace} failed:\n{proc.stderr}")
            results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
            all_correct &= results[trace]["correct"]
        r = results[0]
        print(f"== {name}  correct={r['correct']}  attempted={r['attempted']}  "
              f"failed={r['failed']}")
        for trace in (0, 1):
            for key, m in results[trace]["metrics"].items():
                print(f"  {key:42s} {m['value']:>14.6g} {m['unit']}")
        sys.stdout.flush()
    if not all_correct:
        sys.exit(1)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.setup_child:
        setup_child(args.workload, args.seed)
    elif args.workload is None:
        run_all(args.seed, args.seconds)
    else:
        measure(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
