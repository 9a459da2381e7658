"""Spans around growthlab's public functions, installed from outside the package.

A Tracer replaces module attributes with timing wrappers.  Where a module
imported a function by name (``growthlab.mclab.sup_bracket``), every
growthlab namespace holding the same object is patched, so calls are seen
whichever name they go through.  Spans (name, start, end, parent) stay in
memory; counts are read from arguments and return values at the same
boundary.  Nothing inside growthlab changes.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name); a span name shared by several functions
# forms one group, whose busy time counts only its outermost spans.
TARGETS = [
    ("growthlab.disk", "sup_bracket", "disk.sup_bracket"),
    ("growthlab.disk", "randomize", "disk.randomize"),
    ("growthlab.disk", "evaluate_at", "disk.evaluate_at"),
    ("numpy.fft", "ifft", "disk.fft"),
    ("numpy.fft", "irfft", "disk.fft"),
    ("growthlab.randomness", "sample_vector", "randomness.sample_vector"),
    ("growthlab.schemes", "scheme_from_arrays", "schemes.scheme_from_arrays"),
    ("growthlab.schemes", "uniform_block_scheme", "schemes.build"),
    ("growthlab.schemes", "loglog_energy_scheme", "schemes.build"),
    ("growthlab.schemes", "riesz_lacunary_scheme", "schemes.build"),
    ("growthlab.schemes", "saturating_scheme", "schemes.build"),
    ("growthlab.schemes", "rudin_shapiro_scheme", "schemes.build"),
    ("growthlab.schemes", "hadamard_lacunary_scheme", "schemes.build"),
    ("growthlab.schemes", "scheme_from_csv", "schemes.build"),
    ("growthlab.mclab", "run_growth_ensemble", "mclab.run_growth_ensemble"),
    ("growthlab.mclab", "salem_zygmund_probe", "mclab.salem_zygmund_probe"),
    ("growthlab.mclab", "cesaro_domination_check", "mclab.cesaro_domination_check"),
    ("growthlab.mclab", "riesz_probe", "mclab.riesz_probe"),
    ("growthlab.sphere", "build_basis", "sphere.build_basis"),
    ("growthlab.sphere", "fibonacci_covering", "sphere.covering"),
    ("growthlab.sphere", "default_covering", "sphere.covering"),
    ("growthlab.sphere", "random_degree_combination", "sphere.random_degree_combination"),
    ("growthlab.sphere", "cap_fraction", "sphere.cap_fraction"),
    ("growthlab.sphere.SphereSeries", "evaluate", "sphere.evaluate"),
    ("growthlab.weights", "block_sequence", "weights.block_sequence"),
    ("growthlab.criteria", "score_sup_ratio", "criteria"),
    ("growthlab.criteria", "score_block_sum", "criteria"),
    ("growthlab.criteria", "score_blockwise", "criteria"),
    ("growthlab.criteria", "operator_norm_profile", "criteria"),
    ("growthlab.census", "coefficient_census", "census"),
    ("growthlab.census", "liminf_profile", "census"),
    ("growthlab.reporting", "write_json", "reporting.write"),
    ("growthlab.reporting", "write_csv", "reporting.write"),
    ("growthlab.cli", "main", "cli.main"),
]

# name -> unit of every per-layer metric, in report order
METRICS = {
    "disk.sup_bracket.calls": "count", "disk.sup_bracket.busy_s": "s",
    "disk.sup_bracket.self_s": "s", "disk.fft.calls": "count", "disk.fft.busy_s": "s",
    "disk.grid_points": "count", "disk.fft_bytes": "B", "disk.degree_sum": "count",
    "disk.bracket_slack": "ratio",
    "disk.randomize.busy_s": "s", "disk.evaluate_at.calls": "count",
    "disk.evaluate_at.busy_s": "s",
    "randomness.sample_vector.calls": "count", "randomness.sample_vector.busy_s": "s",
    "randomness.variates": "count",
    "schemes.build.busy_s": "s", "schemes.scheme_from_arrays.calls": "count",
    "mclab.run_growth_ensemble.busy_s": "s", "mclab.run_growth_ensemble.self_s": "s",
    "mclab.salem_zygmund_probe.busy_s": "s", "mclab.salem_zygmund_probe.self_s": "s",
    "mclab.cesaro_domination_check.busy_s": "s", "mclab.cesaro_domination_check.self_s": "s",
    "mclab.riesz_probe.busy_s": "s", "mclab.riesz_probe.self_s": "s",
    "sphere.build_basis.busy_s": "s", "sphere.covering.busy_s": "s",
    "sphere.evaluate.calls": "count", "sphere.evaluate.busy_s": "s",
    "sphere.point_terms": "count", "sphere.random_degree_combination.busy_s": "s",
    "sphere.cap_fraction.self_s": "s",
    "weights.block_sequence.busy_s": "s", "criteria.busy_s": "s", "census.busy_s": "s",
    "reporting.write.busy_s": "s", "reporting.bytes_written": "B",
    "cli.main.busy_s": "s", "cli.main.self_s": "s",
    "trace.overhead": "ratio",
}


def _resolve(path: str):
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        owner, _, attr = path.rpartition(".")
        return getattr(_resolve(owner), attr)


SETUP, ROUND = 0, 1


class Tracer:
    def __init__(self):
        self.spans = []           # [name, start, end, parent index, phase]
        self.counts = (defaultdict(float), defaultdict(float))   # per phase
        self.slacks = []
        self.phase = SETUP
        self._stack = []
        self._patches = []        # (owner, attribute, original, wrapper)
        originals = {}
        for owner_path, attr, name in TARGETS:
            fn = getattr(_resolve(owner_path), attr)
            originals[id(fn)] = (fn, self._wrap(fn, name))
        owners = [m for k, m in sys.modules.items()
                  if k == "growthlab" or k.startswith("growthlab.")]
        owners += [sys.modules["numpy.fft"], _resolve("growthlab.sphere.SphereSeries")]
        for owner in owners:
            for attr, val in list(vars(owner).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((owner, attr, val, hit[1]))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append([name, time.perf_counter(), None, parent, tracer.phase])
            tracer._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[idx][2] = time.perf_counter()
            tracer._count(name, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _count(self, name, args, kwargs, out):
        c = self.counts[self.phase]
        if name == "disk.sup_bracket":
            c["disk.grid_points"] += out.grid_size
            c["disk.degree_sum"] += out.degree
            if out.lower > 0:
                self.slacks.append(out.upper / out.lower - 1.0)
        elif name == "randomness.sample_vector":
            c["randomness.variates"] += args[3] if len(args) > 3 else kwargs["count"]
        elif name == "sphere.evaluate":
            pts = np.atleast_2d(np.asarray(args[1]))
            c["sphere.point_terms"] += len(pts) * (2 * args[0].degree + 1)
        elif name == "reporting.write":
            c["reporting.bytes_written"] += os.path.getsize(args[0])

    def metrics(self, rounds: int, overhead: float) -> dict:
        """Figures for one set-up plus one average round: set-up spans and
        counts enter once, those of the traced rounds divided by their number."""
        sums = (defaultdict(float), defaultdict(float))     # per phase
        for phase in (SETUP, ROUND):
            sums[phase].update(self.counts[phase])
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, phase) in enumerate(self.spans):
            acc = sums[phase]
            acc[name + ".calls"] += 1
            acc[name + ".self_s"] += t1 - t0 - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                acc[name + ".busy_s"] += t1 - t0
        total = defaultdict(float)
        for key in set(sums[SETUP]) | set(sums[ROUND]):
            total[key] = sums[SETUP][key] + sums[ROUND][key] / rounds
        total["disk.fft_bytes"] = 16.0 * total["disk.grid_points"]   # complex128 grid
        total["disk.bracket_slack"] = statistics.median(self.slacks) if self.slacks else 0.0
        total["trace.overhead"] = overhead
        return {key: {"value": total[key], "unit": unit} for key, unit in METRICS.items()}

    def dump(self, path):
        with open(path, "w") as f:
            for i, (name, t0, t1, parent, _) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                    "parent": parent}) + "\n")
