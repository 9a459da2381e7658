"""Subnormal random models and reproducible counter-style streams.

A real random variable is subnormal when E exp(lambda w) <= exp(lambda^2/2)
for every real lambda.  The built-in real models

    rademacher          +-1 with equal probability
    gaussian            standard normal
    steinhaus_real      cos(phi), phi uniform on [0, 2 pi)
    uniform_symmetric   uniform on [-1, 1]

all satisfy the inequality (mean zero and |w| <= 1, or standard normal,
for which it is an equality).  ``mgf_audit`` checks it statistically on a lambda
grid.  The complex ``steinhaus`` model (unit-modulus phases) is reserved
for analytic-flavor series.

Streams are derived per (master_seed, trial, lane) through a Philox
counter-based generator, so trials can run in any order, or concurrently,
with bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import fail, refuse_unread

RADEMACHER = "rademacher"
GAUSSIAN = "gaussian"
STEINHAUS_REAL = "steinhaus_real"
UNIFORM_SYMMETRIC = "uniform_symmetric"
STEINHAUS = "steinhaus"          # complex unit-modulus, analytic flavor only

SUBNORMAL_KINDS = (RADEMACHER, GAUSSIAN, STEINHAUS_REAL, UNIFORM_SYMMETRIC)


@dataclass(frozen=True)
class RandomModel:
    kind: str

    @property
    def is_complex(self) -> bool:
        return self.kind == STEINHAUS

    def to_json(self) -> dict:
        return {"kind": self.kind}


def make_model(kind: str) -> RandomModel:
    if kind not in SUBNORMAL_KINDS + (STEINHAUS,):
        fail("CONFIG_INVALID", f"unknown random model {kind!r}")
    return RandomModel(kind=kind)


def model_from_json(d: dict) -> RandomModel:
    if not (isinstance(d, dict) and "kind" in d):
        fail("CONFIG_INVALID", f"a random model is a JSON object with a kind, got {d!r}")
    refuse_unread(d, ("kind",), f"random model {d['kind']!r}")
    return make_model(d["kind"])


@dataclass(frozen=True)
class SeedSpec:
    """Master seed; (trial, lane) index independent Philox streams."""

    master_seed: int

    def generator(self, trial: int = 0, lane: int = 0) -> np.random.Generator:
        seq = np.random.SeedSequence([int(self.master_seed) & (2**64 - 1), int(trial), int(lane)])
        return np.random.Generator(np.random.Philox(seq))


def sample_vector(model: RandomModel, seed_spec: SeedSpec, trial: int, count: int,
                  lane: int = 0) -> np.ndarray:
    """Draw `count` variates; a pure function of (model, seed, trial, lane)."""
    if count < 0:
        fail("DOMAIN", f"count must be >= 0, got {count}")
    rng = seed_spec.generator(trial, lane)
    if model.kind == RADEMACHER:
        return rng.integers(0, 2, size=count).astype(np.float64) * 2.0 - 1.0
    if model.kind == GAUSSIAN:
        return rng.standard_normal(count)
    if model.kind == STEINHAUS_REAL:
        return np.cos(rng.uniform(0.0, 2.0 * np.pi, size=count))
    if model.kind == UNIFORM_SYMMETRIC:
        return rng.uniform(-1.0, 1.0, size=count)
    if model.kind == STEINHAUS:
        return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=count))
    raise AssertionError(f"unhandled model kind {model.kind}")


# -- moment generating function audit ----------------------------------------

@dataclass(frozen=True)
class MgfRow:
    lam: float
    ratio: float
    std_error: float


@dataclass(frozen=True)
class MgfAudit:
    rows: tuple
    worst_ratio: float
    n_samples: int


def mgf_audit(model: RandomModel, lam_grid, n_samples: int, seed_spec: SeedSpec) -> MgfAudit:
    """Empirical check of E exp(lambda w) <= exp(lambda^2/2).

    For each lambda: ratio = mean(exp(lambda w)) / exp(lambda^2/2) plus its
    standard error, so callers can apply a z-threshold.  One sample vector,
    trial 0 of seed_spec, is drawn and reused across the grid.
    """
    if model.is_complex:
        fail("CONFIG_INVALID", "mgf audit applies to real-valued models")
    if n_samples < 10**4:
        fail("DOMAIN", f"need at least 1e4 samples, got {n_samples}")
    w = sample_vector(model, seed_spec, 0, n_samples)
    rows = []
    for lam in lam_grid:
        lam = float(lam)
        e = np.exp(lam * w)
        denom = math.exp(lam * lam / 2.0)
        ratio = float(np.mean(e)) / denom
        se = float(np.std(e, ddof=1)) / math.sqrt(n_samples) / denom
        rows.append(MgfRow(lam=lam, ratio=ratio, std_error=se))
    worst = max(r.ratio for r in rows)
    return MgfAudit(rows=tuple(rows), worst_ratio=worst, n_samples=n_samples)

