"""Subnormal random models and reproducible counter-style streams.

A real random variable is subnormal when E exp(lambda w) <= exp(lambda^2/2)
for every real lambda.  The built-in real models

    rademacher          +-1 with equal probability
    gaussian            centered normal, sigma <= 1
    steinhaus_real      cos(phi), phi uniform on [0, 2 pi)
    uniform_symmetric   uniform on [-1, 1]

all satisfy the inequality (mean zero and |w| <= 1, or Gaussian with
variance at most one).  ``mgf_audit`` checks it statistically on a lambda
grid.  The complex ``steinhaus`` model (unit-modulus phases) is reserved
for analytic-flavor series.

Streams are derived per (master_seed, trial, lane) through a Philox
counter-based generator, so trials can run in any order, or concurrently,
with bit-identical results.
"""

from __future__ import annotations

import math
import numbers
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
    sigma: float = 1.0

    @property
    def is_complex(self) -> bool:
        return self.kind == STEINHAUS

    def to_json(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == GAUSSIAN and self.sigma != 1.0:
            d["sigma"] = self.sigma
        return d


def make_model(kind: str, sigma: float = 1.0) -> RandomModel:
    if kind not in SUBNORMAL_KINDS + (STEINHAUS,):
        fail("CONFIG_INVALID", f"unknown random model {kind!r}")
    if kind == GAUSSIAN:
        if not (0.0 < sigma) or sigma * sigma > 1.0:
            fail("BAD_SIGMA", f"gaussian model needs 0 < sigma <= 1, got {sigma}")
    return RandomModel(kind=kind, sigma=float(sigma))


def model_from_json(d: dict) -> RandomModel:
    sigma = d.get("sigma", 1.0) if isinstance(d, dict) else None
    if not (isinstance(sigma, numbers.Real) and not isinstance(sigma, bool) and "kind" in d):
        fail("CONFIG_INVALID", f"a random model is a JSON object with a kind and a numeric "
             f"sigma, got {d!r}")
    refuse_unread(d, ("kind", "sigma") if d["kind"] == GAUSSIAN else ("kind",),
                  f"random model {d['kind']!r}")
    return make_model(d["kind"], sigma)


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
        if model.sigma * model.sigma > 1.0:
            fail("BAD_SIGMA", f"gaussian sigma^2 must be <= 1, got sigma={model.sigma}")
        return rng.standard_normal(count) * model.sigma
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


def mgf_audit(model: RandomModel, lam_grid, n_samples: int,
              seed_spec: SeedSpec, trial: int = 0) -> MgfAudit:
    """Empirical check of E exp(lambda w) <= exp(lambda^2/2).

    For each lambda: ratio = mean(exp(lambda w)) / exp(lambda^2/2) plus its
    standard error, so callers can apply a z-threshold.  One sample vector
    is drawn and reused across the grid.
    """
    if model.is_complex:
        fail("CONFIG_INVALID", "mgf audit applies to real-valued models")
    if n_samples < 10**4:
        fail("DOMAIN", f"need at least 1e4 samples, got {n_samples}")
    w = sample_vector(model, seed_spec, trial, n_samples)
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

