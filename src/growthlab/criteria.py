"""Sup-ratio scores for coefficient conditions and operator-norm profiles.

A score is the smallest constant making an inequality hold over the tested
range, computed as the max of the ratio  measured quantity / target.
Bounded versus unbounded cannot be decided from finite data, so reports
carry the running score at dyadic checkpoints and a trend ratio between the
last and first checkpoints; tests assert trends, never asymptotics.

Cumulative kinds (over n = 1..N, sums over j <= n, natural logs clamped
to max(1, ln n)):

    l2_cum    sqrt(sum |a_j|^2) / g(n)
    l1_cum    (sum |a_j|) / g(n)
    l1_sqrt   (sum |a_j|) / (g(n) sqrt(n))
    l2_log    sqrt(sum |a_j|^2) * sqrt(log n) / g(n)

Block kinds aggregate square-sums S_k over blocks n_{k-1} < j <= n_k:

    block_sum   max_k  sum_{i<=k} sqrt(S_i log n_i) / target(n_k)
    blockwise   max_k  sqrt(S_k log n_k) / target(n_k)

where target(n_k) is g(n_k).  A Bloch-type weight w is scored as the growth
weight g = 1/w(1 - 1/x) of the radial derivative: pass
schemes.radial_derivative(scheme), whose square-sums weight |a_j|^2 by j^2.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Union

import numpy as np

from .disk import PlanSlot, RandomizedSeries, sup_brackets
from .errors import fail
from .schemes import CoefficientScheme, clamped_log
from .weights import BlockSequence, Weight, eval_g

L2_CUM = "l2_cum"
L1_CUM = "l1_cum"
L1_SQRT = "l1_sqrt"
L2_LOG = "l2_log"
RATIO_KINDS = (L2_CUM, L1_CUM, L1_SQRT, L2_LOG)

GrowthFn = Union[Weight, Callable[[np.ndarray], np.ndarray]]


def growth_values(weight_or_fn: GrowthFn, x) -> np.ndarray:
    """Evaluate a Weight or a plain growth callable at x >= 1."""
    if isinstance(weight_or_fn, Weight):
        return eval_g(weight_or_fn, x)
    return np.asarray(weight_or_fn(np.asarray(x, dtype=float)), dtype=float)


@dataclass(frozen=True)
class Checkpoint:
    n: int
    ratio: float     # running score over the range up to n


@dataclass(frozen=True)
class ScoreReport:
    criterion: str
    score: float
    witness: int
    range_lo: int
    range_hi: int
    checkpoints: tuple

    @property
    def trend_ratio(self) -> float:
        """Last checkpoint score over the first positive one."""
        pos = [c.ratio for c in self.checkpoints if c.ratio > 0]
        if not pos:
            return 1.0
        return self.checkpoints[-1].ratio / pos[0]

    def to_json(self) -> dict:
        return {"criterion": self.criterion, "score": self.score,
                "witness": self.witness, "range": [self.range_lo, self.range_hi],
                "trend_ratio": self.trend_ratio,
                "checkpoints": [asdict(c) for c in self.checkpoints]}


def _dyadic_checkpoints(n_hi: int):
    """1, 2, 4, ... up to n_hi, then n_hi itself (n_hi >= 1)."""
    ns = []
    n = 1
    while n <= n_hi:
        ns.append(n)
        n *= 2
    if ns[-1] != n_hi:
        ns.append(n_hi)
    return ns


def score_sup_ratio(kind: str, scheme: CoefficientScheme, weight: GrowthFn,
                    n_max: Optional[int] = None) -> ScoreReport:
    """Max over n <= n_max of the cumulative coefficient ratio of `kind`."""
    if kind not in RATIO_KINDS:
        fail("CONFIG_INVALID", f"unknown ratio kind {kind!r}")
    N = int(n_max) if n_max is not None else scheme.max_degree
    if N < 1:
        fail("EMPTY_RANGE", f"need n_max >= 1, got {N}")
    mags = scheme.dense_magnitudes(N)
    n = np.arange(1, N + 1)
    g = growth_values(weight, n.astype(float))
    cum1 = np.cumsum(mags)[1:]
    cum2 = np.cumsum(mags * mags)[1:]
    if kind == L2_CUM:
        ratios = np.sqrt(cum2) / g
    elif kind == L1_CUM:
        ratios = cum1 / g
    elif kind == L1_SQRT:
        ratios = cum1 / (g * np.sqrt(n))
    else:
        ratios = np.sqrt(cum2) * np.sqrt(clamped_log(n)) / g
    i = int(np.argmax(ratios))
    running = np.maximum.accumulate(ratios)
    cps = tuple(Checkpoint(int(m), float(running[m - 1])) for m in _dyadic_checkpoints(N))
    return ScoreReport(criterion=kind, score=float(ratios[i]), witness=int(n[i]),
                       range_lo=1, range_hi=N, checkpoints=cps)


@dataclass(frozen=True)
class BlockRow:
    k: int
    n_k: int
    block_l2: float      # sqrt(S_k)
    target: float        # g(n_k)
    rhs: float           # target / sqrt(log n_k): the blockwise bound column
    ratio: float


@dataclass(frozen=True)
class BlockScoreReport:
    criterion: str
    score: float
    witness: int
    c1_hat: float        # max_k g(n_{k+1}) / g(n_k) for the target weight
    rows: tuple

    def ratios(self) -> np.ndarray:
        return np.array([r.ratio for r in self.rows])

    def to_json(self) -> dict:
        return {"criterion": self.criterion, "score": self.score,
                "witness": self.witness, "c1_hat": self.c1_hat,
                "rows": [asdict(r) for r in self.rows]}


def _score_blocks(criterion: str, prefix: bool, scheme: CoefficientScheme,
                  blocks: BlockSequence, weight: Weight) -> BlockScoreReport:
    if blocks.n[-1] < scheme.max_degree:
        fail("BLOCKS_TOO_SHORT",
             f"blocks reach {blocks.n[-1]} but the scheme has degree {scheme.max_degree}")
    edges = np.asarray(blocks.n, dtype=np.int64)
    ks = np.searchsorted(edges, scheme.support, side="left")
    inside = scheme.support > edges[0]
    sums = np.zeros(len(edges))
    np.add.at(sums, ks[inside], scheme.magnitudes()[inside] ** 2)
    S = sums[1:]           # S_k for k = 1..k_max
    nk = np.asarray(blocks.n[1:], dtype=float)
    targets = eval_g(weight, nk)
    logs = clamped_log(nk)
    terms = np.sqrt(S * logs)
    ratios = (np.cumsum(terms) if prefix else terms) / targets
    i = int(np.argmax(ratios)) if len(ratios) else 0
    rows = tuple(BlockRow(k=k + 1, n_k=int(nk[k]), block_l2=float(math.sqrt(S[k])),
                          target=float(targets[k]), rhs=float(targets[k] / math.sqrt(logs[k])),
                          ratio=float(ratios[k]))
                 for k in range(len(ratios)))
    c1 = float(np.max(targets[1:] / targets[:-1])) if len(targets) > 1 else 1.0
    return BlockScoreReport(criterion=criterion, score=float(ratios[i]) if len(ratios) else 0.0,
                            witness=i + 1, c1_hat=c1, rows=rows)


def score_block_sum(scheme: CoefficientScheme, blocks: BlockSequence,
                    weight: Weight) -> BlockScoreReport:
    """Prefix sums of sqrt(S_j log n_j) against g at each block end."""
    return _score_blocks("block_sum", True, scheme, blocks, weight)


def score_blockwise(scheme: CoefficientScheme, blocks: BlockSequence,
                    weight: Weight) -> BlockScoreReport:
    """Per-block sqrt(S_k log n_k) against g, no prefix sum."""
    return _score_blocks("blockwise", False, scheme, blocks, weight)


CESARO = "cesaro"
PARTIAL = "partial"


@dataclass(frozen=True)
class OperatorNormRow:
    n: int
    lower: float
    upper: float
    g: float

    @property
    def ratio_lower(self):
        return self.lower / self.g


@dataclass(frozen=True)
class OperatorNormProfile:
    which: str
    rows: tuple


def operator_norm_profile(series: RandomizedSeries, weight: Weight,
                          ns=None, which: str = CESARO,
                          oversample: float = 16.0, refine: bool = True) -> OperatorNormProfile:
    """Boundary sup-norm brackets of sigma_n u (or s_n u) divided by g(n).

    s_n keeps the degrees j < n, sigma_n also scales them by 1 - j/n; both are
    trigonometric polynomials, so the norm is the sup on the unit circle.  n
    runs over dyadic values up to degree + 1 unless a list or BlockSequence is given.
    """
    if which not in (CESARO, PARTIAL):
        fail("CONFIG_INVALID", f"unknown operator {which!r}")
    if ns is None:
        ns = _dyadic_checkpoints(series.degree + 1)
    elif isinstance(ns, BlockSequence):
        ns = [n for n in ns.n if n >= 1]
    support, c = series.scheme.support, series.signed_complex_coeffs()
    rows = []
    for n in map(int, ns):
        if n < 1:
            fail("DOMAIN", f"n must be >= 1, got {n}")
        kept = support[support < n]
        w = 1.0 - kept / float(n) if which == CESARO else 1.0
        b = sup_brackets(c[None, :len(kept)] * w, PlanSlot(kept, 1.0), oversample, refine,
                         series.flavor)[0]
        g = float(eval_g(weight, float(n)))
        rows.append(OperatorNormRow(n=n, lower=b.lower, upper=b.upper, g=g))
    return OperatorNormProfile(which=which, rows=tuple(rows))
