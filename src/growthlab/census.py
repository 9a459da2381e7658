"""Necessary-condition diagnostics: liminf profiles and coefficient censuses.

liminf_profile tracks the running minimum over j of the normalized magnitude

    |a_j| sqrt(n_k(j)) / g(j)

with k(j) the block containing j; a finite-range liminf proxy is the final
running minimum, reported together with dyadic checkpoints (no asymptotic
verdict is implied).  Functions bounded by the weight keep this proxy
finite; sign-flattened extremal examples keep it strictly positive, while
lacunary examples drive it to zero through their empty blocks.

coefficient_census counts, for thresholds p_j increasing to infinity, how
many indices j <= n satisfy

    |a_j| <= p_j g(j) / sqrt(j)

and reports N(n)/n at dyadic n.  Indices start at 1 so the fraction stays
in [0, 1].

The Bloch form for a Bloch-type weight w is either diagnostic applied to
schemes.radial_derivative(scheme), coefficients j a_j, against the growth
weight g = 1/w(1 - 1/x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import _dyadic_checkpoints
from .errors import fail
from .schemes import CoefficientScheme, NuSequence
from .weights import BlockSequence, Weight, eval_g


@dataclass(frozen=True)
class LiminfRow:
    j: int
    value: float
    running_min: float


@dataclass(frozen=True)
class LiminfReport:
    rows: tuple              # dyadic checkpoints
    proxy: float             # final running minimum
    range_lo: int
    range_hi: int


def liminf_profile(scheme: CoefficientScheme, blocks: BlockSequence,
                   weight: Weight) -> LiminfReport:
    """Running minimum of the normalized magnitude over j in (n_0, n_kmax]."""
    if blocks.n[-1] < scheme.max_degree:
        fail("BLOCKS_TOO_SHORT",
             f"blocks reach {blocks.n[-1]} but the scheme has degree {scheme.max_degree}")
    lo = blocks.n[0] + 1
    hi = blocks.n[-1]
    if hi < lo:
        fail("BLOCKS_TOO_SHORT", "no indices beyond n0 to profile")
    mags = scheme.dense_magnitudes(hi)[lo:]
    j = np.arange(lo, hi + 1, dtype=np.int64)
    edges = np.asarray(blocks.n, dtype=np.int64)
    nk = edges[np.searchsorted(edges, j, side="left")].astype(float)
    vals = mags * np.sqrt(nk) / eval_g(weight, j.astype(float))
    running = np.minimum.accumulate(vals)
    cps = [LiminfRow(j=int(m), value=float(vals[m - lo]), running_min=float(running[m - lo]))
           for m in _dyadic_checkpoints(hi) if m >= lo]
    return LiminfReport(rows=tuple(cps), proxy=float(running[-1]), range_lo=lo, range_hi=hi)


@dataclass(frozen=True)
class CensusRow:
    n: int
    N_n: int
    fraction: float
    threshold_at_n: float


@dataclass(frozen=True)
class CensusReport:
    rows: tuple


def coefficient_census(scheme: CoefficientScheme, weight: Weight, p: NuSequence,
                       n_max: int) -> CensusReport:
    """Fractions N(n)/n of indices meeting the threshold, at dyadic n."""
    if n_max < 1:
        fail("EMPTY_RANGE", f"need n_max >= 1, got {n_max}")
    mags = scheme.dense_magnitudes(n_max)[1:]
    j = np.arange(1, n_max + 1, dtype=np.int64)
    pj = p.at(j.astype(float))
    if np.any(np.diff(pj) < 0) or np.any(pj <= 0):
        fail("CONFIG_INVALID", "census thresholds p_j must be positive and non-decreasing")
    jf = j.astype(float)
    thresholds = pj * eval_g(weight, jf) / np.sqrt(jf)
    ok = np.cumsum(mags <= thresholds)
    return CensusReport(rows=tuple(
        CensusRow(n=int(m), N_n=int(ok[m - 1]), fraction=float(ok[m - 1] / m),
                  threshold_at_n=float(thresholds[m - 1]))
        for m in _dyadic_checkpoints(n_max)))
