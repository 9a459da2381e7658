"""Doubling weights and the block sequences they generate.

A radial weight v on [0,1) with v(0) = 1 is handled through its growth
function g(x) = v(1 - 1/x) on [1, infinity).  All weights here are
non-decreasing and doubling: g(2x) <= D g(x) for a finite D, which
``doubling_audit`` measures empirically on a log grid.

Block sequences follow the ratio rule

    n_{k+1} = min { l in N : g(l) >= A g(n_k) },    A > 1,

computed exactly by galloping plus binary search over the monotone
predicate.  Power weights g(x) = x^alpha give geometric blocks (A = 2,
n0 = 1 gives n_k = 2^k); log-power weights give doubly exponential ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GrowthLabError, fail, refuse_unread

N_BUDGET = 2**53  # block indices stay integers that floats hold exactly

POWER = "power"
LOGPOWER = "logpower"


@dataclass(frozen=True)
class Weight:
    """Immutable doubling weight; evaluate through eval_g / eval_v / eval_w."""

    family: str
    alpha: float
    log_base: float = math.e

    @property
    def known_doubling(self) -> Optional[float]:
        """Analytic doubling constant where a closed form exists."""
        if self.family == POWER:
            return 2.0 ** self.alpha
        return None

    def label(self) -> str:
        base = "" if self.log_base == math.e else f":{self.log_base:g}"
        return f"{self.family}:{self.alpha:g}{base}"


def make_weight(family: str, alpha: float, log_base: float = math.e) -> Weight:
    """Construct a power or log-power weight.

    power:    g(x) = x^alpha, no log base
    logpower: g(x) = max(1, (log_b x)^alpha), natural log unless log_base set
    """
    if family not in (POWER, LOGPOWER):
        fail("CONFIG_INVALID", f"unknown weight family {family!r}")
    if not (0 < alpha < math.inf):
        fail("NON_POSITIVE_EXPONENT", f"alpha must be finite and > 0, got {alpha}")
    if not (1 < log_base < math.inf):
        fail("CONFIG_INVALID", f"log base must be finite and exceed 1, got {log_base}")
    if family == POWER and log_base != math.e:
        fail("CONFIG_INVALID", f"a power weight takes no log base, got {log_base}")
    return Weight(family=family, alpha=float(alpha), log_base=float(log_base))


def eval_g(weight: Weight, x):
    """Evaluate g at x >= 1 (scalar or array)."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 1.0):
        fail("DOMAIN", f"g is defined for x >= 1, got minimum {arr.min()}")
    out = _g(weight, arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _g(weight: Weight, x: np.ndarray) -> np.ndarray:
    if weight.family == POWER:
        return x ** weight.alpha
    lx = np.log(x) / math.log(weight.log_base)
    return np.maximum(1.0, lx ** weight.alpha)


def eval_v(weight: Weight, r):
    """Evaluate v(r) = g(1/(1-r)) for 0 <= r < 1."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0.0) or np.any(arr >= 1.0):
        fail("DOMAIN", "v is defined for 0 <= r < 1")
    out = _g(weight, 1.0 / (1.0 - arr))
    return float(out) if np.isscalar(r) or arr.ndim == 0 else out


def eval_w(weight: Weight, r):
    """Bloch-type weight w(r) = 1/v(r) associated with this growth weight."""
    v = eval_v(weight, r)
    return 1.0 / v


@dataclass(frozen=True)
class DoublingAudit:
    d_hat: float
    worst_x: float


DOUBLING_GRID = 2048     # log-spaced points of doubling_audit's grid


def doubling_audit(weight: Weight, x_max: float) -> DoublingAudit:
    """Measure max g(2x)/g(x) over a log-spaced grid on [1, x_max/2]."""
    if not (2.0 <= x_max < math.inf):
        fail("DOMAIN", f"x_max must be finite and >= 2, got {x_max}")
    xs = np.geomspace(1.0, x_max / 2.0, DOUBLING_GRID)
    ratios = _g(weight, 2.0 * xs) / _g(weight, xs)
    i = int(np.argmax(ratios))
    return DoublingAudit(d_hat=float(ratios[i]), worst_x=float(xs[i]))


@dataclass(frozen=True)
class BlockSequence:
    """Indices n_0 < n_1 < ... where g grows by at least the factor ratio_a."""

    weight: Weight
    ratio_a: float
    n: tuple

    def __len__(self):
        return len(self.n)

    @property
    def k_max(self) -> int:
        return len(self.n) - 1

    def g_values(self) -> np.ndarray:
        return _g(self.weight, np.asarray(self.n, dtype=float))

    def label(self) -> str:
        return f"{self.weight.label()},A={self.ratio_a:g},n0={self.n[0]},k_max={self.k_max}"


def block_sequence(weight: Weight, A: float, n0: int, k_max: int) -> BlockSequence:
    """Build the ratio-A block sequence exactly.

    Each step finds the minimal integer l with g(l) >= A g(n_k): gallop in
    doubling strides past the threshold, then binary search inside the
    bracket.  Both bounds of the exactness property hold by construction,
    g(n_{k+1}) >= A g(n_k) and g(n_{k+1} - 1) < A g(n_k).

    Raises RATIO_TOO_SMALL unless A > 1, and OVERFLOW past N_BUDGET = 2^53,
    where g, evaluated in floats, no longer sees every integer (log-power
    weights explode doubly exponentially).
    """
    if not A > 1:
        fail("RATIO_TOO_SMALL", f"ratio A must exceed 1, got {A}")
    if n0 < 1:
        fail("DOMAIN", f"n0 must be >= 1, got {n0}")
    if k_max < 1:
        fail("DOMAIN", f"k_max must be >= 1, got {k_max}")

    def g(x):      # every probe is an integer >= n0 >= 1, so eval_g's check is spent
        return _g(weight, np.asarray(float(x)))

    g_budget = g(N_BUDGET)
    n = [int(n0)]
    for k in range(k_max):
        cur = n[-1]
        target = A * g(cur)
        if g_budget < target:
            raise GrowthLabError(
                "OVERFLOW",
                f"no index up to 2^53 reaches g >= {target:g} (after k={k})")
        # gallop: find hi with g(hi) >= target
        lo, hi = cur, cur + 1
        step = 1
        while g(hi) < target:
            lo = hi
            step *= 2
            hi = min(cur + step, N_BUDGET)
        # binary search for the minimal qualifying index in (lo, hi]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if g(mid) >= target:
                hi = mid
            else:
                lo = mid
        n.append(hi)
    return BlockSequence(weight=weight, ratio_a=float(A), n=tuple(n))


# -- serialization -----------------------------------------------------------

def weight_to_json(weight: Weight) -> dict:
    d = {"family": weight.family, "alpha": weight.alpha}
    if weight.log_base != math.e:
        d["log_base"] = weight.log_base
    return d


def weight_from_json(d: dict) -> Weight:
    fam = d.get("family")
    if fam in (POWER, LOGPOWER):
        refuse_unread(d, ("family", "alpha", "log_base"), f"a {fam} weight")
        return make_weight(fam, d["alpha"], d.get("log_base", math.e))
    fail("CONFIG_INVALID", f"unknown weight family {fam!r}")


def parse_weight_spec(spec: str) -> Weight:
    """Parse compact CLI specs: 'power:1', 'logpower:0.5', 'logpower:1:2'."""
    parts = spec.split(":")
    fam = parts[0]
    if fam in (POWER, LOGPOWER):
        if len(parts) < 2:
            fail("CONFIG_INVALID", f"weight spec {spec!r} needs an exponent")
        if len(parts) > 3:
            fail("CONFIG_INVALID", f"weight spec {spec!r} has fields past the log base")
        try:
            alpha = float(parts[1])
            base = float(parts[2]) if len(parts) > 2 else math.e
        except ValueError:
            fail("CONFIG_INVALID", f"weight spec {spec!r} needs numbers after the family")
        return make_weight(fam, alpha, base)
    fail("CONFIG_INVALID", f"cannot parse weight spec {spec!r}")
