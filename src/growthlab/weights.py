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

from .errors import GrowthLabError, fail

N_BUDGET = 2**53  # block indices stay integers that floats hold exactly

POWER = "power"
LOGPOWER = "logpower"
BLOCH_RECIPROCAL = "bloch_reciprocal"
TABLE = "table"


@dataclass(frozen=True)
class Weight:
    """Immutable doubling weight; evaluate through eval_g / eval_v / eval_w."""

    family: str
    alpha: Optional[float] = None
    log_base: float = math.e
    inner: Optional["Weight"] = None
    xs: Optional[tuple] = None
    gs: Optional[tuple] = None
    domain_min: float = 1.0

    @property
    def known_doubling(self) -> Optional[float]:
        """Analytic doubling constant where a closed form exists."""
        if self.family == POWER:
            return 2.0 ** self.alpha
        if self.family == BLOCH_RECIPROCAL:
            return self.inner.known_doubling
        return None

    def label(self) -> str:
        if self.family in (POWER, LOGPOWER):
            base = "" if self.log_base == math.e else f":{self.log_base:g}"
            return f"{self.family}:{self.alpha:g}{base}"
        if self.family == BLOCH_RECIPROCAL:
            return f"bloch_reciprocal({self.inner.label()})"
        return f"table[{len(self.xs)}]"


def make_weight(family: str, alpha: float, log_base: float = math.e) -> Weight:
    """Construct a power or log-power weight.

    power:    g(x) = x^alpha
    logpower: g(x) = max(1, (log_b x)^alpha), natural log unless log_base set
    """
    if family not in (POWER, LOGPOWER):
        fail("CONFIG_INVALID", f"unknown weight family {family!r}")
    if not (0 < alpha < math.inf):
        fail("NON_POSITIVE_EXPONENT", f"alpha must be finite and > 0, got {alpha}")
    if not (1 < log_base < math.inf):
        fail("CONFIG_INVALID", f"log base must be finite and exceed 1, got {log_base}")
    return Weight(family=family, alpha=float(alpha), log_base=float(log_base))


def table_weight(xs, gs) -> Weight:
    """Weight from sampled monotone values; validates rather than sorts."""
    xs = tuple(float(x) for x in xs)
    gs = tuple(float(g) for g in gs)
    if len(xs) != len(gs) or not xs:
        fail("CONFIG_INVALID", "table weight needs equally many xs and gs, at least one")
    if xs[0] < 1.0:
        fail("DOMAIN", f"table weight abscissae must start at >= 1, got {xs[0]}")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        fail("CONFIG_INVALID", "table weight abscissae must be strictly increasing")
    if gs[0] < 1.0:
        fail("CONFIG_INVALID", f"table weight values must start at >= 1 (v(0)=1), got {gs[0]}")
    if any(b < a for a, b in zip(gs, gs[1:])):
        fail("CONFIG_INVALID", "table weight values must be non-decreasing")
    return Weight(family=TABLE, xs=xs, gs=gs, domain_min=xs[0])


def bloch_reciprocal(inner: Weight) -> Weight:
    """Growth weight 1/w of a Bloch-type weight w, tagged for Bloch scoring.

    A decreasing Bloch weight w with w -> 0 is carried around as the growth
    weight g = 1/w(1 - 1/x); w itself is recovered via eval_w.
    """
    return Weight(family=BLOCH_RECIPROCAL, inner=inner, domain_min=inner.domain_min)


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
    if weight.family == LOGPOWER:
        lx = np.log(x) / math.log(weight.log_base)
        return np.maximum(1.0, lx ** weight.alpha)
    if weight.family == BLOCH_RECIPROCAL:
        return _g(weight.inner, x)
    if weight.family == TABLE:
        return np.interp(x, weight.xs, weight.gs)
    raise AssertionError(f"unhandled family {weight.family}")


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
    x_max: float
    grid_size: int


def doubling_audit(weight: Weight, x_max: float, grid_size: int = 2048) -> DoublingAudit:
    """Measure max g(2x)/g(x) over a log-spaced grid on [domain_min, x_max/2]."""
    if not (2.0 <= x_max < math.inf):
        fail("DOMAIN", f"x_max must be finite and >= 2, got {x_max}")
    lo = max(1.0, weight.domain_min)
    hi = max(lo, x_max / 2.0)
    if grid_size <= 1 or hi == lo:
        xs = np.array([lo])
    else:
        xs = np.geomspace(lo, hi, grid_size)
    ratios = _g(weight, 2.0 * xs) / _g(weight, xs)
    i = int(np.argmax(ratios))
    return DoublingAudit(d_hat=float(ratios[i]), worst_x=float(xs[i]),
                         x_max=float(x_max), grid_size=len(xs))


@dataclass(frozen=True)
class BlockSequence:
    """Indices n_0 < n_1 < ... where g grows by at least the factor ratio_a."""

    weight: Weight
    ratio_a: float
    n: tuple
    require_doubling_growth: bool = False

    def __len__(self):
        return len(self.n)

    @property
    def k_max(self) -> int:
        return len(self.n) - 1

    def g_values(self) -> np.ndarray:
        return _g(self.weight, np.asarray(self.n, dtype=float))

    def to_csv(self) -> str:
        from .reporting import format_csv
        g = self.g_values()
        rows = [(k, nk, float(g[k])) for k, nk in enumerate(self.n)]
        return format_csv(["k", "n_k", "g_nk"], rows,
                          comments=[f"weight={self.label()}"])

    def label(self) -> str:
        return f"{self.weight.label()},A={self.ratio_a:g},n0={self.n[0]},k_max={self.k_max}"


def block_sequence(weight: Weight, A: float, n0: int, k_max: int,
                   require_doubling_growth: bool = False) -> BlockSequence:
    """Build the ratio-A block sequence exactly.

    Each step finds the minimal integer l with g(l) >= A g(n_k): gallop in
    doubling strides past the threshold, then binary search inside the
    bracket.  Both bounds of the exactness property hold by construction,
    g(n_{k+1}) >= A g(n_k) and g(n_{k+1} - 1) < A g(n_k).

    Raises OVERFLOW when the next index would pass N_BUDGET = 2^53, beyond
    which g, evaluated in floats, no longer sees every integer (log-power
    weights explode doubly exponentially), and RATIO_TOO_SMALL
    when require_doubling_growth is set but some n_{k+1} < 2 n_k.
    """
    if not A > 1:
        fail("RATIO_TOO_SMALL", f"ratio A must exceed 1, got {A}")
    if n0 < 1:
        fail("DOMAIN", f"n0 must be >= 1, got {n0}")
    if k_max < 1:
        fail("DOMAIN", f"k_max must be >= 1, got {k_max}")

    n = [int(n0)]
    for k in range(k_max):
        cur = n[-1]
        target = A * eval_g(weight, cur)
        if eval_g(weight, float(N_BUDGET)) < target:
            raise GrowthLabError(
                "OVERFLOW",
                f"no index up to 2^53 reaches g >= {target:g} (after k={k})")
        # gallop: find hi with g(hi) >= target
        lo, hi = cur, cur + 1
        step = 1
        while eval_g(weight, hi) < target:
            lo = hi
            step *= 2
            hi = min(cur + step, N_BUDGET)
        # binary search for the minimal qualifying index in (lo, hi]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if eval_g(weight, mid) >= target:
                hi = mid
            else:
                lo = mid
        nxt = hi
        if require_doubling_growth and nxt < 2 * cur:
            raise GrowthLabError(
                "RATIO_TOO_SMALL",
                f"n_{k + 1} = {nxt} < 2 n_{k} = {2 * cur}; increase A")
        n.append(nxt)
    return BlockSequence(weight=weight, ratio_a=float(A), n=tuple(n),
                         require_doubling_growth=require_doubling_growth)


# -- serialization -----------------------------------------------------------

def weight_to_json(weight: Weight) -> dict:
    if weight.family in (POWER, LOGPOWER):
        d = {"family": weight.family, "alpha": weight.alpha}
        if weight.log_base != math.e:
            d["log_base"] = weight.log_base
        return d
    if weight.family == BLOCH_RECIPROCAL:
        return {"family": BLOCH_RECIPROCAL, "inner": weight_to_json(weight.inner)}
    return {"family": TABLE, "xs": list(weight.xs), "gs": list(weight.gs)}


def weight_from_json(d: dict) -> Weight:
    fam = d.get("family")
    if fam in (POWER, LOGPOWER):
        return make_weight(fam, d["alpha"], d.get("log_base", math.e))
    if fam == BLOCH_RECIPROCAL:
        return bloch_reciprocal(weight_from_json(d["inner"]))
    if fam == TABLE:
        return table_weight(d["xs"], d["gs"])
    fail("CONFIG_INVALID", f"unknown weight family {fam!r}")


def parse_weight_spec(spec: str) -> Weight:
    """Parse compact CLI specs: 'power:1', 'logpower:0.5', 'logpower:1:2'."""
    parts = spec.split(":")
    fam = parts[0]
    if fam in (POWER, LOGPOWER):
        if len(parts) < 2:
            fail("CONFIG_INVALID", f"weight spec {spec!r} needs an exponent")
        try:
            alpha = float(parts[1])
            base = float(parts[2]) if len(parts) > 2 else math.e
        except ValueError:
            fail("CONFIG_INVALID", f"weight spec {spec!r} needs numbers after the family")
        return make_weight(fam, alpha, base)
    fail("CONFIG_INVALID", f"cannot parse weight spec {spec!r}")
