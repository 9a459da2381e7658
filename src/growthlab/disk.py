"""Randomized series on the unit disk: evaluation, operators, certified sups.

A real harmonic series is

    u(r e^{i theta}) = sum_j r^j (a_j0 xi_j0 cos(j theta) + a_j1 xi_j1 sin(j theta)),

an analytic-flavor series is u(z) = sum_m a_m xi_m z^m with complex signs.
On a fixed circle both reduce to trigonometric polynomials in the
coefficients c_j = (a_j0 xi_j0 - i a_j1 xi_j1) r^j: u = Re sum c_j e^{ij theta}
for the real flavor, and the modulus |sum c_j e^{ij theta}| for the analytic
one.  One FFT helper evaluates either on M equispaced angles (the real part
from its half spectrum), one direct-summation helper at any angles.  The FFT
helper never transforms the zero padding of a fine grid: it splits the M
angles into P = M / L interleaved rows, L the smallest M / 2^a above 2n (or
M itself), and runs one L-point transform per row on twisted coefficients.
That layout is a CirclePlan, which brackets at one radius share through a
PlanSlot.  For real coefficients, rows P - p mirror rows p, so brackets
transform rows 0..P/2 only, in blocks of about BLOCK_BYTES of spectrum.

Sup brackets bound sup|u| for the real flavor and sup|f| for the analytic
flavor.  A real trigonometric polynomial T of degree n satisfies
T(t) >= ||T|| cos(n (t - t*)) near a maximiser t* (Bernstein-Szego), and
rotating the phase carries this to |f|, so on M > 2n angles

    grid_max <= sup <= grid_max / cos(pi n / M).

M is the power of two above oversample * pi * n, for a finite oversample
>= 4, and never above MAX_GRID.  Long series are truncated where the exact
l1 tail at the radius drops below TAIL_RTOL of the total; the tail bound
widens both sides of the bracket, keeping it sound.  Refinement sharpens
the lower bound by a Newton ascent from the three best grid angles at once,
summing the bracket's own untruncated coefficients and their derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import fail
from .randomness import RandomModel, SeedSpec, sample_vector
from .schemes import CoefficientScheme, scheme_from_arrays

REAL_HARMONIC = "real_harmonic"
ANALYTIC = "analytic"

@dataclass(frozen=True, eq=False)
class RandomizedSeries:
    """A coefficient scheme tensored with one sampled sign vector."""

    scheme: CoefficientScheme
    signs: np.ndarray    # (S, 2) real for REAL_HARMONIC, (S,) complex for ANALYTIC
    flavor: str = REAL_HARMONIC

    @property
    def degree(self) -> int:
        return int(self.scheme.support[-1]) if self.scheme.size else 0

    def signed_complex_coeffs(self) -> np.ndarray:
        """c_j with u(re^{i t}) = Re sum c_j r^j e^{ijt} (real flavor) or the
        analytic coefficients a_j xi_j."""
        if self.flavor == ANALYTIC:
            return self.scheme.cos_coeffs * self.signs
        return (self.scheme.cos_coeffs * self.signs[:, 0]
                - 1j * self.scheme.sin_coeffs * self.signs[:, 1])


def randomize(scheme: CoefficientScheme, model: RandomModel, seed_spec: SeedSpec,
              trial: int, flavor: str = REAL_HARMONIC, lane: int = 0) -> RandomizedSeries:
    """Attach signs drawn in support order; deterministic given all inputs.

    Real models are accepted by both flavors; the complex steinhaus model
    only by the analytic flavor.
    """
    if flavor not in (REAL_HARMONIC, ANALYTIC):
        fail("CONFIG_INVALID", f"unknown flavor {flavor!r}")
    if model.is_complex and flavor == REAL_HARMONIC:
        fail("FLAVOR_MISMATCH", "complex steinhaus signs require the analytic flavor")
    s = scheme.size
    if flavor == ANALYTIC:
        xi = sample_vector(model, seed_spec, trial, s, lane=lane).astype(complex)
    else:
        xi = sample_vector(model, seed_spec, trial, 2 * s, lane=lane).reshape(s, 2)
    return RandomizedSeries(scheme=scheme, signs=xi, flavor=flavor)


def unit_series(scheme: CoefficientScheme, flavor: str = REAL_HARMONIC) -> RandomizedSeries:
    """The deterministic series with every sign +1."""
    s = scheme.size
    if flavor == ANALYTIC:
        return RandomizedSeries(scheme, np.ones(s, dtype=complex), flavor)
    return RandomizedSeries(scheme, np.ones((s, 2)), flavor)


def _check_radius(r: float):
    if not (0.0 <= r <= 1.0):
        fail("RADIUS_OUT_OF_RANGE", f"need 0 <= r <= 1 for finite series, got {r}")


def check_oversample(oversample: float):
    """Every bracket grid, and every ensemble config, needs a finite oversample >= 4."""
    if not (4.0 <= oversample < math.inf):
        fail("DOMAIN", f"oversample must be finite and >= 4, got {oversample}")


def _coeffs_at(series: RandomizedSeries, r: float) -> np.ndarray:
    """c_j r^j, the coefficients of the series on the circle of radius r."""
    return series.signed_complex_coeffs() * np.power(float(r), series.scheme.support.astype(float))


def _point_values(support: np.ndarray, coeffs: np.ndarray, theta: np.ndarray,
                  real: bool) -> np.ndarray:
    """Re sum_j c_j e^{ij t} (real) or sum_j c_j e^{ij t} at the 1-D angles theta,
    by direct summation, for c = coeffs or each of its columns.  The real part is
    cos(jt) @ Re c - sin(jt) @ Im c on contiguous copies (one BLAS path)."""
    jt = np.outer(theta, support.astype(float))
    if not real:
        return np.exp(1j * jt) @ coeffs
    return (np.cos(jt) @ np.ascontiguousarray(coeffs.real)
            - np.sin(jt) @ np.ascontiguousarray(coeffs.imag))


def evaluate_at(series: RandomizedSeries, r: float, theta):
    """Direct summation at radius r and angle(s) theta."""
    _check_radius(r)
    vals = _point_values(series.scheme.support, _coeffs_at(series, r),
                         np.atleast_1d(np.asarray(theta, dtype=float)),
                         series.flavor == REAL_HARMONIC)
    return vals[0] if np.ndim(theta) == 0 else vals


@dataclass(frozen=True, eq=False)
class CirclePlan:
    """Everything of a circle evaluation but the coefficients (see circle_plan)."""

    key: tuple              # (number of coefficients, M, real flavor, half)
    real: bool
    L: int                  # P = M / L rows of L angles
    m: np.ndarray           # bin of each coefficient
    fold: np.ndarray        # coefficients conjugated into bin L - m, or None
    scale: np.ndarray       # L, times the half-spectrum weight for the real flavor
    twists: np.ndarray      # e^{2 pi i m p / M}, one row per evaluated row p


def circle_plan(support: np.ndarray, M: int, real: bool, half: bool = False) -> CirclePlan:
    """The layout of Re sum_j c_j e^{ijt} (real) or sum_j c_j e^{ijt} on the M angles
    t = 2 pi k / M as a (P, L) array whose entry [p, q] is the value at k = qP + p.

    L is the smallest M / 2^a with L > 2n (n the largest j) and L >= 8, else M
    (M odd, M <= 4n or M < 16); P = M / L.  As e^{ijt} = e^{2 pi i j p / M}
    e^{2 pi i j q / L}, row p is one L-point inverse transform of the coefficients
    twisted by e^{2 pi i j p / M}, so the zero padding of a fine grid is never
    transformed.  Coefficient j lands in bin j mod L, exact on these angles even
    when M <= 2n.  The real part comes from the half spectrum: a bin m > L/2 folds
    to L - m with the conjugate coefficient, bins 0 and L/2 carry weight 1 (only
    their real parts count) and the others 1/2; these weights and the scale L go
    on the coefficients.  With P > 1, L > 2n gives every frequency j <= n its own
    bin below L/2: nothing aliases or folds and the Nyquist bin stays empty, so
    the twist, a function of j and not of j mod L, is one factor per bin.  Half
    evaluates rows 0..P/2, enough for real coefficients: S(-t) = conj S(t), and
    -k = (L-1-q)P + (P-p) makes row P - p row p reversed, with the same |values|.
    """
    n = int(support.max(initial=0))
    L = M
    while L % 2 == 0 and L > 4 * n and L >= 16:
        L //= 2
    P = M // L
    m = support % L
    fold, scale = m > L // 2, L
    if real:
        scale = np.where((m == 0) | (2 * m == L), 1.0, 0.5) * L
        m = np.where(fold, L - m, m)
    # m p < M / 2 is an exact integer, so each twist has one cos or sin roundoff for any P
    phase = np.outer(np.arange(P // 2 + 1 if half else P), m) * (2.0 * math.pi / M)
    twists = np.empty(phase.shape, dtype=complex)
    twists.real, twists.imag = np.cos(phase), np.sin(phase)
    return CirclePlan((len(m), M, real, half), real, L, m,
                      fold if real and fold.any() else None, scale, twists)


def _circle_values(plan: CirclePlan, coeffs: np.ndarray, blocks):
    """Yield, per row selection in blocks (slice or index array of evaluated rows),
    the values of those rows: entry [i, q] is the value at k = qP + (row i)."""
    c = coeffs * plan.scale
    if plan.fold is not None:
        c = np.where(plan.fold, np.conj(c), c)
    spec = np.zeros((1, plan.L // 2 + 1 if plan.real else plan.L), dtype=complex)
    np.add.at(spec[0], plan.m, c)
    base = spec[0, plan.m]             # a bin's sum, once per coefficient landing there
    for rows in blocks:
        twists = plan.twists[rows]
        block = np.zeros((len(twists), spec.shape[1]), dtype=complex)
        block[:, plan.m] = twists * base   # repeated bins write equal values
        yield np.fft.irfft(block, n=plan.L) if plan.real else np.fft.ifft(block)


def evaluate_circle(series: RandomizedSeries, r: float, M: int) -> np.ndarray:
    """Values at the M angles theta_t = 2 pi t / M, in t order: real for the real
    flavor, complex for the analytic one."""
    _check_radius(r)
    if M < 1:
        fail("DOMAIN", f"M must be >= 1, got {M}")
    plan = circle_plan(series.scheme.support, M, series.flavor == REAL_HARMONIC)
    return next(_circle_values(plan, _coeffs_at(series, r), [slice(None)])).T.ravel()


@dataclass(frozen=True)
class SupBracket:
    """Certified lower <= sup <= upper on one circle."""

    lower: float
    upper: float
    grid_size: int
    degree: int

    @property
    def width_ratio(self) -> float:
        return self.upper / self.lower if self.lower > 0 else math.inf


def _next_pow2(x: float) -> int:
    return 1 << max(3, int(math.ceil(math.log2(max(2.0, x)))))


FLOAT_GUARD = 1e-12  # absorbs FFT/summation roundoff of a few ulps
TAIL_RTOL = 1e-12    # relative l1 mass a bracket may drop from its coefficient tail
MAX_GRID = 2**24     # circle grid limit, 4x the largest in use (2^22 at degree 65536)
BLOCK_BYTES = 2**21  # spectrum a bracket hands one transform call
NEWTON_STEPS = 8     # direct-summation calls of one refinement


def secant_upper(gmax: float, n: int, M: int) -> float:
    """Bernstein-Szego: a degree-n trigonometric polynomial (or the modulus of
    one with frequencies 0..n) whose max over M > 2n equispaced angles is gmax
    has sup <= gmax / cos(pi n / M)."""
    return gmax / math.cos(math.pi * n / M)


def _newton_max(support: np.ndarray, coeffs: np.ndarray, real: bool,
                seeds: np.ndarray, h: float) -> float:
    """Largest |value| met by a safeguarded Newton ascent of |Re S| (real) or |S|^2
    from every seed angle at once, each kept within h of its seed.

    One direct summation of the columns [c, i j c, -j^2 c] gives S, S' and S''
    at all iterates.  The ascent ends when every step is roundoff; the result
    is sound however far Newton got."""
    jf = support.astype(float)
    cols = np.stack([coeffs, 1j * jf * coeffs, -jf * jf * coeffs], axis=1)
    lo, hi = seeds - h, seeds + h
    t, best = seeds, 0.0
    for _ in range(NEWTON_STEPS):
        s, d1, d2 = _point_values(support, cols, t, real).T
        best = max(best, float(np.abs(s).max()))
        if real:   # ascend sign(u) u
            g1, g2 = np.sign(s) * d1, np.sign(s) * d2
        else:      # ascend |S|^2
            g1, g2 = 2.0 * (s.conj() * d1).real, 2.0 * (abs(d1) ** 2 + (s.conj() * d2).real)
        up = g2 < 0.0    # a seed with curvature of the wrong sign stays put
        nxt = np.clip(t - np.where(up, g1, 0.0) / np.where(up, g2, -1.0), lo, hi)
        if np.all(np.abs(nxt - t) <= 4.0 * np.spacing(np.abs(t) + 1.0)):
            break
        t = nxt
    return best


def _bracket_modulus(support: np.ndarray, coeffs: np.ndarray, oversample: float, real: bool,
                     refine: bool, slot: "PlanSlot") -> SupBracket:
    """Certified bracket of sup_t |Re sum_j coeffs_j e^{ijt}| (real) or
    sup_t |sum_j coeffs_j e^{ijt}|.

    Truncates the coefficient tail once its exact l1 mass drops below
    TAIL_RTOL of the total; the discarded mass widens both bracket sides,
    as does a relative FLOAT_GUARD covering grid-value roundoff.  The slot's
    plan is reused when its key fits, else replaced.  Refinement runs on the
    untruncated coefficients.
    """
    check_oversample(oversample)
    mags = np.abs(coeffs)
    l1 = float(mags.sum())
    if l1 == 0.0 or len(support) == 0:
        return SupBracket(0.0, 0.0, 1, 0)
    # minimal prefix keeping all but TAIL_RTOL of the l1 mass
    suffix = np.cumsum(mags[::-1])[::-1]
    keep = max(int(np.searchsorted(-suffix, -TAIL_RTOL * l1)), 1)   # first suffix <= that
    tail = float(suffix[keep]) if keep < len(support) else 0.0
    n_eff = int(support[keep - 1])
    M = _next_pow2(min(oversample * max(n_eff, 1) * math.pi, 2.0 * MAX_GRID))
    if M > MAX_GRID:
        fail("BUDGET_EXCEEDED", f"oversample {oversample:g} at degree {n_eff} needs a "
             f"circle grid above MAX_GRID = {MAX_GRID} points")
    kept = coeffs[:keep]
    key = (keep, M, real, not kept.imag.any())
    plan = slot.plan             # read once: threads sharing the slot may swap it
    if plan is None or plan.key != key:
        plan = slot.plan = circle_plan(support[:keep], *key[1:])
    step = max(1, BLOCK_BYTES // (16 * (plan.L // 2 + 1 if real else plan.L)))
    blocks = [slice(i, i + step) for i in range(0, len(plan.twists), step)]
    row_max = np.concatenate([np.maximum(v.max(1), -v.min(1)) if real else np.abs(v).max(1)
                              for v in _circle_values(plan, kept, blocks)])
    gmax = float(row_max.max())
    lower = max(gmax - tail, 0.0)
    if refine:
        # the three largest grid values lie in the three rows of largest max
        rows = np.argsort(row_max)[-3:]
        vals = np.abs(next(_circle_values(plan, kept, [rows])))
        i, q = np.divmod(np.argpartition(vals, -3, axis=None)[-3:], vals.shape[1])
        seeds = 2.0 * math.pi * (q * (M // plan.L) + rows[i]) / M
        lower = max(lower, _newton_max(support, coeffs, real, seeds, 2.0 * math.pi / M))
    lower *= 1.0 - FLOAT_GUARD
    upper = (secant_upper(gmax, n_eff, M) + tail) * (1.0 + FLOAT_GUARD)
    return SupBracket(lower=lower, upper=upper, grid_size=M, degree=n_eff)


class PlanSlot:
    """r^j on one support at radius r, and the plan of the last bracket sharing it."""

    def __init__(self, support: np.ndarray, r: float):
        self.radial = np.power(float(r), support.astype(float))
        self.plan = None


def sup_bracket(series: RandomizedSeries, r: float, oversample: float = 16.0,
                refine: bool = True, *, slot: PlanSlot = None) -> SupBracket:
    """Certified bracket of sup|u| (real flavor) or sup|f| (analytic flavor)
    over the circle of radius r.

    The grid has M = next power of two above oversample * pi * degree
    points (a finite oversample >= 4, M <= MAX_GRID), so pi n / M <=
    1/oversample and the secant bound keeps upper / lower <= 1 /
    cos(1/oversample) up to the TAIL_RTOL and roundoff guards.  With refine
    on, a safeguarded Newton ascent from the top three grid angles, each kept
    within one grid step of its seed, sharpens the lower bound: at most
    NEWTON_STEPS direct summations of the same coefficients c_j r^j,
    untruncated, for all three.  Brackets at one r of series on one support
    may share a slot.
    """
    _check_radius(r)
    slot = PlanSlot(series.scheme.support, r) if slot is None else slot
    return _bracket_modulus(series.scheme.support, series.signed_complex_coeffs() * slot.radial,
                            oversample, series.flavor == REAL_HARMONIC, refine, slot)


def _truncate(series: RandomizedSeries, n: int, name: str, cesaro: bool) -> RandomizedSeries:
    """Keep degrees j <= n - 1, scaled by 1 - j/n when cesaro is set."""
    if n < 1:
        fail("DOMAIN", f"n must be >= 1, got {n}")
    sch = series.scheme
    keep = sch.support < n
    w = 1.0 - sch.support[keep] / float(n) if cesaro else 1.0
    out = scheme_from_arrays(
        sch.support[keep], sch.cos_coeffs[keep] * w, sch.sin_coeffs[keep] * w,
        min(sch.max_degree, n - 1), {"name": name, "n": n, "base": dict(sch.provenance)})
    return RandomizedSeries(out, series.signs[keep], series.flavor)


def partial_sum(series: RandomizedSeries, n: int) -> RandomizedSeries:
    """s_n: keep degrees j <= n - 1."""
    return _truncate(series, n, "partial_sum", cesaro=False)


def cesaro_mean(series: RandomizedSeries, n: int) -> RandomizedSeries:
    """sigma_n: coefficient j scaled by (1 - j/n) for j < n, dropped beyond."""
    return _truncate(series, n, "cesaro_mean", cesaro=True)


def gradient_at(series: RandomizedSeries, x) -> np.ndarray:
    """Exact Cartesian gradient at an interior point.

    With f(z) = sum c_j z^j and u = Re f, the gradient is
    (Re f'(z), -Im f'(z)); both components come from one derivative sum.
    """
    if series.flavor != REAL_HARMONIC:
        fail("FLAVOR_MISMATCH", "gradient_at applies to real harmonic series")
    x = np.asarray(x, dtype=float)
    z = complex(x[0], x[1])
    if abs(z) >= 1.0:
        fail("RADIUS_OUT_OF_RANGE", f"gradient needs |x| < 1, got {abs(z)}")
    j = series.scheme.support
    pos = j >= 1
    jj = j[pos].astype(float)
    c = series.signed_complex_coeffs()[pos]
    fprime = np.sum(jj * c * z ** (jj - 1.0))
    return np.array([fprime.real, -fprime.imag])


def gradient_sup_bracket(series: RandomizedSeries, r: float, oversample: float = 16.0,
                         refine: bool = True) -> SupBracket:
    """Certified bracket of sup over the circle of |grad u| = |f'|, with
    f' = sum j c_j z^(j-1) bracketed like an analytic series."""
    if series.flavor != REAL_HARMONIC:
        fail("FLAVOR_MISMATCH", "gradient brackets apply to real harmonic series")
    _check_radius(r)
    j = series.scheme.support
    pos = j >= 1
    slot = PlanSlot(j[pos] - 1, r)
    cd = series.signed_complex_coeffs()[pos] * j[pos].astype(float) * slot.radial
    return _bracket_modulus(j[pos] - 1, cd, oversample, False, refine, slot)
