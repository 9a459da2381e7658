"""Randomized series on the unit disk: evaluation, operators, certified sups.

A real harmonic series is

    u(r e^{i theta}) = sum_j r^j (a_j0 xi_j0 cos(j theta) + a_j1 xi_j1 sin(j theta)),

an analytic-flavor series is u(z) = sum_m a_m xi_m z^m with complex signs.
On a fixed circle both reduce to complex trigonometric polynomials with
coefficients c_j = (a_j0 xi_j0 - i a_j1 xi_j1) r^j, which is what the FFT
path and the Bernstein sup certificates work with.

Sup brackets: evaluating on M equispaced angles and applying Bernstein's
inequality ||P'|| <= n ||P|| to the degree-n polynomial gives

    sup <= grid_max / (1 - pi n / M)          (M > pi n),

while any evaluated point is a lower bound.  Long series are truncated
where the exact l1 tail at the radius drops below a relative tolerance;
the tail bound widens both sides of the bracket, keeping it sound.
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

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


def _check_radius(series: RandomizedSeries, r: float):
    if not (0.0 <= r <= 1.0):
        fail("RADIUS_OUT_OF_RANGE", f"need 0 <= r <= 1 for finite series, got {r}")


def evaluate_at(series: RandomizedSeries, r: float, theta):
    """Direct summation at radius r and angle(s) theta."""
    _check_radius(series, r)
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    j = series.scheme.support
    radial = np.power(float(r), j.astype(float))
    jt = np.outer(th, j.astype(float))
    if series.flavor == ANALYTIC:
        c = series.signed_complex_coeffs() * radial
        vals = np.exp(1j * jt) @ c
    else:
        a = series.scheme.cos_coeffs * series.signs[:, 0] * radial
        b = series.scheme.sin_coeffs * series.signs[:, 1] * radial
        vals = np.cos(jt) @ a + np.sin(jt) @ b
    return vals[0] if np.isscalar(theta) or np.asarray(theta).ndim == 0 else vals


def evaluate_circle(series: RandomizedSeries, r: float, M: int) -> np.ndarray:
    """Values at the M angles theta_t = 2 pi t / M via one inverse FFT.

    Coefficient j lands in bin j mod M (aliasing rule for M <= degree);
    on these angles e^{ij theta_t} = e^{i (j mod M) theta_t}, so aliased
    evaluation is exact.
    """
    _check_radius(series, r)
    if M < 1:
        fail("DOMAIN", f"M must be >= 1, got {M}")
    j = series.scheme.support
    c = series.signed_complex_coeffs() * np.power(float(r), j.astype(float))
    buf = np.zeros(M, dtype=complex)
    np.add.at(buf, j % M, c)
    vals = np.fft.ifft(buf) * M
    return vals if series.flavor == ANALYTIC else vals.real


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


def _golden_max(f, lo: float, hi: float, iters: int = 48) -> float:
    """Golden-section maximization of f on [lo, hi]."""
    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    best = max(f1, f2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
        best = max(best, f1, f2)
    return best


FLOAT_GUARD = 1e-12  # absorbs FFT/summation roundoff of a few ulps


def _bracket_modulus(support: np.ndarray, coeffs: np.ndarray, oversample: float,
                     refine_fn=None, tail_rtol: float = 1e-12) -> SupBracket:
    """Certified bracket of sup_t |sum_j coeffs_j e^{ijt}|.

    Truncates the coefficient tail once its exact l1 mass drops below
    tail_rtol of the total; the discarded mass widens both bracket sides,
    as does a relative FLOAT_GUARD covering grid-value roundoff.
    """
    mags = np.abs(coeffs)
    l1 = float(mags.sum())
    if l1 == 0.0 or len(support) == 0:
        return SupBracket(0.0, 0.0, 1, 0)
    # minimal prefix keeping all but tail_rtol of the l1 mass
    suffix = np.cumsum(mags[::-1])[::-1]
    tau = tail_rtol * l1
    keep = int(np.searchsorted(-suffix, -tau))  # first idx with suffix <= tau
    keep = max(keep, 1)
    tail = float(suffix[keep]) if keep < len(support) else 0.0
    sup_t = support[:keep]
    c_t = coeffs[:keep]
    n_eff = int(sup_t[-1])
    M = _next_pow2(oversample * max(n_eff, 1) * math.pi)
    buf = np.zeros(M, dtype=complex)
    np.add.at(buf, sup_t % M, c_t)
    vals = np.abs(np.fft.ifft(buf) * M)
    gmax = float(vals.max())
    lower = max(gmax - tail, 0.0)
    if refine_fn is not None:
        h = 2.0 * math.pi / M
        top = np.argpartition(vals, -3)[-3:]
        for t in top:
            th = 2.0 * math.pi * float(t) / M
            lower = max(lower, _golden_max(refine_fn, th - h, th + h))
    lower *= 1.0 - FLOAT_GUARD
    upper = (gmax / (1.0 - math.pi * n_eff / M) + tail) * (1.0 + FLOAT_GUARD)
    return SupBracket(lower=lower, upper=upper, grid_size=M, degree=n_eff)


def sup_bracket(series: RandomizedSeries, r: float, oversample: float = 16.0,
                refine: bool = True, tail_rtol: float = 1e-12) -> SupBracket:
    """Certified bracket of sup over the circle of radius r.

    The grid has M = next power of two above oversample * pi * degree
    points, so pi n / M <= 1/oversample.  With refine on, golden-section
    sweeps around the top three grid angles sharpen the lower bound by
    direct (untruncated) evaluation.
    """
    _check_radius(series, r)
    if oversample < 4:
        fail("DOMAIN", f"oversample must be >= 4, got {oversample}")
    j = series.scheme.support
    c = series.signed_complex_coeffs() * np.power(float(r), j.astype(float))
    refine_fn = None
    if refine:
        refine_fn = lambda th: float(np.abs(evaluate_at(series, r, th)))
    return _bracket_modulus(j, c, oversample, refine_fn, tail_rtol)


def partial_sum(series: RandomizedSeries, n: int) -> RandomizedSeries:
    """s_n: keep degrees j <= n - 1."""
    if n < 1:
        fail("DOMAIN", f"n must be >= 1, got {n}")
    keep = series.scheme.support < n
    sch = series.scheme
    out = scheme_from_arrays(
        sch.support[keep], sch.cos_coeffs[keep], sch.sin_coeffs[keep],
        min(sch.max_degree, n - 1),
        {"name": "partial_sum", "n": n, "base": dict(sch.provenance)})
    return RandomizedSeries(out, series.signs[keep], series.flavor)


def cesaro_mean(series: RandomizedSeries, n: int) -> RandomizedSeries:
    """sigma_n: coefficient j scaled by (1 - j/n) for j < n, dropped beyond."""
    if n < 1:
        fail("DOMAIN", f"n must be >= 1, got {n}")
    sch = series.scheme
    keep = sch.support < n
    w = 1.0 - sch.support[keep].astype(float) / float(n)
    out = scheme_from_arrays(
        sch.support[keep], sch.cos_coeffs[keep] * w, sch.sin_coeffs[keep] * w,
        min(sch.max_degree, n - 1),
        {"name": "cesaro_mean", "n": n, "base": dict(sch.provenance)})
    return RandomizedSeries(out, series.signs[keep], series.flavor)


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
    """Certified bracket of sup over the circle of |grad u| = |f'|."""
    if series.flavor != REAL_HARMONIC:
        fail("FLAVOR_MISMATCH", "gradient brackets apply to real harmonic series")
    _check_radius(series, r)
    j = series.scheme.support
    pos = j >= 1
    jj = j[pos]
    c = series.signed_complex_coeffs()[pos] * jj.astype(float)
    dsup = jj - 1
    cd = c * np.power(float(r), dsup.astype(float))

    def refine_fn(th):
        z = r * complex(math.cos(th), math.sin(th))
        val = np.sum(jj.astype(float) * series.signed_complex_coeffs()[pos]
                     * z ** (jj.astype(float) - 1.0))
        return abs(val)

    return _bracket_modulus(dsup, cd, oversample, refine_fn if refine else None)


@dataclass(frozen=True)
class GrowthProfile:
    radii: tuple
    brackets: tuple          # SupBracket per radius

    def rows(self, weight=None):
        from .weights import eval_v
        out = []
        for r, b in zip(self.radii, self.brackets):
            n_of_r = 1.0 / (1.0 - r) if r < 1.0 else math.inf
            g = eval_v(weight, r) if weight is not None else float("nan")
            out.append((r, n_of_r, b.lower, b.upper, g,
                        b.lower / g if weight is not None else float("nan"),
                        b.upper / g if weight is not None else float("nan")))
        return out

    def to_csv(self, weight=None) -> str:
        from .reporting import format_csv
        return format_csv(
            ["r", "n_of_r", "lower", "upper", "g_of_r", "ratio_lower", "ratio_upper"],
            self.rows(weight))


def growth_profile(series: RandomizedSeries, radii, oversample: float = 16.0,
                   refine: bool = True) -> GrowthProfile:
    """One certified sup bracket per radius; no monotonicity is implied for
    truncated series, so none is asserted."""
    radii = tuple(float(r) for r in radii)
    for r in radii:
        if not (0.0 <= r < 1.0) and r != 1.0:
            fail("RADIUS_OUT_OF_RANGE", f"radii must lie in [0, 1], got {r}")
    brs = tuple(sup_bracket(series, r, oversample=oversample, refine=refine)
                for r in radii)
    return GrowthProfile(radii=radii, brackets=brs)


def block_radii(block_ns):
    """The canonical radii r = 1 - 1/n_k along a block sequence."""
    return [1.0 - 1.0 / n for n in block_ns if n >= 2]
