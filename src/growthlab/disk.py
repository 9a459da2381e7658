"""Randomized series on the unit disk: evaluation, operators, certified sups.

A real harmonic series is

    u(r e^{i theta}) = sum_j r^j (a_j0 xi_j0 cos(j theta) + a_j1 xi_j1 sin(j theta)),

an analytic-flavor series is u(z) = sum_m a_m xi_m z^m with complex signs.
On a fixed circle both reduce to trigonometric polynomials in the
coefficients c_j = (a_j0 xi_j0 - i a_j1 xi_j1) r^j: u = Re sum c_j e^{ij theta}
for the real flavor, and the modulus |sum c_j e^{ij theta}| for the analytic
one.  One FFT helper evaluates either on M equispaced angles, the real part
from its half spectrum.

Sup brackets bound sup|u| for the real flavor and sup|f| for the analytic
flavor.  A real trigonometric polynomial T of degree n satisfies
T(t) >= ||T|| cos(n (t - t*)) near a maximiser t* (Bernstein-Szego), and
rotating the phase carries this to |f|, so on M > 2n angles

    grid_max <= sup <= grid_max / cos(pi n / M).

Long series are truncated where the exact l1 tail at the radius drops below
a relative tolerance; the tail bound widens both sides of the bracket,
keeping it sound.
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


def _coeffs_at(series: RandomizedSeries, r: float) -> np.ndarray:
    """c_j r^j, the coefficients of the series on the circle of radius r."""
    return series.signed_complex_coeffs() * np.power(float(r), series.scheme.support.astype(float))


def _circle_values(support: np.ndarray, coeffs: np.ndarray, M: int, real: bool) -> np.ndarray:
    """Re sum_j c_j e^{ijt} (real) or sum_j c_j e^{ijt} at the M angles t = 2 pi k / M.

    Coefficient j lands in bin j mod M; on these angles e^{ijt} = e^{i (j mod M) t},
    so aliased evaluation (M <= 2 degree) is exact.  The real part comes from the
    half spectrum: a bin k > M/2 folds to M - k with the conjugate coefficient,
    bins 0 and M/2 carry weight 1 (only their real parts count) and the others 1/2.
    """
    k = support % M
    if not real:
        buf = np.zeros(M, dtype=complex)
        np.add.at(buf, k, coeffs)
        return np.fft.ifft(buf) * M
    fold = k > M // 2
    c = np.where(fold, np.conj(coeffs), coeffs) * np.where((k == 0) | (2 * k == M), 1.0, 0.5)
    half = np.zeros(M // 2 + 1, dtype=complex)
    np.add.at(half, np.where(fold, M - k, k), c)
    return np.fft.irfft(half, n=M) * M


def evaluate_circle(series: RandomizedSeries, r: float, M: int) -> np.ndarray:
    """Values at the M angles theta_t = 2 pi t / M via one inverse FFT: real
    for the real flavor, complex for the analytic one."""
    _check_radius(series, r)
    if M < 1:
        fail("DOMAIN", f"M must be >= 1, got {M}")
    return _circle_values(series.scheme.support, _coeffs_at(series, r), M,
                          series.flavor == REAL_HARMONIC)


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


def secant_upper(gmax: float, n: int, M: int) -> float:
    """Bernstein-Szego: a degree-n trigonometric polynomial (or the modulus of
    one with frequencies 0..n) whose max over M > 2n equispaced angles is gmax
    has sup <= gmax / cos(pi n / M)."""
    return gmax / math.cos(math.pi * n / M)


def _bracket_modulus(support: np.ndarray, coeffs: np.ndarray, oversample: float, real: bool,
                     refine_fn=None, tail_rtol: float = 1e-12) -> SupBracket:
    """Certified bracket of sup_t |Re sum_j coeffs_j e^{ijt}| (real) or
    sup_t |sum_j coeffs_j e^{ijt}|.

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
    n_eff = int(support[keep - 1])
    M = _next_pow2(oversample * max(n_eff, 1) * math.pi)
    vals = np.abs(_circle_values(support[:keep], coeffs[:keep], M, real))
    gmax = float(vals.max())
    lower = max(gmax - tail, 0.0)
    if refine_fn is not None:
        h = 2.0 * math.pi / M
        top = np.argpartition(vals, -3)[-3:]
        for t in top:
            th = 2.0 * math.pi * float(t) / M
            lower = max(lower, _golden_max(refine_fn, th - h, th + h))
    lower *= 1.0 - FLOAT_GUARD
    upper = (secant_upper(gmax, n_eff, M) + tail) * (1.0 + FLOAT_GUARD)
    return SupBracket(lower=lower, upper=upper, grid_size=M, degree=n_eff)


def sup_bracket(series: RandomizedSeries, r: float, oversample: float = 16.0,
                refine: bool = True, tail_rtol: float = 1e-12) -> SupBracket:
    """Certified bracket of sup|u| (real flavor) or sup|f| (analytic flavor)
    over the circle of radius r.

    The grid has M = next power of two above oversample * pi * degree
    points, so pi n / M <= 1/oversample and the secant bound keeps
    upper / lower <= 1 / cos(1/oversample) up to the tail and roundoff
    guards.  With refine on, golden-section sweeps around the top three grid
    angles sharpen the lower bound by direct (untruncated) evaluation.
    """
    _check_radius(series, r)
    if oversample < 4:
        fail("DOMAIN", f"oversample must be >= 4, got {oversample}")
    refine_fn = None
    if refine:
        refine_fn = lambda th: float(np.abs(evaluate_at(series, r, th)))
    return _bracket_modulus(series.scheme.support, _coeffs_at(series, r), oversample,
                            series.flavor == REAL_HARMONIC, refine_fn, tail_rtol)


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
    jf = j[pos].astype(float)
    c = series.signed_complex_coeffs()[pos] * jf        # f' = sum c_j z^(j-1)
    cd = c * np.power(float(r), jf - 1.0)

    def refine_fn(th):
        z = r * complex(math.cos(th), math.sin(th))
        return abs(np.sum(c * z ** (jf - 1.0)))

    return _bracket_modulus(j[pos] - 1, cd, oversample, False, refine_fn if refine else None)


def block_radii(block_ns):
    """The canonical radii r = 1 - 1/n_k along a block sequence."""
    return [1.0 - 1.0 / n for n in block_ns if n >= 2]
