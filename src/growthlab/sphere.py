"""Spherical-harmonic series on the unit ball of R^3.

Basis: for each degree m the 2m + 1 real solid harmonics (one zonal plus
cos/sin pairs for azimuthal orders mu = 1..m), Re and Im of s^mu F_m^mu with
s = x + iy.  The real polynomial F_m^mu = r^(m-mu) P_m^(mu)(z/r) / (2mu-1)!!
follows from F^(m+1) = 0, F^m = 1 down in mu by Legendre's equation
differentiated mu times and made homogeneous of degree m (rho^2 = x^2 + y^2):

    F^mu = [2(mu+1)(2mu+1) z F^(mu+1) - (2mu+1)(2mu+3) rho^2 F^(mu+2)]
           / ((m-mu)(m+mu+1)).

_solid_harmonics runs this recurrence and is the only code that computes
F^mu: evaluation and normalization both take it from there.

A degree-m combination with weights w_mu = c_cos - i c_sin is the real part
of the Horner sum acc <- acc s + w_mu F^mu over mu = m..0: O(m) array passes
per degree, all polynomial in x, so the origin is exact.  Evaluation runs in
blocks of POINT_BLOCK points, so one pass's buffers stay in cache.  Every
step is elementwise and no complex product is taken in place (numpy rounds
an in-place complex product of one point differently), so a value does not
depend on the block or on the other points: blocks change no value.

Normalization: on the unit sphere rho = sin(theta), so |Y| factors into the
profile p(theta) = sin^mu(theta) F^mu(cos theta, sin^2 theta) times
|cos(mu phi)| or |sin(mu phi)|, and the sphere sup equals the max of the
degree-m trigonometric polynomial p over a great circle.  On M > 2m
equispaced angles the Bernstein-Szego secant bound (the disk module's
secant_upper) gives grid_max <= sup <= grid_max / cos(pi m / M), so one
profile grid certifies both sides without refinement.  Each element is
rescaled by that upper bound, which guarantees sup <= 1, and its normalized
sup is certified above cos(1/64) > 0.9998.

General combinations of degree n are bracketed on the equiangular grid of
rings theta_j = 2 pi j / M (j = 0..M/2) and longitudes phi_k = 2 pi k / M,
M the power of two at or above 16 n.  P on the great circle through phi_k
and phi_k + pi, and P on any circle of latitude, is a trigonometric
polynomial of degree <= n that the grid (or, on a latitude, the meridians
phi_k) samples at M equispaced angles, so two secant bounds give

    grid_max <= sup <= grid_max / cos^2(pi n / M) <= 1.0396 grid_max.

Cap statistics count Fibonacci covering points with |P| >= alpha covering
max; the lattice cells are equal-area, so uniform weights are the cell areas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .disk import FLOAT_GUARD, SupBracket, grid_size, secant_upper
from .errors import fail
from .randomness import RandomModel, SeedSpec, sample_vector

ZONAL = "zonal"
COS = "cos"
SIN = "sin"

MAX_BASIS_DEGREE = 128
PROFILE_OVERSAMPLE = 64.0     # profile grid M >= 64 pi N: norm_lower >= cos(1/64)
SPHERE_OVERSAMPLE = 16.0 / math.pi   # bracket grid M >= 16 n: upper / lower <= 1.0396
POINT_BLOCK = 8192            # points per evaluation pass: ~0.8 MB of buffers fits a 2 MB L2


def element_index(m: int, l: int):
    """Map (m, l) with 0 <= l <= 2m to (mu, kind)."""
    if l == 0:
        return 0, ZONAL
    mu = (l + 1) // 2
    kind = COS if l % 2 == 1 else SIN
    if mu > m:
        fail("DOMAIN", f"l = {l} out of range for degree {m} (need l <= 2m)")
    return mu, kind


def _solid_harmonics(m: int, z: np.ndarray, rho2: np.ndarray):
    """Yield (mu, F_m^mu) at the points (z, rho2) for mu = m, m-1, ..., 0.

    The recurrence runs in place on three buffers, so the yielded array is
    reused by the next step: use it before advancing the generator.
    """
    f, f_up, tmp = np.ones_like(z), np.zeros_like(z), np.empty_like(z)   # F^m, F^(m+1)
    yield m, f
    for mu in range(m - 1, -1, -1):      # in place: half the time of the plain expression
        d = (m - mu) * (m + mu + 1)
        np.multiply(z, f, out=tmp)
        tmp *= 2 * (mu + 1) * (2 * mu + 1) / d
        f_up *= rho2
        f_up *= (2 * mu + 1) * (2 * mu + 3) / d
        tmp -= f_up
        f, f_up, tmp = tmp, f, f_up
        yield mu, f


def _rings(M: int, N: int):
    """(cos, sin^2, sin^mu for mu = 0..N as rows) at theta_j = 2 pi j / M, j = 0..M/2."""
    theta = np.linspace(0.0, math.pi, M // 2 + 1)
    z, st = np.cos(theta), np.sin(theta)
    return z, st * st, st ** np.arange(N + 1)[:, None]


@dataclass(frozen=True)
class SphericalBasis:
    """Sup-normalized real solid harmonics up to max_degree."""

    max_degree: int
    scales: dict                 # (m, mu) -> 1/certified upper of the raw profile
    norm_lower: dict             # (m, mu) -> certified lower of the normalized sup
    profile_grid: int

    def scale(self, m: int, l: int) -> float:
        mu, _ = element_index(m, l)
        return self.scales[(m, mu)]


def build_basis(N: int) -> SphericalBasis:
    """Normalize all elements of degree <= N via great-circle profiles.

    The profile sin^mu(theta) F_m^mu(cos theta, sin^2 theta) of element
    (m, mu) is a degree-m trigonometric polynomial, so on M > 2m angles the
    secant bound sup <= grid_max / cos(pi m / M) certifies the scale, and the
    grid max itself is the lower bound: with M >= PROFILE_OVERSAMPLE pi N
    every norm_lower is at least cos(1 / PROFILE_OVERSAMPLE) up to roundoff
    guards.
    """
    if N < 0:
        fail("DOMAIN", f"N must be >= 0, got {N}")
    if N > MAX_BASIS_DEGREE:
        fail("DEGREE_BUDGET", f"basis degree capped at {MAX_BASIS_DEGREE}, got {N}")
    M = grid_size(N, PROFILE_OVERSAMPLE)
    # |profiles| are even around theta = 0 and pi, so half the grid suffices
    z, rho2, sin_pow = _rings(M, N)
    profile = np.empty_like(z)
    scales, norm_lower = {(0, 0): 1.0}, {(0, 0): 1.0}   # the constant profile 1, exact
    for m in range(1, N + 1):
        for mu, f in _solid_harmonics(m, z, rho2):
            np.multiply(sin_pow[mu], f, out=profile)
            gmax = float(np.abs(profile, out=profile).max())
            # the guards absorb grid roundoff so sup <= 1 stays certified
            upper = secant_upper(gmax, m, M) * (1.0 + FLOAT_GUARD)
            scales[(m, mu)] = 1.0 / upper
            norm_lower[(m, mu)] = gmax / upper * (1.0 - FLOAT_GUARD)
    return SphericalBasis(max_degree=N, scales=scales, norm_lower=norm_lower,
                          profile_grid=M)


@dataclass(frozen=True, eq=False)
class SphereSeries:
    """Finite combination sum a_{ml} xi_{ml} of normalized basis elements."""

    basis: SphericalBasis
    entries: tuple               # ((m, l, coefficient), ...) coefficient = a * xi

    @property
    def degree(self) -> int:
        return max((m for m, _, _ in self.entries), default=0)

    def _weights(self) -> dict:
        """m -> w_mu = scale (c_cos - i c_sin) for mu = 0..m, per degree in the entries."""
        weights = {}
        for m, l, coeff in self.entries:
            mu, kind = element_index(m, l)
            w = weights.setdefault(m, np.zeros(m + 1, dtype=complex))
            c = coeff * self.basis.scales[(m, mu)]
            w[mu] += -1j * c if kind == SIN else c
        return weights

    def evaluate(self, pts) -> np.ndarray:
        """Values at Cartesian points with |x| <= 1, vectorized over points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        # Horner starts at the top nonzero weight; all-zero degrees drop out
        degrees = [(m, w, np.flatnonzero(w)[-1]) for m, w in self._weights().items() if w.any()]
        out = np.zeros(len(pts))
        for lo in range(0, len(pts), POINT_BLOCK):   # elementwise, so blocks change no bit
            blk, res = pts[lo:lo + POINT_BLOCK], out[lo:lo + POINT_BLOCK]
            x, y, z = blk[:, 0], blk[:, 1], np.ascontiguousarray(blk[:, 2])
            s, rho2 = x + 1j * y, x * x + y * y
            term = np.empty_like(s)
            for m, w, top in degrees:
                acc = np.zeros_like(s)
                for mu, f in _solid_harmonics(m, z, rho2):
                    if mu <= top:    # acc <- acc s + w_mu f; acc s never in place
                        np.multiply(acc, s, out=term)
                        np.multiply(f, w[mu], out=acc)
                        acc += term
                res += acc.real
        return out


# -- coverings ----------------------------------------------------------------

@dataclass(frozen=True)
class Covering:
    """Fibonacci-lattice sample points in equal-area cells; the radius is an estimate."""

    points: np.ndarray          # (K, 3)
    radius: float               # 2.5/sqrt(K); sampled distances reach about 2.72/sqrt(K)

    @property
    def size(self) -> int:
        return len(self.points)


def fibonacci_covering(K: int) -> Covering:
    if K < 2:
        fail("DOMAIN", f"covering needs at least 2 points, got {K}")
    i = np.arange(K, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / K
    phi = 2.0 * math.pi * i / ((1.0 + math.sqrt(5.0)) / 2.0)
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
    return Covering(points=pts, radius=2.5 / math.sqrt(K))


MIN_COVERING_POINTS = 4096


def default_covering(degree: int) -> Covering:
    """K = max(MIN_COVERING_POINTS, 64 n^2) points, so n * radius <= 0.3125."""
    K = max(MIN_COVERING_POINTS, int(math.ceil(64.0 * max(degree, 1) ** 2)))
    return fibonacci_covering(K)


def sup_bracket_sphere(series: SphereSeries) -> SupBracket:
    """Certified bracket of sup |P| over the unit sphere on the equiangular grid
    of M >= 16 n rings and longitudes (module docstring); grid_size reports M.

    On ring theta_j, P = Re sum_mu A_mu e^{i mu phi} with A_mu = sin^mu(theta_j)
    sum_m w_mu F_m^mu, so one batched real transform along phi gives its values.
    """
    n = series.degree
    M = grid_size(n, SPHERE_OVERSAMPLE)
    z, rho2, sin_pow = _rings(M, n)
    rows = np.zeros((len(z), M // 2 + 1), dtype=complex)    # ring j: bin mu holds A_mu
    spec = rows[:, :n + 1].T
    for m, w in series._weights().items():
        for mu, f in _solid_harmonics(m, z, rho2):
            if w[mu]:
                spec[mu] += w[mu] * f
    spec *= sin_pow * np.where(np.arange(n + 1) == 0, 1.0, 0.5)[:, None]   # irfft's Re: mu >= 1 halved
    values = np.fft.irfft(rows, n=M, norm="forward")
    gmax = max(float(values.max()), -float(values.min()))
    upper = secant_upper(secant_upper(gmax, n, M), n, M)
    return SupBracket(gmax * (1.0 - FLOAT_GUARD), upper * (1.0 + FLOAT_GUARD), M, n)


@dataclass(frozen=True)
class CapReport:
    degree: int
    alpha: float
    fraction: float
    grid_K: int
    c_implied: float     # fraction * degree^2, the constant of the c/n^2 estimate


def cap_fraction(series: SphereSeries, alpha: float,
                 covering: Optional[Covering] = None) -> CapReport:
    """Surface-measure fraction of {|P| >= alpha * grid max}.

    Fibonacci cells are equal-area, so the fraction is a plain point count
    over the covering.
    """
    if not (0.0 < alpha < 1.0):
        fail("DOMAIN", f"alpha must lie in (0, 1), got {alpha}")
    covering = covering or default_covering(series.degree)
    vals = np.abs(series.evaluate(covering.points))
    gmax = float(vals.max())
    frac = 1.0 if gmax == 0.0 else float(np.mean(vals >= alpha * gmax))
    return CapReport(degree=series.degree, alpha=float(alpha), fraction=frac,
                     grid_K=covering.size, c_implied=frac * series.degree ** 2)


def random_degree_combination(basis: SphericalBasis, m: int, model: RandomModel,
                              seed_spec: SeedSpec, trial: int, lane: int = 0) -> SphereSeries:
    """Random signs over the 2m + 1 normalized elements of exact degree m."""
    if m > basis.max_degree:
        fail("DEGREE_BUDGET", f"basis holds degrees <= {basis.max_degree}, got {m}")
    xi = sample_vector(model, seed_spec, trial, 2 * m + 1, lane=lane)
    entries = tuple((m, l, float(xi[l])) for l in range(2 * m + 1))
    return SphereSeries(basis=basis, entries=entries)


def laplacian_stencil(series: SphereSeries, x) -> float:
    """Six-point second-difference Laplacian at an interior point.

    The step h = 2.5e-4 / max(degree, 1) balances truncation against rounding
    for normalized elements at |x| <= 0.7.
    """
    x = np.asarray(x, dtype=float)
    h = 2.5e-4 / max(series.degree, 1)
    pts = [x]
    for i in range(3):
        for sgn in (+1.0, -1.0):
            p = x.copy()
            p[i] += sgn * h
            pts.append(p)
    vals = series.evaluate(np.array(pts))
    return float((vals[1:].sum() - 6.0 * vals[0]) / (h * h))
