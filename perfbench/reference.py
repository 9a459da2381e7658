"""Independent references for the benchmark's correctness checks, numpy only.

Nothing here imports growthlab.  Each reference recomputes a quantity from
its closed-form definition, so a check compares the program against a
second implementation, never against saved output.

Circle sups use the Bernstein-Szego secant bound: a real trigonometric
polynomial T of degree n satisfies T(t) >= ||T|| cos(n (t - t*)) near its
maximiser t*, so on M > 2n equispaced angles

    grid_max <= sup|T| <= grid_max / cos(pi n / M).

Rotating the phase extends the bound to the modulus of a complex
polynomial with frequencies 0..n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import ifft, irfft   # bound at import, so tracing never sees these calls
from numpy.polynomial import legendre

ROUNDOFF = 1e-11   # relative guard for FFT roundoff on grid values


@dataclass(frozen=True)
class Bracket:
    lower: float
    upper: float


def _grid_size(n: int, oversample: int) -> int:
    return 1 << max(4, math.ceil(math.log2(max(2, oversample * max(n, 1)))))


def _truncate(support: np.ndarray, coeffs: np.ndarray, rtol: float = 1e-14):
    """Shortest prefix whose discarded l1 tail is below rtol of the total."""
    mags = np.abs(coeffs)
    suffix = np.cumsum(mags[::-1])[::-1]
    total = float(suffix[0]) if len(suffix) else 0.0
    small = np.nonzero(suffix <= rtol * total)[0]
    keep = max(int(small[0]), 1) if small.size else len(support)
    tail = float(suffix[keep]) if keep < len(support) else 0.0
    return support[:keep], coeffs[:keep], tail, total


def circle_sup(support, coeffs, real: bool, oversample: int = 16) -> Bracket:
    """Certified bracket of sup_t |Re sum c_j e^{ijt}| (real) or |sum c_j e^{ijt}|.

    The real part is evaluated from its half spectrum with irfft: the
    constant term enters as is and every other term halved.
    """
    support = np.asarray(support, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=complex)
    if len(support) == 0:
        return Bracket(0.0, 0.0)
    sup_t, c_t, tail, l1 = _truncate(support, coeffs)
    n = int(sup_t.max())
    M = _grid_size(n, oversample)
    if real:
        half = np.zeros(M // 2 + 1, dtype=complex)
        w = np.where(sup_t == 0, 1.0, 0.5)
        np.add.at(half, sup_t, c_t * w)
        half[0] = half[0].real
        vals = np.abs(irfft(half, n=M) * M)
    else:
        full = np.zeros(M, dtype=complex)
        np.add.at(full, sup_t, c_t)
        vals = np.abs(ifft(full) * M)
    gmax = float(vals.max())
    guard = ROUNDOFF * l1
    lower = max(gmax - guard - tail, 0.0)
    upper = gmax / math.cos(math.pi * n / M) + guard + tail
    return Bracket(lower, upper)


def real_and_modulus(support, coeffs, oversample: int = 16):
    """(bracket of sup|u|, bracket of sup|f|) for u = Re f."""
    return (circle_sup(support, coeffs, True, oversample),
            circle_sup(support, coeffs, False, oversample))


# -- sign streams ----------------------------------------------------------------

def philox(seed: int, trial: int, lane: int = 0) -> np.random.Generator:
    """The documented per-(seed, trial, lane) stream of growthlab.randomness."""
    seq = np.random.SeedSequence([int(seed) & (2**64 - 1), int(trial), int(lane)])
    return np.random.Generator(np.random.Philox(seq))


def rademacher(seed: int, trial: int, count: int, lane: int = 0) -> np.ndarray:
    return philox(seed, trial, lane).integers(0, 2, size=count).astype(float) * 2.0 - 1.0


def steinhaus(seed: int, trial: int, count: int, lane: int = 0) -> np.ndarray:
    return np.exp(1j * philox(seed, trial, lane).uniform(0.0, 2.0 * math.pi, size=count))


# -- closed-form coefficient schemes ----------------------------------------------

TOWER = (2, 4, 16, 256, 65536)


def loglog_coeffs(k_max: int):
    """a_j = 1/sqrt(n_k) on the tower blocks n_{k-1} < j <= n_k = 2^(2^k)."""
    js, vals = [], []
    for k in range(1, k_max + 1):
        j = np.arange(TOWER[k - 1] + 1, TOWER[k] + 1)
        js.append(j)
        vals.append(np.full(len(j), 1.0 / math.sqrt(TOWER[k])))
    return np.concatenate(js), np.concatenate(vals)


def dyadic_saturating_coeffs(k_max: int):
    """sqrt(k) 2^k / sqrt(2^k max(1, k ln 2)) on 2^(k-1) < j <= 2^k, j > 2.

    The saturating scheme with nu = sqrt on the power:1, ratio-2 blocks
    n_k = 2^k.
    """
    js, vals = [], []
    for k in range(1, k_max + 1):
        nk = 2.0 ** k
        j = np.arange(2 ** (k - 1) + 1, 2 ** k + 1)
        j = j[j > 2]
        js.append(j)
        vals.append(np.full(len(j), math.sqrt(k) * nk / math.sqrt(nk * max(1.0, k * math.log(2.0)))))
    return np.concatenate(js), np.concatenate(vals)


def gaussian_scheme(seed: int, trial: int, degree: int, lane: int = 7):
    """The Gaussian random scheme of the Cesaro batch, from its stream."""
    rng = philox(seed, trial, lane)
    support = np.sort(rng.choice(degree + 1, size=degree + 1, replace=False))
    return support, rng.standard_normal(degree + 1), rng.standard_normal(degree + 1)


# -- sphere ------------------------------------------------------------------------

def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def sphere_element(m: int, mu: int, kind: str, points: np.ndarray) -> np.ndarray:
    """(1 - z^2)^(mu/2) P_m^(mu)(z) times cos, sin or 1 of mu phi, on |x| = 1.

    P_m^(mu) is the mu-th derivative of the Legendre polynomial, taken in
    the Legendre basis by numpy.polynomial.legendre; no Condon-Shortley phase.
    """
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    e = np.zeros(m + 1)
    e[m] = 1.0
    radial = legendre.legval(z, legendre.legder(e, mu)) if mu else legendre.legval(z, e)
    prof = np.maximum(0.0, 1.0 - z * z) ** (mu / 2.0) * radial
    if kind == "zonal":
        return prof
    phi = np.arctan2(y, x)
    return prof * (np.cos(mu * phi) if kind == "cos" else np.sin(mu * phi))


def element_kind(l: int):
    """(mu, kind) of the l-th element of a degree: zonal, then cos/sin pairs."""
    if l == 0:
        return 0, "zonal"
    return (l + 1) // 2, ("cos" if l % 2 == 1 else "sin")


def cap_fraction(values: np.ndarray, alpha: float) -> float:
    a = np.abs(values)
    return float(np.mean(a >= alpha * a.max()))
