"""Randomized series on the unit disk: evaluation, operators, certified sups.

A real harmonic series is

    u(r e^{i theta}) = sum_j r^j (a_j0 xi_j0 cos(j theta) + a_j1 xi_j1 sin(j theta)),

an analytic-flavor series is u(z) = sum_m a_m xi_m z^m with complex signs.
On a fixed circle both reduce to trigonometric polynomials in the
coefficients c_j = (a_j0 xi_j0 - i a_j1 xi_j1) r^j: u = Re sum c_j e^{ij theta}
for the real flavor, and the modulus |sum c_j e^{ij theta}| for the analytic
one.  One grid helper evaluates either on the M equispaced angles of a
bracket grid (M a power of two of at least 8 above 2n), one direct-summation
helper at any angles; both take one series or a stack of series on one
support.  The grid helper never evaluates the zero padding of a fine grid:
it splits the M angles into P = M / L interleaved rows, L the smallest
M / 2^a above 2n, and sums each row from twisted coefficients, each in its
own bin.  A dense support takes one L-point transform per row (the real part
from its half spectrum); a support of at most WAVE_TERMS coefficients takes
one matrix product per block of rows with a table of their L-point waves,
while that table fits in WAVE_BYTES.  That layout is a CirclePlan, which
brackets at one radius share through a PlanSlot.  For real coefficients,
rows P - p mirror rows p, so brackets evaluate rows 0..P/2 only, in blocks
of about BLOCK_BYTES of spectrum or a quarter of that of wave-table values.
evaluate_circle, on any M, is an independent reference with no plan.

Sup brackets bound sup|u| for the real flavor and sup|f| for the analytic
flavor.  A real trigonometric polynomial T of degree n satisfies
T(t) >= ||T|| cos(n (t - t*)) near a maximiser t* (Bernstein-Szego), and
rotating the phase carries this to |f|, so on M > 2n angles

    grid_max <= sup <= grid_max / cos(pi n / M).

M is the power of two above oversample * pi * n, for a finite oversample
>= 4, and never above MAX_GRID.  A support whose frequencies share a common
period g = gcd(support) gives S(t) = T(g t), T on the support j / g, with
the same sup and the same secant bound, so brackets run on T: its grid of M
angles, sized from n / g, stands for the g M angles that SupBracket.grid_size
reports.  Long series are truncated where the exact l1 tail at the radius
drops below TAIL_RTOL of the total; the tail bound widens both sides of the
bracket, keeping it sound.  Refinement sharpens the lower bound by a Newton
ascent from the three best grid angles at once, summing the bracket's own
untruncated coefficients and their derivatives at exact grid phases plus
an offset.

A bracket kernel takes a stack of coefficient rows on one support and
radius (sup_brackets; sup_bracket and gradient_sup_bracket are stacks of
one).  Each row keeps its own truncation, rows sharing a plan key are
evaluated together, and every transform call or wave product takes as many
(series, row) pairs as fit in BLOCK_BYTES; the refinement's top rows and
Newton columns are chunked alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import fail
from .randomness import RandomModel, SeedSpec, sample_vector
from .schemes import CoefficientScheme

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


def _point_values(support: np.ndarray, coeffs: np.ndarray, k, delta: np.ndarray, M: int,
                  real: bool) -> np.ndarray:
    """Re sum_j c_j e^{ij t} (real) or sum_j c_j e^{ij t} at the angles
    t = 2 pi k / M + delta, by direct summation.  Term j's phase is
    2 pi ((j k) mod M) / M + j delta: j k is exact in int64, so only j delta
    carries a rounding of order j eps |delta|.  With delta and k of shape
    (..., T) and coeffs (S,) or a stack (..., S, C), the result is (..., T) or
    (..., T, C).  The real part is cos @ Re c - sin @ Im c on contiguous copies
    (one BLAS path)."""
    phase = (np.multiply.outer(k, support) % M) * (2.0 * math.pi / M)
    phase = phase + np.multiply.outer(delta, support.astype(float))
    if not real:
        return np.exp(1j * phase) @ coeffs
    return (np.cos(phase) @ np.ascontiguousarray(coeffs.real)
            - np.sin(phase) @ np.ascontiguousarray(coeffs.imag))


def evaluate_at(series: RandomizedSeries, r: float, theta):
    """Direct summation at radius r and angle(s) theta.  The phases j theta are
    formed in float64, so each carries a rounding of about j eps theta."""
    _check_radius(r)
    vals = _point_values(series.scheme.support, _coeffs_at(series, r), 0,
                         np.atleast_1d(np.asarray(theta, dtype=float)), 1,
                         series.flavor == REAL_HARMONIC)
    return vals[0] if np.ndim(theta) == 0 else vals


@dataclass(frozen=True, eq=False)
class CirclePlan:
    """Everything of a circle evaluation but the coefficients (see circle_plan)."""

    key: tuple              # (number of coefficients, M, real flavor, half)
    real: bool
    L: int                  # P = M / L rows of L angles
    bins: object            # the coefficients' bins j: a slice when they form one run
    scale: np.ndarray       # L, times the half-spectrum weight for the real flavor
    twists: np.ndarray      # e^{2 pi i j p / M}, one row per evaluated row p
    waves: np.ndarray       # few terms: e^{2 pi i j q / L} as [cos; sin] or cos + i sin, else None
    step: int               # rows per block of a bracket


def _unit_phases(a: np.ndarray, b: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """e^{2 pi i a_i b_k / n} into the complex out, or its cos above its sin into the
    real out of twice the rows; each a_i b_k must be an exact float integer."""
    phase = np.outer(a.astype(float), b.astype(float))
    phase *= 2.0 * math.pi / n
    cos, sin = (out.real, out.imag) if np.iscomplexobj(out) else np.split(out, 2)
    np.cos(phase, out=cos)
    np.sin(phase, out=sin)
    return out


def circle_plan(support: np.ndarray, M: int, real: bool, half: bool = False) -> CirclePlan:
    """The layout of Re sum_j c_j e^{ijt} (real) or sum_j c_j e^{ijt} on the M angles
    t = 2 pi k / M as a (P, L) array whose entry [p, q] is the value at k = qP + p.

    M is a bracket grid: a power of two of at least 8 above 2n (n the largest j),
    as grid_size makes it; any other M is refused with DOMAIN.  L is the
    smallest M / 2^a with L > 2n and L >= 8, and P = M / L.  As e^{ijt} =
    e^{2 pi i j p / M} e^{2 pi i j q / L}, row p is a sum over the coefficients
    twisted by e^{2 pi i j p / M}, so the zero padding of a fine grid is never
    evaluated.  L > 2n gives every frequency its own bin j below L / 2, and
    j p < M / 2 is an exact integer phase.  How a row is summed depends on the
    number S of coefficients alone.  Up to WAVE_TERMS of them, while the (2S, L)
    wave table e^{2 pi i (j q mod L) / L} fits in WAVE_BYTES, a block of rows is
    one matrix product of the twisted coefficients with that table: an S-term
    direct sum per angle, whose roundoff of about S eps l1 <= S^1.5 eps sup
    stays far below FLOAT_GUARD (S^1.5 eps < 1e-13 at S = 16).  Otherwise row p
    is one L-point inverse transform of the twisted coefficients in their bins;
    the real part comes from the half spectrum, where bin 0 carries weight 1 and
    the others 1/2 (these weights and the scale L go on the coefficients).  Half
    evaluates rows 0..P/2, enough for real coefficients: S(-t) = conj S(t), and
    -k = (L-1-q)P + (P-p) makes row P - p row p reversed, with the same |values|.
    """
    n = int(support.max(initial=0))
    L = max(8, 1 << (2 * n).bit_length())     # the smallest power of two >= 8 above 2n
    if M & (M - 1) or M < L:
        fail("DOMAIN", f"a circle plan needs a power of two M >= 8 above 2n = {2 * n}, got {M}")
    P = M // L
    scale = np.where(support == 0, 1.0, 0.5) * L if real else L
    # j p < M / 2 is an exact integer, so each twist has one cos or sin roundoff for any P
    rows = np.arange(P // 2 + 1 if half else P)
    twists = _unit_phases(rows, support, M, np.empty((len(rows), len(support)), dtype=complex))
    waves, step = None, max(1, BLOCK_BYTES // (16 * (L // 2 + 1 if real else L)))
    if len(support) <= WAVE_TERMS and 16 * len(support) * L <= WAVE_BYTES:
        # entry [j, q] is base[j q mod L]: an exact index, so one cos or sin roundoff
        q = np.arange(L)
        base = _unit_phases(np.ones(1), q, L, np.empty((2, L)) if real
                            else np.empty((1, L), dtype=complex))
        waves = np.take(base, np.outer(support, q) % L, axis=1).reshape(-1, L)
        # blocks of a quarter of BLOCK_BYTES of values stay in cache for their reduction;
        # a larger table comes from memory in every product, so a product takes S rows
        step = (len(support) if waves.nbytes > BLOCK_BYTES
                else max(1, BLOCK_BYTES // (4 * waves.itemsize * L)))
    # SZ blocks, Cesaro means and towers land on one run of bins: a slice write
    j0 = int(support[0]) if len(support) else 0
    run = np.array_equal(support, np.arange(j0, j0 + len(support)))
    bins = slice(j0, j0 + len(support)) if run else support
    return CirclePlan((len(support), M, real, half), real, L, bins, scale, twists, waves, step)


def _circle_values(plan: CirclePlan, coeffs: np.ndarray, blocks):
    """Yield, per row selection in blocks, the values of those rows: entry [i, q] is
    the value at k = qP + (row i).  coeffs is one series (S,) or a stack (B, S);
    a selection (slice or index array of evaluated rows) applies to every series
    of the stack, a (B, R) index array gives each series rows of its own, and a
    stack's values carry its series first, (B, R, L)."""
    if plan.waves is not None:
        for rows in blocks:
            z = plan.twists[rows] * coeffs[..., None, :]
            if plan.real:   # Re(z e^{i phi}) = Re z cos phi - Im z sin phi
                z = np.concatenate([z.real, -z.imag], axis=-1)
            yield z @ plan.waves    # a product per series: a stack's rows sum as a lone series
        return
    c = coeffs * plan.scale
    width = plan.L // 2 + 1 if plan.real else plan.L
    for rows in blocks:
        values = plan.twists[rows] * c[..., None, :]
        block = np.zeros(values.shape[:-1] + (width,), dtype=complex)
        block[..., plan.bins] = values
        yield np.fft.irfft(block, n=plan.L) if plan.real else np.fft.ifft(block)


def evaluate_circle(series: RandomizedSeries, r: float, M: int) -> np.ndarray:
    """Values at the M angles theta_t = 2 pi t / M, in t order: real for the real
    flavor, complex for the analytic one.  Any M >= 1: coefficient j lands in bin
    j mod M, which is exact on these angles even when M <= 2n.  One M-point
    transform of the whole spectrum and no plan, so it is a reference kept
    apart from the bracket kernel."""
    _check_radius(r)
    if M < 1:
        fail("DOMAIN", f"M must be >= 1, got {M}")
    spec = np.zeros(M, dtype=complex)
    np.add.at(spec, series.scheme.support % M, _coeffs_at(series, r))
    values = np.fft.ifft(spec, norm="forward")
    return values.real if series.flavor == REAL_HARMONIC else values


@dataclass(frozen=True)
class SupBracket:
    """Certified lower <= sup <= upper on one circle."""

    lower: float
    upper: float
    grid_size: int
    degree: int


FLOAT_GUARD = 1e-12  # absorbs FFT/summation roundoff of a few ulps
TAIL_RTOL = 1e-12    # relative l1 mass a bracket may drop from its coefficient tail
MAX_GRID = 2**24     # circle grid limit, 4x the largest in use (2^22 at degree 65536)
BLOCK_BYTES = 2**21  # spectrum a bracket hands one transform call
WAVE_BYTES = 2**23   # the wave table's cap: an 8-term Riesz comb's at offset 0 is 8 MiB
NEWTON_STEPS = 8     # direct-summation calls of one refinement
WAVE_TERMS = 16      # most coefficients summed by wave table: the product beat the FFT up to here
TINY = 2.2250738585072014e-308   # the smallest normal float


def secant_upper(gmax: float, n: int, M: int) -> float:
    """Bernstein-Szego: a degree-n trigonometric polynomial (or the modulus of
    one with frequencies 0..n) whose max over M > 2n equispaced angles is gmax
    has sup <= gmax / cos(pi n / M)."""
    return gmax / math.cos(math.pi * n / M)


def grid_size(n: int, oversample: float) -> int:
    """M of a degree-n bracket: the power of two above oversample * pi * n, refused
    with BUDGET_EXCEEDED above MAX_GRID."""
    x = min(oversample * max(n, 1) * math.pi, 2.0 * MAX_GRID)
    M = 1 << max(3, math.ceil(math.log2(max(2.0, x))))
    if M > MAX_GRID:
        fail("BUDGET_EXCEEDED", f"oversample {oversample:g} at degree {n} needs a "
             f"circle grid above MAX_GRID = {MAX_GRID} points")
    return M


def _newton_max(support: np.ndarray, coeffs: np.ndarray, real: bool, k: np.ndarray,
                M: int) -> np.ndarray:
    """Per row of coeffs (B, S), the largest |value| met by a safeguarded Newton
    ascent of |Re S| (real) or |S|^2 from the grid angles 2 pi k / M of its row
    of k (B, T) at once, each iterate kept within one grid step of its seed.

    An iterate is its seed's index k and an offset delta, which _point_values
    turns into exact grid phases plus j delta.  One direct summation of the
    columns [c, i j c, -j^2 c] gives S, S' and S'' at the iterates of every row
    still moving; a row stops when all its steps are roundoff.  The result is
    sound however far Newton got."""
    jf = support.astype(float)
    cols = np.stack([coeffs, 1j * jf * coeffs, -jf * jf * coeffs], axis=-1)
    h = 2.0 * math.pi / M
    tol = 4.0 * np.spacing(k * h + 1.0)     # a step below this is roundoff
    best, rows, delta = np.zeros(len(k)), np.arange(len(k)), np.zeros(k.shape)
    for _ in range(NEWTON_STEPS):
        v = _point_values(support, cols, k, delta, M, real)
        s, d1, d2 = v[..., 0], v[..., 1], v[..., 2]
        best[rows] = np.maximum(best[rows], np.abs(s).max(1))
        if real:   # ascend sign(u) u
            g1, g2 = np.sign(s) * d1, np.sign(s) * d2
        else:      # ascend |S|^2
            g1, g2 = 2.0 * (s.conj() * d1).real, 2.0 * (abs(d1) ** 2 + (s.conj() * d2).real)
        up = g2 < 0.0    # a seed with curvature of the wrong sign stays put
        nxt = np.clip(delta - np.where(up, g1, 0.0) / np.where(up, g2, -1.0), -h, h)
        moving = (np.abs(nxt - delta) > tol).any(1)
        if not moving.all():     # rows whose every step is roundoff stop
            if not moving.any():
                break
            rows, cols, k = rows[moving], cols[moving], k[moving]
            tol, nxt = tol[moving], nxt[moving]
        delta = nxt
    return best


def _blocks(n: int, per: int):
    return [slice(i, i + per) for i in range(0, n, per)]


def sup_brackets(coeffs: np.ndarray, slot: "PlanSlot", oversample: float, refine: bool,
                 flavor: str) -> list:
    """sup_bracket of each series in a stack on the slot's support, at the slot's
    radius: row b of coeffs (B, S) holds one series' signed_complex_coeffs, and
    its bracket is of sup_t |Re sum_j c_j r^j e^{ijt}| (real flavor) or of
    sup_t |sum_j c_j r^j e^{ijt}| (analytic).

    Each row truncates its coefficient tail once the exact l1 mass drops below
    TAIL_RTOL of its total; the discarded mass widens both bracket sides, as
    does a relative FLOAT_GUARD covering grid-value roundoff.  Rows run on the
    slot's reduced support j / g, whose grid of M angles stands for g M on the
    circle, and are grouped by plan key (kept prefix, M, real, half); the
    slot's plan is reused when a group's key fits, else replaced.  A group's
    transform calls and wave products each take as many (series, row) pairs as
    fit in BLOCK_BYTES.  Refinement runs on the untruncated coefficients.
    """
    check_oversample(oversample)
    real = flavor == REAL_HARMONIC
    coeffs = coeffs * slot.radial
    out = [SupBracket(0.0, 0.0, 1, 0)] * len(coeffs)     # what a zero row gets
    mags = np.abs(coeffs)
    l1 = mags.sum(1)
    # minimal prefix keeping all but TAIL_RTOL of the l1 mass
    suffix = np.cumsum(mags[:, ::-1], axis=1)[:, ::-1]
    keeps = np.maximum((suffix > TAIL_RTOL * l1[:, None]).sum(1), 1)
    groups = {}
    for b in np.flatnonzero(l1 != 0.0):
        keep = int(keeps[b])
        groups.setdefault((keep, not coeffs[b, :keep].imag.any()), []).append(b)
    for (keep, half), rows in groups.items():
        n_eff = int(slot.support[keep - 1])
        n_red = n_eff // slot.g
        M = slot.grid(n_eff, oversample)
        if slot.plan is None or slot.plan.key != (keep, M, real, half):
            slot.plan = circle_plan(slot.reduced[:keep], M, real, half)
        plan = slot.plan
        kept = coeffs[rows, :keep]
        R, step = len(plan.twists), plan.step
        row_max = np.empty((len(rows), R))
        for series in _blocks(len(rows), max(1, step // R)):
            row_blocks = _blocks(R, step)
            for sel, v in zip(row_blocks, _circle_values(plan, kept[series], row_blocks)):
                row_max[series, sel] = (np.maximum(v.max(-1), -v.min(-1)) if real
                                        else np.abs(v).max(-1))
        gmax = row_max.max(1)
        if refine:
            # the three largest grid values lie in the three rows of largest max
            top = np.argsort(row_max, axis=1)[:, -3:]
            seeds = np.empty((len(rows), 3), dtype=np.int64)
            for series in _blocks(len(rows), max(1, step // top.shape[1])):
                vals = np.abs(next(_circle_values(plan, kept[series], [top[series]])))
                best = np.argpartition(vals.reshape(len(vals), -1), -3, axis=1)[:, -3:]
                i, q = np.divmod(best, plan.L)
                seeds[series] = q * (M // plan.L) + np.take_along_axis(top[series], i, 1)
            full = coeffs[rows]
            per = max(1, BLOCK_BYTES // (16 * 3 * full.shape[1]))
            climbed = np.concatenate([_newton_max(slot.reduced, full[s], real, seeds[s], M)
                                      for s in _blocks(len(rows), per)])
        for i, b in enumerate(rows):
            top_value = float(gmax[i])
            tail = float(suffix[b, keep]) if keep < coeffs.shape[1] else 0.0
            lower = max(top_value - tail, 0.0)
            if refine:
                lower = max(lower, float(climbed[i]))
            upper = (secant_upper(top_value, n_red, M) + tail) * (1.0 + FLOAT_GUARD)
            out[b] = SupBracket(lower=lower * (1.0 - FLOAT_GUARD), upper=upper,
                                grid_size=M * slot.g, degree=n_eff)
    return out


class PlanSlot:
    """A support's common period and r^j at radius r, with the plan of the last
    bracket sharing them; stacks of series on the support at r share one slot.

    g is the gcd of the support (1 for {0} or no support), so a series on it is
    S(t) = T(g t) with T on the reduced support j / g: T has the same sup, and
    the secant bound of T on M angles is that of S on g M.  r^j is computed
    only where it is a normal float and is 0 beyond (from j = 10,977 at
    r = 0.9375), where pow would take its slow subnormal path; a term dropped
    so is below 2.3e-308 times its coefficient."""

    def __init__(self, support: np.ndarray, r: float):
        _check_radius(r)
        self.support = support
        j = support.astype(float)
        # r^j >= TINY for j <= log(TINY) / log(r); the margin covers the logs' rounding
        reach = math.log(TINY) / math.log(r) * (1.0 + 1e-9) + 2.0 if 0.0 < r < 1.0 else math.inf
        self.radial = np.power(float(r), j, out=np.zeros(len(j)), where=j <= reach)
        self.radial[self.radial < TINY] = 0.0
        self.g = int(np.gcd.reduce(support)) or 1
        self.reduced = support // self.g
        self.plan = None

    def grid(self, n: int, oversample: float) -> int:
        """M of a bracket on the support whose top kept frequency is n: the grid of
        the reduced degree n // g, refused with BUDGET_EXCEEDED above MAX_GRID."""
        return grid_size(n // self.g, oversample)


def sup_bracket(series: RandomizedSeries, r: float, oversample: float = 16.0,
                refine: bool = True) -> SupBracket:
    """Certified bracket of sup|u| (real flavor) or sup|f| (analytic flavor)
    over the circle of radius r.

    The grid has M = next power of two above oversample * pi * degree / g
    points on the reduced support (a finite oversample >= 4, M <= MAX_GRID),
    so pi n / (g M) <= 1/oversample and the secant bound keeps upper / lower <=
    1 / cos(1/oversample) up to the TAIL_RTOL and roundoff guards; grid_size
    reports g M.  With refine on, a safeguarded Newton ascent from the top
    three grid angles, each kept within one grid step of its seed, sharpens
    the lower bound: at most NEWTON_STEPS direct summations of the same
    coefficients c_j r^j, untruncated, for all three.
    """
    return sup_brackets(series.signed_complex_coeffs()[None],
                        PlanSlot(series.scheme.support, r), oversample, refine,
                        series.flavor)[0]


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
    """Certified bracket of sup over the circle of |grad u| = |f'|: a stack of one
    analytic series f' = sum j c_j z^(j-1) on the support j - 1."""
    if series.flavor != REAL_HARMONIC:
        fail("FLAVOR_MISMATCH", "gradient brackets apply to real harmonic series")
    j = series.scheme.support
    pos = j >= 1
    cd = series.signed_complex_coeffs()[pos] * j[pos].astype(float)
    return sup_brackets(cd[None], PlanSlot(j[pos] - 1, r), oversample, refine, ANALYTIC)[0]
