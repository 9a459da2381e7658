import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from growthlab import (ANALYTIC, CESARO, PARTIAL, REAL_HARMONIC, GrowthLabError, SeedSpec,
                       cesaro_domination_check, evaluate_at, evaluate_circle, gradient_at,
                       gradient_sup_bracket, make_model, operator_norm_profile, randomize,
                       riesz_probe, rudin_shapiro_signs, sup_bracket, unit_series)
from growthlab import disk
from growthlab.disk import RandomizedSeries
from growthlab.mclab import random_scheme
from growthlab.schemes import hadamard_lacunary_scheme, scheme_from_arrays
from growthlab.weights import block_sequence, make_weight

SEED = SeedSpec(987)


def mono(j, cos=1.0, sin=0.0):
    return scheme_from_arrays([j], [cos], [sin], j, {"name": "mono", "j": j})


def slot_bracket(ser, slot, oversample=16.0, refine=True):
    """sup_bracket of one series through a slot the caller keeps, to read its plan."""
    return disk.sup_brackets(ser.signed_complex_coeffs()[None], slot, oversample, refine,
                             ser.flavor)[0]


# -- randomize -------------------------------------------------------------------

def test_randomize_deterministic():
    sch = random_scheme(SEED, 0, 50)
    a = randomize(sch, make_model("rademacher"), SEED, 3)
    b = randomize(sch, make_model("rademacher"), SEED, 3)
    assert np.array_equal(a.signs, b.signs)


def test_single_constant_entry():
    ser = randomize(mono(0), make_model("rademacher"), SEED, 0)
    xi = ser.signs[0, 0]
    assert evaluate_at(ser, 0.3, 1.234) == pytest.approx(xi)


def test_flavor_mismatch():
    sch = mono(1)
    with pytest.raises(GrowthLabError) as ei:
        randomize(sch, make_model("steinhaus"), SEED, 0)
    assert ei.value.code == "FLAVOR_MISMATCH"
    # real model on analytic flavor is allowed
    ser = randomize(sch, make_model("rademacher"), SEED, 0, flavor=ANALYTIC)
    assert ser.signs.dtype == complex


# -- evaluation -------------------------------------------------------------------

def test_evaluate_trivials():
    assert evaluate_at(unit_series(mono(1)), 0.5, 0.0) == pytest.approx(0.5)
    assert evaluate_at(unit_series(mono(1, cos=0.0, sin=1.0)), 1.0, math.pi / 2) == pytest.approx(1.0)


def test_circle_constant_and_single_point():
    ser = unit_series(mono(0, cos=3.25))
    vals = evaluate_circle(ser, 0.7, 8)
    assert np.allclose(vals, 3.25)
    one = evaluate_circle(ser, 0.7, 1)
    assert one.shape == (1,)
    assert one[0] == pytest.approx(evaluate_at(ser, 0.7, 0.0))


def test_radius_out_of_range():
    ser = unit_series(mono(2))
    with pytest.raises(GrowthLabError) as ei:
        evaluate_at(ser, 1.5, 0.0)
    assert ei.value.code == "RADIUS_OUT_OF_RANGE"
    with pytest.raises(GrowthLabError) as ei:
        sup_bracket(ser, float("nan"))
    assert ei.value.code == "RADIUS_OUT_OF_RANGE"


@given(degree=st.integers(2, 1000), r=st.floats(0.1, 1.0), trial=st.integers(0, 50))
@settings(max_examples=20)
def test_fft_matches_direct(degree, r, trial):
    sch = random_scheme(SEED, trial, degree)
    ser = randomize(sch, make_model("rademacher"), SEED, trial)
    M = 512
    circ = evaluate_circle(ser, r, M)
    ts = np.arange(0, M, 61)
    direct = evaluate_at(ser, r, 2 * np.pi * ts / M)
    scale = max(np.max(np.abs(circ)), 1e-300)
    assert np.max(np.abs(circ[ts] - direct)) / scale < 1e-10


def test_fft_aliasing_rule_documented():
    # coefficient j lands in bin j mod M; degree above M still evaluates exactly
    two = ([3, 700], [1.0, 2.0], [0.0, 0.5])
    cases = [(two, 64),
             (two, 63),                      # odd M: no Nyquist bin, 700 mod 63 = 7
             (([0, 3, 32, 96, 700], [1.0, 2.0, -0.7, 0.4, 2.0], [0.3, 0.0, 1.1, -0.2, 0.5]),
              64)]                           # 32 and 96 land on the Nyquist bin
    for (support, cos, sin), M in cases:
        sch = scheme_from_arrays(support, cos, sin, 700, {"name": "t"})
        th = 2 * np.pi * np.arange(M) / M
        for flavor in (REAL_HARMONIC, ANALYTIC):
            ser = unit_series(sch, flavor)
            circ = evaluate_circle(ser, 0.999, M)
            assert np.allclose(circ, evaluate_at(ser, 0.999, th), atol=1e-12), (support, M, flavor)


@pytest.mark.parametrize("degree, M, rows", [
    (50, 4096, 32),      # L = 128 > 2n: 32 twisted rows
    (10, 2**18, 8192),   # 8192 rows: twist roundoff must not grow with the row index
    (50, 1001, 1),       # odd M: no plan, evaluate_circle only
    (50, 1, 1),          # every coefficient aliases onto the single angle
    (50, 100, 1),        # M <= 2n: aliased and folded
    (50, 192, 1),        # 2n < M <= 4n, not a power of two
])
def test_circle_grid_matches_direct_summation(degree, M, rows):
    rng = np.random.default_rng(degree + M)
    j = np.arange(degree + 1)
    c = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    th = 2 * np.pi * np.arange(M) / M
    real_series = RandomizedSeries(scheme_from_arrays(j, c.real, -c.imag, degree, {"name": "t"}),
                                   np.ones((degree + 1, 2)))
    ones = scheme_from_arrays(j, np.ones(degree + 1), np.zeros(degree + 1), degree, {"name": "1"})
    for series in (real_series, RandomizedSeries(ones, c, ANALYTIC)):
        real = series.flavor == REAL_HARMONIC
        assert np.allclose(series.signed_complex_coeffs(), c)
        if M >= 8 and M & (M - 1) == 0 and M > 2 * degree:    # a bracket grid has a plan
            assert next(disk._circle_values(disk.circle_plan(j, M, real), c,
                                            [slice(None)])).shape == (rows, M // rows)
        circ = evaluate_circle(series, 1.0, M)
        direct = disk._point_values(j, c, 0, th, 1, real)
        assert np.max(np.abs(circ - direct)) <= 1e-13 * np.abs(c).sum(), (M, real)


def test_circle_plan_takes_bracket_grids_only():
    # a power of two of at least 8 above 2n, as grid_size makes it; evaluate_circle takes any M
    j = np.arange(51)
    for M in (63, 192, 100, 64, 4):
        with pytest.raises(GrowthLabError) as ei:
            disk.circle_plan(j, M, True)
        assert ei.value.code == "DOMAIN"
    assert disk.circle_plan(j, 128, True).L == 128
    assert disk.circle_plan(np.array([0]), 8, False).L == 8


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_plan_rows_match_evaluate_circle(data):
    # every bracket layout, from one row (M <= 4n) to thousands: runs of bins and scattered
    # ones, wave products and transforms, half and full rows, against the plan-free reference
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(0, 600), label="n")
    S = data.draw(st.integers(1, min(n + 1, 40)), label="S")
    if data.draw(st.booleans(), label="run"):
        support = np.arange(n - S + 1, n + 1)
    else:
        support = np.append(np.sort(rng.choice(n, size=S - 1, replace=False)), n)
        if S > 1 and data.draw(st.booleans(), label="from 0"):
            support[0] = 0     # bin 0 carries its own half-spectrum weight
    lo = max(3, (2 * n).bit_length())
    M = 2 ** data.draw(st.integers(lo, min(lo + 12, 18)), label="log2 M")
    real, half = data.draw(st.sampled_from([(True, True), (True, False), (False, False)]))
    c = rng.normal(size=(3, S)) + (0.0 if half else 1j * rng.normal(size=(3, S)))
    plan = disk.circle_plan(support, M, real, half)
    R, P = len(plan.twists), M // plan.L
    per = data.draw(st.integers(1, R), label="rows per block")
    rows = _rows_stacked(plan, c, [slice(i, i + per) for i in range(0, R, per)])
    for b in range(3):
        if real:
            series = RandomizedSeries(scheme_from_arrays(support, c[b].real, -c[b].imag, n,
                                                         {"name": "t"}), np.ones((S, 2)))
        else:
            series = RandomizedSeries(scheme_from_arrays(support, np.ones(S), np.zeros(S), n,
                                                         {"name": "1"}), c[b], ANALYTIC)
        grid = evaluate_circle(series, 1.0, M).reshape(plan.L, P).T[:R]
        assert np.max(np.abs(rows[b] - grid)) <= 1e-13 * np.abs(c[b]).sum()


def _grid_max(plan, c):
    vals = np.concatenate(list(disk._circle_values(plan, c, [slice(i, i + 1)
                                                              for i in range(len(plan.twists))])))
    return float(np.abs(vals).max())


@pytest.mark.parametrize("degree, M, P", [
    (50, 128, 1),        # one row: nothing to mirror
    (50, 256, 2),        # rows 0 and 1 are both kept
    (50, 2048, 16),      # rows 0..8 of 16
    (10, 2**18, 8192),   # rows 0..4096 of 8192
])
def test_half_rows_hold_the_grid_max(degree, M, P):
    # real coefficients: S(-t) = conj S(t), so rows 0..P/2 reach the max of all P rows
    rng = np.random.default_rng(degree + M)
    j = np.arange(degree + 1)
    c = rng.normal(size=degree + 1).astype(complex)
    for real in (True, False):
        half, full = disk.circle_plan(j, M, real, half=True), disk.circle_plan(j, M, real)
        assert (M // half.L, len(half.twists), len(full.twists)) == (P, P // 2 + 1, P)
        assert _grid_max(half, c) == pytest.approx(_grid_max(full, c), rel=1e-15, abs=0)


def _full_grid_lower(vals):
    return float(np.abs(vals).max()) * (1.0 - disk.FLOAT_GUARD)


@pytest.mark.parametrize("oversample, P", [(4.0, 4), (64.0, 64)])
def test_half_row_brackets_match_the_full_grid(oversample, P, monkeypatch):
    # cosine-only scheme, real signs: every c_j is real and brackets take half the rows;
    # one-row transform blocks, so a block lost at either end shows in some trial
    monkeypatch.setattr(disk, "BLOCK_BYTES", 1)
    rng = np.random.default_rng(int(oversample))
    n, r = 40, 0.97
    sch = scheme_from_arrays(np.arange(1, n + 1), rng.normal(size=n), np.zeros(n), n,
                             {"name": "t"})
    for flavor, trial in itertools.product((REAL_HARMONIC, ANALYTIC), range(6)):
        ser = randomize(sch, make_model("rademacher"), SEED, trial, flavor=flavor)
        slot = disk.PlanSlot(sch.support, r)
        b = slot_bracket(ser, slot, oversample, refine=False)
        assert (b.grid_size // slot.plan.L, len(slot.plan.twists)) == (P, P // 2 + 1)
        assert b.lower == pytest.approx(_full_grid_lower(evaluate_circle(ser, r, b.grid_size)),
                                        rel=1e-15, abs=0)
        assert b == sup_bracket(ser, r, oversample=oversample, refine=False)
    # |grad u| = |f'|, f' = sum j c_j z^(j-1): the analytic series of j c_j r^(j-1)
    ser = randomize(sch, make_model("rademacher"), SEED, 1)
    b = gradient_sup_bracket(ser, r, oversample=oversample, refine=False)
    c = ser.signed_complex_coeffs() * np.arange(1, n + 1)
    deriv = RandomizedSeries(scheme_from_arrays(np.arange(n), np.ones(n), np.zeros(n), n - 1,
                                                {"name": "d"}), c, ANALYTIC)
    assert b.lower == pytest.approx(_full_grid_lower(evaluate_circle(deriv, r, b.grid_size)),
                                    rel=1e-15, abs=0)


def test_imaginary_coefficients_use_every_row():
    # sine-only: c_j = -i a_j1 xi_j1 is imaginary, so the realness test fails and no row is dropped
    sch = scheme_from_arrays(np.arange(1, 41), np.zeros(40), np.linspace(1.0, 2.0, 40), 40,
                             {"name": "t"})
    ser = randomize(sch, make_model("rademacher"), SEED, 2)
    slot = disk.PlanSlot(sch.support, 0.9)
    b = slot_bracket(ser, slot, refine=False)
    assert len(slot.plan.twists) == b.grid_size // slot.plan.L > 2
    assert b == sup_bracket(ser, 0.9, oversample=16.0, refine=False)


# -- few-term supports: the wave-table product ---------------------------------------

def _lacunary(S, n):
    """S frequencies spread geometrically over 1..n, the last one n."""
    j = np.unique(np.round(np.geomspace(1, n, 4 * S)).astype(np.int64))
    return np.append(j[np.linspace(0, len(j) - 2, S - 1).astype(int)], n)


def _fft_plan(support, M, real, half, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(disk, "WAVE_TERMS", 0)
        return disk.circle_plan(support, M, real, half)


def _rows(plan, c, blocks):
    return np.concatenate(list(disk._circle_values(plan, c, blocks)))


@pytest.mark.parametrize("S", [disk.WAVE_TERMS, disk.WAVE_TERMS + 1])
@pytest.mark.parametrize("real, half", [(True, True), (True, False), (False, False)])
@pytest.mark.parametrize("M, n", [(4096, 200), (512, 200), (2**16, 1000)])
def test_wave_blocks_match_fft_and_direct(S, real, half, M, n, monkeypatch):
    # 4096 at degree 200 gives 8 rows, 512 one row, 2^16 at degree 1000 gives 32
    support = _lacunary(S, n)
    rng = np.random.default_rng(S + M)
    c = rng.normal(size=S) + (0.0 if half else 1j * rng.normal(size=S))
    plan, fft = disk.circle_plan(support, M, real, half), _fft_plan(support, M, real, half,
                                                                    monkeypatch)
    assert (plan.waves is not None) == (S <= disk.WAVE_TERMS) and fft.waves is None
    rows = np.arange(len(plan.twists))
    blocks = [rows[::-1][:2], slice(0, plan.step), slice(plan.step, None)]
    vals = _rows(plan, c, blocks)
    l1 = np.abs(c).sum()
    assert np.max(np.abs(vals - _rows(fft, c, blocks))) <= 1e-13 * l1
    order = np.concatenate([rows[::-1][:2], rows])
    th = 2 * np.pi * (np.arange(plan.L)[None, :] * (M // plan.L) + order[:, None]) / M
    assert vals.shape == th.shape
    # a direct sum's angle j t carries about n eps of rounding; the grid's phases are exact
    direct = disk._point_values(support, c, 0, th.ravel(), 1, real).reshape(th.shape)
    assert np.max(np.abs(vals - direct)) <= 1e-15 * n * l1


def test_wave_table_fits_its_budget(monkeypatch):
    # Riesz combs: n = 6 and 7 (1.5 and 7.3 MB tables) sum by waves, n = 8 would need 33 MB
    for n_terms, waves in ((6, True), (7, True), (8, False)):
        freqs = 4 ** np.arange(1, n_terms + 1)
        plan = disk.circle_plan(freqs, disk.grid_size(int(freqs[-1]), 4.0), True, True)
        assert (plan.waves is not None) == waves
        assert plan.waves is None or plan.waves.nbytes <= disk.WAVE_BYTES
    # a table over budget falls back to the transform and yields the same values
    support, c = _lacunary(4, 300), np.array([1.0, -0.5, 2.0, 0.25])
    wave = disk.circle_plan(support, 2**14, True, True)
    monkeypatch.setattr(disk, "WAVE_BYTES", wave.waves.nbytes - 1)
    fft = disk.circle_plan(support, 2**14, True, True)
    assert fft.waves is None
    blocks = [slice(None)]
    assert np.allclose(_rows(wave, c, blocks), _rows(fft, c, blocks), rtol=0,
                       atol=1e-13 * np.abs(c).sum())


@pytest.mark.parametrize("flavor", [REAL_HARMONIC, ANALYTIC])
def test_evaluate_circle_on_hadamard_support(flavor):
    sch = hadamard_lacunary_scheme(block_sequence(make_weight("power", 1.0), 2.0, 1, 10))
    assert len(sch.support) <= disk.WAVE_TERMS
    ser = randomize(sch, make_model("rademacher"), SEED, 3, flavor=flavor)
    for M in (8192, 1000, 333):
        th = 2 * np.pi * np.arange(M) / M
        assert np.max(np.abs(evaluate_circle(ser, 0.99, M) - evaluate_at(ser, 0.99, th))) \
            <= 1e-13 * np.abs(ser.signed_complex_coeffs()).sum()


@pytest.mark.parametrize("flavor", [REAL_HARMONIC, ANALYTIC])
def test_wave_brackets_match_fft_brackets(flavor, monkeypatch):
    # same grid, refinement seeds and Newton ascent on both paths: the brackets agree
    # to roundoff, and refinement climbs from the wave grid to the dense sup
    support = _lacunary(12, 1500)
    sch = scheme_from_arrays(support, np.linspace(1.0, 2.0, 12), np.zeros(12), 1500,
                             {"name": "t"})
    for trial in range(3):
        ser = randomize(sch, make_model("rademacher"), SEED, trial, flavor=flavor)
        slot = disk.PlanSlot(support, 1.0)
        wave = slot_bracket(ser, slot)
        assert slot.plan.waves is not None and len(slot.plan.twists) == 17   # half of 32 rows
        with monkeypatch.context() as m:
            m.setattr(disk, "WAVE_TERMS", 0)
            fft = sup_bracket(ser, 1.0, refine=True)
        assert wave.grid_size == fft.grid_size and wave.degree == fft.degree
        assert wave.lower == pytest.approx(fft.lower, rel=1e-13, abs=0)
        assert wave.upper == pytest.approx(fft.upper, rel=1e-13, abs=0)
        lo, hi = dense_sup(*coeffs_at(ser, 1.0), real=flavor == REAL_HARMONIC)
        assert sup_bracket(ser, 1.0, refine=False).lower < lo * (1 - 1e-7)
        assert lo * (1 - 2e-12) <= wave.lower <= hi


# -- sup brackets ------------------------------------------------------------------

def test_bracket_cosine_closed_form():
    ser = unit_series(mono(1))
    b = sup_bracket(ser, 0.5, oversample=16.0)
    assert b.lower <= 0.5 <= b.upper
    assert b.lower == pytest.approx(0.5, rel=1e-9)
    assert b.upper <= 0.5 / (1.0 - 1.0 / 16.0)


def test_bracket_constant_exact():
    for r in (0.9, 0.0):
        b = sup_bracket(unit_series(mono(0, cos=-2.5)), r)
        assert b.lower == pytest.approx(2.5, rel=1e-9)
        assert b.upper == pytest.approx(2.5, rel=1e-9)


def test_bracket_zero_series():
    sch = scheme_from_arrays([], [], [], 0, {"name": "zero"})
    b = sup_bracket(unit_series(sch), 0.5)
    assert b.lower == b.upper == 0.0


def test_bracket_grs_256():
    signs = rudin_shapiro_signs(256)
    sch = scheme_from_arrays(np.arange(256), signs, np.zeros(256), 255, {"name": "grs"})
    b = sup_bracket(unit_series(sch), 1.0, oversample=16.0, refine=True)
    assert b.upper <= 5.0 * 16.0
    # classical constant leaves headroom
    assert b.upper <= (2.0 + math.sqrt(2.0)) * 16.0 * 1.1


def test_bracket_contains_independently_refined_grs_sup():
    # independent oracle: dense direct evaluation plus golden refinement,
    # no FFT and no Bernstein factor involved
    m = 128
    signs = rudin_shapiro_signs(m)
    sch = scheme_from_arrays(np.arange(m), signs, np.zeros(m), m - 1, {"name": "grs"})
    ser = unit_series(sch)
    th = np.linspace(0.0, 2.0 * np.pi, 20001)
    vals = np.abs(evaluate_at(ser, 1.0, th))
    i = int(np.argmax(vals))
    lo_t, hi_t = th[max(i - 1, 0)], th[min(i + 1, len(th) - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo_t, hi_t
    for _ in range(80):
        x1, x2 = b - phi * (b - a), a + phi * (b - a)
        if abs(evaluate_at(ser, 1.0, x1)) < abs(evaluate_at(ser, 1.0, x2)):
            a = x1
        else:
            b = x2
    oracle_sup = max(float(vals[i]), float(abs(evaluate_at(ser, 1.0, 0.5 * (a + b)))))
    br = sup_bracket(ser, 1.0, oversample=16.0, refine=True)
    assert br.lower <= oracle_sup <= br.upper
    assert br.lower == pytest.approx(oracle_sup, rel=1e-9)


def test_bracket_soundness_single_modes():
    for j, r in [(1, 0.5), (5, 0.9), (40, 0.99)]:
        b = sup_bracket(unit_series(mono(j)), r, oversample=8.0)
        truth = r**j
        assert b.lower <= truth <= b.upper
        assert b.lower == pytest.approx(truth, rel=1e-6)


def test_bracket_tail_truncation_sound(monkeypatch):
    sch = random_scheme(SEED, 5, 5000)
    ser = randomize(sch, make_model("rademacher"), SEED, 5)

    def bracket(tail_rtol, refine):
        monkeypatch.setattr(disk, "TAIL_RTOL", tail_rtol)
        return sup_bracket(ser, 0.9, refine=refine)

    tight = bracket(0.0, refine=False)
    loose = bracket(1e-9, refine=False)
    assert loose.lower <= tight.upper
    assert tight.lower <= loose.upper
    assert loose.degree <= tight.degree
    # unrefined lower bounds are grid maxima on different grids; refined ones
    # are not, so they must agree up to the discarded tail
    tight = bracket(0.0, refine=True)
    loose = bracket(1e-9, refine=True)
    assert loose.lower == pytest.approx(tight.lower, rel=1e-6)


def dense_sup(support, coeffs, real=True, D=2**20):
    """Independent bracket [grid_max, grid_max / cos(pi n / D)] of sup|Re f| or
    sup|f|, f = sum c_j e^{ijt}: one complex FFT of the full spectrum on D > 2n
    angles, no folding, truncation or refinement."""
    buf = np.zeros(D, dtype=complex)
    buf[np.asarray(support)] = coeffs
    vals = np.fft.ifft(buf) * D
    top = float(np.abs(vals.real if real else vals).max())
    return top, top / math.cos(math.pi * max(support) / D)


def assert_contains(b, ref):
    """Sound brackets meet the reference interval: lower <= sup <= upper."""
    lo, hi = ref
    assert b.lower <= hi * (1 + 1e-12) and lo <= b.upper * (1 + 1e-12), (b, ref)


def coeffs_at(ser, r):
    j = ser.scheme.support
    return j, ser.signed_complex_coeffs() * np.power(float(r), j.astype(float))


@pytest.mark.parametrize("refine", [True, False])
def test_real_bracket_cos_plus_sin2(refine):
    # u = cos t + sin 2t: sup|u| = 1.7602, while the completion's sup|f| = 2
    ser = unit_series(scheme_from_arrays([1, 2], [1.0, 0.0], [0.0, 1.0], 2, {"name": "t"}))
    b = sup_bracket(ser, 1.0, refine=refine)
    assert_contains(b, dense_sup(*coeffs_at(ser, 1.0)))
    assert b.upper < 1.77


@pytest.mark.parametrize("tail_rtol", [0.0, 1e-12])
def test_real_bracket_degree_5000(tail_rtol, monkeypatch):
    monkeypatch.setattr(disk, "TAIL_RTOL", tail_rtol)
    sch = random_scheme(SEED, 5, 5000)
    ser = randomize(sch, make_model("rademacher"), SEED, 5)
    ref = dense_sup(*coeffs_at(ser, 0.9))
    for refine in (False, True):
        assert_contains(sup_bracket(ser, 0.9, refine=refine), ref)


def test_signed_riesz_rows_below_sup_u():
    freqs = 4 ** np.arange(1, 4)
    rep = riesz_probe(3, sign_patterns=True)
    for row in rep.rows:
        lo, hi = dense_sup(freqs, np.asarray(row.pattern, dtype=float))
        assert row.ratio * 3 <= hi
        assert row.ratio * 3 >= lo * math.cos(1.0 / 64.0)
    assert rep.c_emp < 0.91


@pytest.mark.parametrize("flavor", [REAL_HARMONIC, ANALYTIC])
def test_bracket_fine_grid_contains_dense_sup(flavor):
    # oversample 8192 at degree 10: M = 2^18 in 8192 rows of 32 angles
    rng = np.random.default_rng(3)
    sch = scheme_from_arrays(np.arange(11), rng.normal(size=11), rng.normal(size=11), 10,
                             {"name": "t"})
    ser = randomize(sch, make_model("rademacher"), SEED, 0, flavor=flavor)
    for refine in (False, True):
        b = sup_bracket(ser, 1.0, oversample=8192.0, refine=refine)
        assert b.grid_size == 2**18
        assert_contains(b, dense_sup(*coeffs_at(ser, 1.0), real=flavor == REAL_HARMONIC))


@pytest.mark.parametrize("flavor", [REAL_HARMONIC, ANALYTIC])
def test_refined_seeds_land_on_the_maximiser(flavor):
    # cos(j (t - t0)) and |1 + e^{ij (t - t0)}| peak halfway between grid angles;
    # refinement only reaches 1e-12 of the peak when its seeds map back to their angles
    j, t0 = 8, 2 * math.pi * 10.5 / 512
    if flavor == REAL_HARMONIC:
        ser = unit_series(mono(j, cos=math.cos(j * t0), sin=math.sin(j * t0)))
        peak = 1.0
    else:
        sch = scheme_from_arrays([0, j], [1.0, 1.0], [0.0, 0.0], j, {"name": "t"})
        ser = RandomizedSeries(sch, np.array([1.0, np.exp(-1j * j * t0)]), ANALYTIC)
        peak = 2.0
    coarse = sup_bracket(ser, 1.0, refine=False)
    b = sup_bracket(ser, 1.0, refine=True)
    assert b.grid_size == 512        # 16 rows of 32 angles
    assert coarse.lower < peak * (1 - 1e-4)
    assert b.lower <= peak <= b.upper
    assert b.lower == pytest.approx(peak, rel=1e-12)


@pytest.mark.parametrize("flavor", [REAL_HARMONIC, ANALYTIC])
def test_refined_seeds_map_back_on_half_rows(flavor):
    # real coefficients: the seeds come from rows 0..P/2 of P and must map back to
    # their angles for refinement to climb from the coarse grid max to the sup
    rng = np.random.default_rng(11)
    sch = scheme_from_arrays(np.arange(31), rng.normal(size=31), np.zeros(31), 30,
                             {"name": "t"})
    for trial in range(4):
        ser = randomize(sch, make_model("rademacher"), SEED, trial, flavor=flavor)
        lo, hi = dense_sup(*coeffs_at(ser, 1.0), real=flavor == REAL_HARMONIC)
        assert sup_bracket(ser, 1.0, refine=False).lower < lo * (1 - 1e-7)
        assert lo * (1 - 2e-12) <= sup_bracket(ser, 1.0, refine=True).lower <= hi


def zoomed_max(f, lo, hi, first=2**14, k=257, rounds=6):
    """Independent max of the vectorized f on [lo, hi]: dense direct sampling, then
    rounds of k samples between the neighbours of the best one; no derivatives."""
    th = np.linspace(lo, hi, first)
    for _ in range(rounds):
        v = f(th)
        i = int(np.argmax(v))
        th = np.linspace(th[max(i - 1, 0)], th[min(i + 1, len(th) - 1)], k)
    return float(v.max())


def _oracle_cases():
    rng = np.random.default_rng(5)
    sch = scheme_from_arrays(np.arange(61), rng.normal(size=61), rng.normal(size=61), 60,
                             {"name": "t"})
    real = randomize(sch, make_model("rademacher"), SEED, 1)
    analytic = randomize(sch, make_model("steinhaus"), SEED, 1, flavor=ANALYTIC)

    def grad(ser, r):
        return lambda th: np.array([np.hypot(*gradient_at(ser, (r * math.cos(t), r * math.sin(t))))
                                    for t in th])

    # cos(7 (t - t0)) with t0 on the grid of 512 angles: the seeds t0 +- 2 pi / 512
    # sit one grid step off the maximiser, on the edge of their windows
    t0 = 2 * math.pi * 5 / 512
    edge = unit_series(mono(7, cos=math.cos(7 * t0), sin=math.sin(7 * t0)))
    for r in (0.9, 1.0):
        yield f"real r={r}", real, r, lambda th, r=r: np.abs(evaluate_at(real, r, th)), sup_bracket
        yield (f"analytic r={r}", analytic, r, lambda th, r=r: np.abs(evaluate_at(analytic, r, th)),
               sup_bracket)
    yield "gradient r=0.9", real, 0.9, grad(real, 0.9), gradient_sup_bracket
    yield "window edge", edge, 1.0, lambda th: np.abs(evaluate_at(edge, 1.0, th)), sup_bracket


@pytest.mark.parametrize("case", list(_oracle_cases()), ids=lambda c: c[0])
def test_refined_lower_matches_dense_oracle(case):
    _, ser, r, f, bracket = case
    oracle = zoomed_max(f, 0.0, 2.0 * math.pi)
    b = bracket(ser, r, oversample=16.0, refine=True)
    assert b.lower <= oracle <= b.upper
    assert b.lower == pytest.approx(oracle * (1.0 - disk.FLOAT_GUARD), rel=1e-12)


def test_newton_stops_on_the_window_edge():
    # one seed, grid angle 5h of 512, whose window [t0 + h/2, t0 + 5h/2] excludes the
    # maximiser t0 of cos(7 (t - t0)): the ascent is clipped and returns the window's own max
    h = 2 * math.pi / 512
    t0 = 3.5 * h
    j, c = np.array([7]), np.array([[np.exp(-7j * t0)]])
    best = disk._newton_max(j, c, True, np.array([[5]]), 512)
    assert best.shape == (1,)
    assert best[0] == pytest.approx(math.cos(7 * 0.5 * h), rel=1e-14)


def test_newton_keeps_the_best_value_it_met():
    # |1 + e^{it}|^2 from t = 2 pi / 3 on a 3-point grid, whose window is as wide: Newton
    # overshoots into the convex region and stops at a worse angle; the seed's value is
    # still returned
    j, c = np.array([0, 1]), np.array([[1.0, 1.0]], dtype=complex)
    best = disk._newton_max(j, c, False, np.array([[1]]), 3)
    assert best[0] == pytest.approx(2 * math.cos(math.pi / 3), rel=1e-14)


def _counted_point_values(monkeypatch):
    calls, direct = [], disk._point_values
    monkeypatch.setattr(disk, "_point_values", lambda *a: calls.append(1) or direct(*a))
    return calls


def test_refinement_closed_forms(monkeypatch):
    calls = _counted_point_values(monkeypatch)
    # a constant has zero curvature, so the ascent stops after one summation
    for ser, value in [(unit_series(mono(0, cos=-2.5)), 2.5),
                       (RandomizedSeries(mono(0), np.array([3.0 - 4.0j]), ANALYTIC), 5.0)]:
        calls.clear()
        assert sup_bracket(ser, 1.0, refine=True).lower == value * (1.0 - disk.FLOAT_GUARD)
        assert len(calls) == 1
    # cos(n (t - t0)) off the grid: Newton has to climb to 1
    for n, t0 in [(1, 0.0), (3, 0.3), (40, 1.234), (500, 2.5)]:
        ser = unit_series(mono(n, cos=math.cos(n * t0), sin=math.sin(n * t0)))
        b = sup_bracket(ser, 1.0, refine=True)
        assert abs(b.lower / (1.0 - disk.FLOAT_GUARD) - 1.0) <= 1e-12
        assert b.upper == sup_bracket(ser, 1.0, refine=False).upper


def _bracket_kinds(sch, trial):
    """(series, bracket) for both flavors and the gradient, with Rademacher signs."""
    real, analytic = (randomize(sch, make_model("rademacher"), SEED, trial, flavor=flavor)
                      for flavor in (REAL_HARMONIC, ANALYTIC))
    return [(real, sup_bracket), (analytic, sup_bracket), (real, gradient_sup_bracket)]


def test_refined_lower_never_below_unrefined():
    for degree, r, trial in itertools.product((3, 40, 300), (0.5, 0.95, 1.0), range(3)):
        for ser, bracket in _bracket_kinds(random_scheme(SEED, trial, degree, both=trial != 1),
                                           trial):
            fine, coarse = (bracket(ser, r, refine=refine) for refine in (True, False))
            assert fine.lower >= coarse.lower
            assert fine.upper == coarse.upper


def test_refinement_sums_at_most_newton_steps_times(monkeypatch):
    calls = _counted_point_values(monkeypatch)
    for ser, bracket in _bracket_kinds(random_scheme(SEED, 2, 4096), 2):
        calls.clear()
        bracket(ser, 0.99, refine=False)
        assert calls == []
        bracket(ser, 0.99, refine=True)
        assert 1 <= len(calls) <= disk.NEWTON_STEPS == 8


@given(coeffs=st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=1, max_size=40),
       r=st.floats(0.0, 1.0), oversample=st.floats(4.0, 64.0),
       flavor=st.sampled_from([REAL_HARMONIC, ANALYTIC]))
@settings(max_examples=60, deadline=None)
def test_bracket_contains_sup_property(coeffs, r, oversample, flavor):
    a = np.array(coeffs)
    n = len(a) - 1
    ser = unit_series(scheme_from_arrays(np.arange(n + 1), a[:, 0], a[:, 1], n, {"name": "h"}),
                      flavor)
    j, c = coeffs_at(ser, r)
    ref = dense_sup(j, c, real=flavor == REAL_HARMONIC, D=2**14)
    # sup >= 1e-3 l1 keeps the 1e-12 l1 truncation allowance below 1e-9 of the sup;
    # near the subnormal range no relative roundoff guard holds
    assume(ref[0] > 1e-3 * np.abs(c).sum() > 1e-250)
    tight = sup_bracket(ser, r, oversample=oversample, refine=True)
    loose = sup_bracket(ser, r, oversample=oversample, refine=False)
    assert_contains(tight, ref)
    assert_contains(loose, ref)
    # secant certificate: width set by the grid promise pi n / M <= 1/oversample
    assert loose.upper / loose.lower <= (1 + 1e-8) / math.cos(1.0 / oversample)


# -- stacks of series and the common period -------------------------------------------

@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_stacked_brackets_match_single_brackets(data):
    # rows on one support, some with a sine part (every grid row) and some with a tail
    # of 1e-15 (a shorter kept prefix), so a stack spans several plan groups; up to 16
    # kept terms sum by wave table, more by transform; BLOCK_BYTES = 1 gives one-row blocks
    g = data.draw(st.sampled_from([1, 2, 3, 4]), label="g")
    base = data.draw(st.lists(st.integers(0, 300), min_size=1, max_size=40, unique=True))
    support = g * np.array(sorted(base))
    S = len(support)
    flavor = data.draw(st.sampled_from([REAL_HARMONIC, ANALYTIC]))
    r = data.draw(st.sampled_from([0.5, 0.9, 1.0]))
    oversample = data.draw(st.floats(4.0, 64.0))
    block_bytes = data.draw(st.sampled_from([1, disk.BLOCK_BYTES]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    series = []
    for _ in range(data.draw(st.integers(1, 5))):
        cos = rng.normal(size=S)
        sin = rng.normal(size=S) * data.draw(st.sampled_from([0.0, 1.0]))
        cut = data.draw(st.integers(1, S))
        cos[cut:] *= 1e-15
        sin[cut:] *= 1e-15
        sch = scheme_from_arrays(support, cos, sin, int(support[-1]), {"name": "t"})
        series.append(unit_series(sch, flavor))
    coeffs = np.stack([ser.signed_complex_coeffs() for ser in series])
    period = disk.PlanSlot(support, r).g      # g, or 1 for the support {0}
    with pytest.MonkeyPatch.context() as m:
        m.setattr(disk, "BLOCK_BYTES", block_bytes)
        coarse = disk.sup_brackets(coeffs, disk.PlanSlot(support, r), oversample, False, flavor)
        assert coarse == [sup_bracket(ser, r, oversample, refine=False) for ser in series]
        fine = disk.sup_brackets(coeffs, disk.PlanSlot(support, r), oversample, True, flavor)
        for a, b, c in zip(fine, [sup_bracket(ser, r, oversample) for ser in series], coarse):
            assert (a.upper, a.grid_size, a.degree) == (c.upper, c.grid_size, c.degree)
            assert a.lower == pytest.approx(b.lower, rel=1e-13, abs=0)
            assert a.lower >= c.lower
            assert c.grid_size % period == 0 or c.upper == 0.0   # a zero row has no grid


@pytest.mark.parametrize("S", [5, 40])
@pytest.mark.parametrize("real, half", [(True, True), (True, False), (False, False)])
@pytest.mark.parametrize("M", [4096, 128])
def test_stacked_circle_values_match_rows(S, real, half, M):
    # a fine grid of many rows and a grid of one or two; wave and transform
    rng = np.random.default_rng(S + M)
    support = np.sort(rng.choice(51, size=S, replace=False))
    c = rng.normal(size=(3, S)) + (0.0 if half else 1j * rng.normal(size=(3, S)))
    plan = disk.circle_plan(support, M, real, half)
    R = len(plan.twists)
    rows = rng.integers(0, R, size=(3, 2))     # rows of each series' own
    for blocks in ([slice(None)], [slice(0, 1), slice(1, None)]):
        stacked = _rows_stacked(plan, c, blocks)
        assert stacked.shape == (3, R, plan.L)
        for b in range(3):
            assert np.array_equal(stacked[b], _rows(plan, c[b], blocks))
    own = next(disk._circle_values(plan, c, [rows]))
    for b in range(3):
        assert np.array_equal(own[b], next(disk._circle_values(plan, c[b], [rows[b]])))


def _rows_stacked(plan, c, blocks):
    return np.concatenate(list(disk._circle_values(plan, c, blocks)), axis=1)


@pytest.mark.parametrize("g", [3, 4, 6])
@pytest.mark.parametrize("flavor", [REAL_HARMONIC, ANALYTIC])
def test_common_period_brackets_contain_dense_sup(g, flavor):
    # a support of multiples of g runs on j / g, with a grid g times smaller that
    # stands for grid_size angles; the bracket still contains the full-grid reference
    rng = np.random.default_rng(g)
    support = g * np.sort(rng.choice(np.arange(1, 200), size=30, replace=False))
    sch = scheme_from_arrays(support, rng.normal(size=30), rng.normal(size=30),
                             int(support[-1]), {"name": "t"})
    for trial, r in itertools.product(range(3), (0.9, 1.0)):
        ser = randomize(sch, make_model("rademacher"), SEED, trial, flavor=flavor)
        slot = disk.PlanSlot(sch.support, r)
        assert slot.g == g and np.array_equal(slot.reduced * g, sch.support)
        ref = dense_sup(*coeffs_at(ser, r), real=flavor == REAL_HARMONIC)
        for refine in (False, True):
            b = slot_bracket(ser, slot, refine=refine)
            assert b.grid_size == g * disk.grid_size(b.degree // g, 16.0)
            assert_contains(b, ref)
        assert b.lower >= ref[0] * (1 - 2e-12)    # refined: up to the reference's grid max


@pytest.mark.parametrize("r", [0.0, 1e-10, 0.3, 0.5, 0.9, 0.9375, 0.99, 1.0])
def test_slot_radial_is_pow_where_normal_and_zero_beyond(r):
    # pow's subnormal results (from j = 10,977 at r = 0.9375) become exact zeros
    assert disk.TINY == np.finfo(float).tiny
    support = np.random.default_rng(5).permutation(70000)
    ref = np.power(r, support.astype(float))
    normal = ref >= disk.TINY
    radial = disk.PlanSlot(support, r).radial
    assert np.array_equal(radial[normal], ref[normal])
    assert not radial[~normal].any()
    assert normal.all() if r >= 0.99 else not normal.all()


def _longdouble_values(support, c, k, delta, M, real):
    """Extended-precision sum at the angles 2 pi k / M + delta, phases formed as exactly."""
    pi = 4 * np.arctan(np.longdouble(1))
    phase = ((np.multiply.outer(k, support) % M).astype(np.longdouble) * (2 * pi / M)
             + np.multiply.outer(np.asarray(delta, dtype=np.longdouble),
                                 support.astype(np.longdouble)))
    cr, ci = (np.asarray(x, dtype=np.longdouble) for x in (c.real, c.imag))
    re = (np.cos(phase) * cr - np.sin(phase) * ci).sum(-1)
    if real:
        return re
    return np.hypot(re, (np.sin(phase) * cr + np.cos(phase) * ci).sum(-1))


@pytest.mark.parametrize("flavor", [REAL_HARMONIC, ANALYTIC])
def test_refined_values_match_extended_precision_at_degree_65536(flavor, monkeypatch):
    # every value refinement meets is within 1e-13 of the sup of an extended-precision
    # sum at the same point; phases j t in float64 missed it by up to 6.2e-12
    n = 65536
    rng = np.random.default_rng(n)
    sch = scheme_from_arrays(np.arange(n + 1), rng.normal(size=n + 1), rng.normal(size=n + 1),
                             n, {"name": "t"})
    ser = randomize(sch, make_model("rademacher"), SEED, 0, flavor=flavor)
    seen, direct = [], disk._point_values

    def recording(support, coeffs, k, delta, M, real):
        vals = direct(support, coeffs, k, delta, M, real)
        seen.append((support, coeffs[..., 0], k, delta, M, real, vals[..., 0]))
        return vals

    monkeypatch.setattr(disk, "_point_values", recording)
    b = sup_bracket(ser, 1.0, refine=True)
    assert b.grid_size == 2**22 and len(seen) >= 1
    for support, c, k, delta, M, real, vals in seen:
        ref = _longdouble_values(support, c[0], k[0], delta[0], M, real)
        assert np.max(np.abs(np.abs(vals[0]) - np.abs(ref))) <= 1e-13 * b.lower
    best = max(float(np.abs(v).max()) for *_, v in seen)
    assert b.lower >= best * (1 - disk.FLOAT_GUARD)


@pytest.mark.parametrize("oversample", [float("nan"), float("inf"), -float("inf"), 3.99])
def test_oversample_must_be_finite_and_at_least_4(oversample):
    ser = unit_series(scheme_from_arrays([0, 16], [1.0, 1.0], [0.0, 0.5], 16, {"name": "t"}))
    for bracket in (sup_bracket, gradient_sup_bracket):
        with pytest.raises(GrowthLabError) as ei:
            bracket(ser, 0.9, oversample=oversample)
        assert ei.value.code == "DOMAIN", bracket
    zero = unit_series(scheme_from_arrays([], [], [], 0, {"name": "zero"}))
    with pytest.raises(GrowthLabError):
        sup_bracket(zero, 0.5, oversample=oversample)


def test_grid_limit_checked_before_allocating(monkeypatch):
    # neither {1, 2, 16} nor its derivative's support {0, 1, 15} has a common period,
    # so both grids are the full ones
    ser = unit_series(scheme_from_arrays([1, 2, 16], [1.0, -0.3, 0.5], [0.0, 0.0, 0.0], 16,
                                         {"name": "t"}))
    monkeypatch.setattr(disk, "MAX_GRID", 1024)
    # 16 pi * 16 = 804 -> M = 1024 passes; 32 pi * 16 = 1608 -> M = 2048 does not
    assert sup_bracket(ser, 1.0, oversample=16.0).grid_size == 1024
    for bracket, oversample in ((sup_bracket, 32.0), (gradient_sup_bracket, 64.0)):
        with pytest.raises(GrowthLabError) as ei:
            bracket(ser, 1.0, oversample=oversample)
        assert ei.value.code == "BUDGET_EXCEEDED"
    # z^16 has period 2 pi / 16: its degree-1 reduction needs 128 angles, standing for 2048
    b = sup_bracket(unit_series(mono(16)), 1.0, oversample=32.0)
    assert b.grid_size == 2048 and b.degree == 16
    assert b.lower <= 1.0 <= b.upper and b.lower == pytest.approx(1.0, rel=1e-11)
    monkeypatch.undo()
    with pytest.raises(GrowthLabError) as ei:     # the product overflows to inf
        sup_bracket(ser, 1.0, oversample=1e308)
    assert ei.value.code == "BUDGET_EXCEEDED"


def test_analytic_modulus_bracket():
    sch = mono(3)
    ser = randomize(sch, make_model("steinhaus"), SEED, 1, flavor=ANALYTIC)
    b = sup_bracket(ser, 0.5, oversample=16.0)
    assert b.lower <= 0.125 <= b.upper
    assert b.lower == pytest.approx(0.125, rel=1e-9)
    vals = evaluate_circle(ser, 0.5, 16)
    assert vals.dtype == complex
    assert np.max(np.abs(vals)) <= b.upper


# -- partial sums and Cesaro means ----------------------------------------------------

# u = 2 + 3 cos t + 7 cos 3t: every truncation has nonnegative cosine coefficients,
# so each peaks at t = 0 at its coefficient sum
SPARSE = scheme_from_arrays([0, 1, 3], [2.0, 3.0, 7.0], [0.0, 0.0, 0.0], 3, {"name": "t"})


def truncation_peaks(which, ns):
    return operator_norm_profile(unit_series(SPARSE), make_weight("power", 1.0), ns=ns,
                                 which=which).rows


def test_partial_sum_identity_below_degree():
    # s_4 keeps every degree of the degree-3 series: the bracket of the series itself
    (row,) = truncation_peaks(PARTIAL, [4])
    full = sup_bracket(unit_series(SPARSE), 1.0)
    assert (row.lower, row.upper) == (full.lower, full.upper)
    assert row.lower == pytest.approx(12.0, rel=1e-9) and row.upper >= 12.0


def test_partial_sum_convention_excludes_n():
    # s_3 = 2 + 3 cos t drops degree 3
    (row,) = truncation_peaks(PARTIAL, [3])
    assert row.lower == pytest.approx(5.0, rel=1e-9) and row.upper >= 5.0
    with pytest.raises(GrowthLabError) as ei:        # s_0 keeps nothing: refused
        truncation_peaks(PARTIAL, [0])
    assert ei.value.code == "DOMAIN"


def test_cesaro_weights():
    # sigma_2 = 2 + (3/2) cos t; sigma_4 = 2 + (9/4) cos t + (7/4) cos 3t: weight 1/n at j = n - 1
    rows = truncation_peaks(CESARO, [2, 4])
    for row, peak in zip(rows, (3.5, 6.0)):
        assert row.lower == pytest.approx(peak, rel=1e-9) and row.upper >= peak


def test_cesaro_domination_property():
    # no sigma_n u, n in (1, 7, 60), exceeds sup|u| at the interior radii 0.5 and 0.95
    rep = cesaro_domination_check(20, SEED, degree=80, radii=(0.5, 0.95), n_list=(1, 7, 60))
    assert rep.cases == 20 * 2 * 3
    assert rep.violations == 0


# -- gradients ----------------------------------------------------------------------

def test_gradient_closed_forms():
    assert np.allclose(gradient_at(unit_series(mono(1)), [0.1, 0.7]), [1.0, 0.0])
    g = gradient_at(unit_series(mono(2)), [0.3, 0.4])
    assert np.allclose(g, [0.6, -0.8])


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for trial in range(5):
        sch = random_scheme(SEED, 300 + trial, 50)
        ser = randomize(sch, make_model("rademacher"), SEED, trial)
        for _ in range(4):
            x = rng.uniform(-0.6, 0.6, 2)
            g = gradient_at(ser, x)
            h = 1e-5
            fd = np.empty(2)
            for i in range(2):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                tp = math.atan2(xp[1], xp[0])
                tm = math.atan2(xm[1], xm[0])
                fd[i] = (evaluate_at(ser, math.hypot(*xp), tp)
                         - evaluate_at(ser, math.hypot(*xm), tm)) / (2 * h)
            scale = max(np.linalg.norm(g), 1e-12)
            assert np.linalg.norm(g - fd) / scale < 1e-6


def test_gradient_flavor_mismatch():
    ser = randomize(mono(2), make_model("rademacher"), SEED, 0, flavor=ANALYTIC)
    with pytest.raises(GrowthLabError):
        gradient_at(ser, [0.1, 0.1])


def test_gradient_sup_bracket_unit_mode():
    # u = r cos(theta): |grad| = 1 everywhere
    for r in (0.0, 0.5, 0.9):
        b = gradient_sup_bracket(unit_series(mono(1)), r)
        assert b.lower <= 1.0 <= b.upper
        assert b.lower == pytest.approx(1.0, rel=1e-9)
