import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from numpy.polynomial import legendre

from growthlab import (SphereSeries, build_basis, cap_fraction, default_covering,
                       fibonacci_covering, laplacian_stencil, make_model,
                       random_degree_combination, sup_bracket_sphere)
from growthlab.disk import FLOAT_GUARD
from growthlab.sphere import COS, POINT_BLOCK, SIN, ZONAL, element_index

# the benchmark's independent Legendre reference (numpy only, no growthlab)
_spec = importlib.util.spec_from_file_location(
    "sphere_reference", Path(__file__).resolve().parents[1] / "perfbench" / "reference.py")
reference = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


@pytest.fixture(scope="module")
def basis():
    return build_basis(10)


@pytest.fixture(scope="module")
def basis16():
    return build_basis(16)


@pytest.fixture(scope="module")
def basis128():
    return build_basis(128)


def element(basis, m, l, coeff=1.0):
    return SphereSeries(basis, ((m, l, coeff),))


# -- covering ---------------------------------------------------------------------

def test_fibonacci_covering_shape_and_radius():
    cov = fibonacci_covering(1000)
    assert cov.points.shape == (1000, 3)
    assert np.allclose(np.linalg.norm(cov.points, axis=1), 1.0)
    assert cov.radius == pytest.approx(2.5 / math.sqrt(1000))


def test_fibonacci_covering_radius_is_conservative():
    # empirical fill distance of a probe set stays below the stated (uncertified) radius
    cov = fibonacci_covering(2000)
    rng = np.random.default_rng(3)
    probe = rng.standard_normal((500, 3))
    probe /= np.linalg.norm(probe, axis=1, keepdims=True)
    cos_nearest = np.max(probe @ cov.points.T, axis=1)
    worst_geodesic = float(np.max(np.arccos(np.clip(cos_nearest, -1, 1))))
    assert worst_geodesic <= cov.radius


def test_default_covering_resolution():
    cov = default_covering(32)
    assert 32 * cov.radius < 1.0
    assert cov.size >= 4096


# -- basis ----------------------------------------------------------------------------

def test_degree_zero_is_constant_one(basis):
    s = element(basis, 0, 0)
    pts = fibonacci_covering(64).points
    assert np.allclose(s.evaluate(pts), 1.0)
    assert s.evaluate([[0.1, 0.2, 0.3]])[0] == pytest.approx(1.0)


def test_zonal_degree_one_is_vertical_coordinate(basis):
    s = element(basis, 1, 0)
    assert s.evaluate([[0.0, 0.0, 0.5]])[0] == pytest.approx(0.5, rel=1e-3)
    assert s.evaluate([[0.0, 0.0, 1.0]])[0] == pytest.approx(1.0, rel=1e-3)
    assert s.evaluate([[0.3, -0.4, 0.0]])[0] == pytest.approx(0.0, abs=1e-12)


def test_zonal_degree_two_legendre(basis):
    # profile (3 z^2 - 1)/2 has sup 1 at the poles: normalization constant ~ 1
    assert basis.scale(2, 0) == pytest.approx(1.0, rel=2e-3)
    s = element(basis, 2, 0)
    assert s.evaluate([[0.0, 0.0, 1.0]])[0] == pytest.approx(1.0, rel=1e-3)
    assert s.evaluate([[1.0, 0.0, 0.0]])[0] == pytest.approx(-0.5, rel=1e-3)


def test_origin_and_homogeneity(basis):
    assert element(basis, 3, 2).evaluate([[0.0, 0.0, 0.0]])[0] == 0.0
    # solid harmonics scale like r^m
    s = element(basis, 3, 4)
    y = np.array([0.3, 0.5, -0.2])
    y /= np.linalg.norm(y)
    v1 = s.evaluate([y * 0.9])[0]
    v2 = s.evaluate([y * 0.45])[0]
    assert v2 == pytest.approx(v1 / 2**3, rel=1e-10)


def test_normalized_sups_certified(basis):
    for m in range(0, basis.max_degree + 1):
        for l in range(0, 2 * m + 1):
            assert 0.999 < basis.norm_lower[(m, element_index(m, l)[0])] <= 1.0


def test_harmonicity_stencil(basis):
    rng = np.random.default_rng(17)
    worst = 0.0
    for m in range(0, basis.max_degree + 1):
        for l in range(0, 2 * m + 1, max(1, m)):
            s = element(basis, m, l)
            for _ in range(10):
                x = rng.uniform(-1, 1, 3)
                x *= rng.uniform(0.2, 0.7) / np.linalg.norm(x)
                worst = max(worst, abs(laplacian_stencil(s, x)))
    assert worst <= 1e-6


# -- sup brackets -----------------------------------------------------------------------

def secant_squared(b):
    """cos^2(pi n / M) of a sphere bracket: upper = grid max / this."""
    return math.cos(math.pi * b.degree / b.grid_size) ** 2


def test_sphere_bracket_vertical_coordinate(basis):
    b = sup_bracket_sphere(element(basis, 1, 0))
    assert (b.grid_size, b.degree) == (16, 1)
    assert b.upper <= 1.0 / secant_squared(b) * (1 + 1e-9)
    assert b.lower >= 0.99
    assert b.lower <= 1.0 <= b.upper


def test_sphere_bracket_constant(basis):
    b = sup_bracket_sphere(element(basis, 0, 0, coeff=2.0))
    assert b.lower == pytest.approx(2.0, rel=1e-9)
    assert b.upper == pytest.approx(2.0, rel=1e-9)


def test_sphere_bracket_normalized_element(basis):
    b = sup_bracket_sphere(element(basis, 7, 5))
    assert b.grid_size == 128          # the power of two at or above 16 n = 112
    assert b.upper <= 1.0 / secant_squared(b) * (1 + 1e-9)
    assert b.upper / b.lower <= 1.0396


@pytest.mark.parametrize("m", [0, 1, 2, 5, 17, 32, 128])
def test_sphere_bracket_lone_elements(basis128, m):
    # each normalized element has sup in [norm_lower, 1], and the grid holds it
    # within the secant factor on both sides
    for l in sorted({0, 1, 2, m, 2 * m - 1, 2 * m} & set(range(2 * m + 1))):
        mu, _ = element_index(m, l)
        b = sup_bracket_sphere(element(basis128, m, l))
        assert b.grid_size >= 16 * m and b.degree == m
        cos2 = secant_squared(b)
        assert b.lower >= basis128.norm_lower[(m, mu)] * cos2 * (1 - FLOAT_GUARD), (m, l)
        assert b.upper <= (1 + FLOAT_GUARD) / cos2, (m, l)


def sphere_points(theta, phi):
    t, p = np.meshgrid(theta, phi, indexing="ij")
    return np.column_stack([(np.sin(t) * np.cos(p)).ravel(), (np.sin(t) * np.sin(p)).ravel(),
                            np.cos(t).ravel()])


def reference_values(basis, entries, pts):
    """sum c scale / (2mu-1)!! times the Legendre reference element, on |x| = 1."""
    out = np.zeros(len(pts))
    for m, l, c in entries:
        mu, kind = reference.element_kind(l)
        const = basis.scale(m, l) / reference.double_factorial(2 * mu - 1)
        out += c * const * reference.sphere_element(m, mu, kind, pts)
    return out


@st.composite
def sphere_entries(draw):
    n = draw(st.integers(0, 16))
    degrees = [n] + draw(st.lists(st.integers(0, n), min_size=1, max_size=5))
    return tuple((m, draw(st.integers(0, 2 * m)), draw(st.floats(-4.0, 4.0)))
                 for m in degrees)


@given(entries=sphere_entries(), seed=st.integers(0, 2**32 - 1))
@example(entries=((0, 0, 1.0), (1, 0, -1.0)), seed=0)     # sup 2 at the south pole only
def test_sphere_bracket_holds_reference(basis16, entries, seed):
    # the equiangular grid of 4 M >= 64 n contains the bracket's grid of M, so its
    # max is at least the grid max the lower bound rests on; no value anywhere
    # exceeds the upper bound.  tol covers the reference's own rounding.
    b = sup_bracket_sphere(SphereSeries(basis16, entries))
    tol = 1e-12 * sum(abs(c) for _, _, c in entries)
    fine = 4 * b.grid_size
    grid = sphere_points(2 * math.pi * np.arange(fine // 2 + 1) / fine,
                         2 * math.pi * np.arange(fine) / fine)
    x = np.random.default_rng(seed).standard_normal((4096, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    on_grid = np.abs(reference_values(basis16, entries, grid))
    assert b.lower <= on_grid.max() + tol
    assert on_grid.max() <= b.upper + tol
    assert np.abs(reference_values(basis16, entries, x)).max() <= b.upper + tol


# -- caps ------------------------------------------------------------------------------

def test_cap_fraction_vertical_half(basis):
    rep = cap_fraction(element(basis, 1, 0), 0.5)
    assert rep.fraction == pytest.approx(0.5, rel=0.02)


def test_cap_fraction_alpha_to_zero(basis):
    rep = cap_fraction(element(basis, 1, 0), 1e-9)
    assert rep.fraction == pytest.approx(1.0, abs=1e-9)


def test_cap_fraction_refines_toward_exact(basis):
    s = element(basis, 1, 0)
    fracs = [cap_fraction(s, 0.5, fibonacci_covering(k)).fraction
             for k in (500, 5000, 50000)]
    errs = [abs(f - 0.5) for f in fracs]
    assert errs[-1] <= errs[0]
    assert errs[-1] < 5e-3


def test_cap_stability_small(basis):
    model = make_model("rademacher")
    from growthlab import SeedSpec
    seed = SeedSpec(5)
    c_min = {}
    for n in (4, 8):
        cov = default_covering(n)
        vals = []
        for t in range(20):
            s = random_degree_combination(basis, n, model, seed, t, lane=n)
            vals.append(cap_fraction(s, 0.5, cov).c_implied)
        c_min[n] = min(vals)
        assert c_min[n] > 0
    assert c_min[8] >= c_min[4] / 2.0


def test_cap_report_row(basis):
    rep = cap_fraction(element(basis, 4, 3), 0.5)
    n, a, f, k, c = rep.row()
    assert (n, a, k) == (4, 0.5, rep.grid_K)
    assert c == pytest.approx(f * 16)


# -- evaluation against an independent reference --------------------------------------

def reference_element(m, l, scale, pts):
    """scale/(2mu-1)!! r^(m-mu) P_m^(mu)(z/r) rho^mu trig(mu phi), from numpy's Legendre series.

    Returns the values and a pointwise bound on their own rounding error: the
    Legendre coefficients of P_m^(mu) are nonnegative and sum to P_m^(mu)(1),
    so the series loses about eps P_m^(mu)(1) absolutely, which exceeds 1e-12
    of the element's sup for middle mu once m passes about 25.
    """
    mu, kind = element_index(m, l)
    x, y, z = pts.T
    r, rho, phi = np.sqrt(x * x + y * y + z * z), np.hypot(x, y), np.arctan2(y, x)
    d_mu = legendre.legder(np.eye(m + 1)[m], mu)          # coefficients of P_m^(mu)
    c = scale / float(math.prod(range(1, 2 * mu, 2)))
    outer = c * r ** (m - mu) * rho ** mu
    trig = 1.0 if kind == ZONAL else (np.cos if kind == COS else np.sin)(mu * phi)
    return outer * legendre.legval(z / r, d_mu) * trig, np.finfo(float).eps * d_mu.sum() * outer


def assert_matches_reference(series, m, l, scale, pts):
    ref, rounding = reference_element(m, l, scale, pts)
    err = np.abs(series.evaluate(pts) - ref)
    assert np.all(err <= 1e-12 * np.abs(ref).max() + rounding), (m, l)


def interior_points(rng, k, r_max=0.9):
    x = rng.standard_normal((k, 3))
    return x * (r_max * rng.uniform(0.0, 1.0, (k, 1)) ** (1 / 3)
                / np.linalg.norm(x, axis=1, keepdims=True))


def test_elements_match_legendre_reference():
    basis = build_basis(32)
    rng = np.random.default_rng(29)
    for m in range(0, 33):
        pts = np.vstack([default_covering(m).points, interior_points(rng, 512)])
        for l in range(0, 2 * m + 1):
            assert_matches_reference(element(basis, m, l), m, l, basis.scale(m, l), pts)


def test_mixed_degrees_sum_their_elements(basis):
    entries = ((0, 0, 0.5), (3, 4, -1.25), (7, 0, 0.75), (7, 13, 2.0), (3, 4, 0.5),
               (10, 20, -0.3), (10, 1, 1.1))
    pts = np.vstack([fibonacci_covering(500).points,
                     interior_points(np.random.default_rng(5), 200)])
    total = SphereSeries(basis, entries).evaluate(pts)
    parts = sum(SphereSeries(basis, (e,)).evaluate(pts) for e in entries)
    assert np.abs(total - parts).max() <= 1e-13


@pytest.mark.parametrize("K", [POINT_BLOCK - 1, POINT_BLOCK, POINT_BLOCK + 1,
                               3 * POINT_BLOCK + 5])
def test_blocks_equal_pointwise_evaluation(basis, K):
    # evaluation runs in blocks of POINT_BLOCK points and is elementwise, so
    # every value is bitwise the value of that point evaluated on its own;
    # one-point calls cost ~0.4 ms, so they cover every block edge plus a sample
    rng = np.random.default_rng(K)
    pts = np.vstack([fibonacci_covering(K - K // 3 - 1).points,
                     interior_points(rng, K // 3), np.zeros((1, 3))])
    pts = pts[rng.permutation(K)]
    entries = ((0, 0, 0.5), (2, 3, -1.25), (5, 0, 0.0), (5, 7, 0.0), (7, 13, 2.0),
               (10, 1, 1.1), (10, 20, -0.3))          # degree 5 is all zero
    series = SphereSeries(basis, entries)
    edges = np.arange(0, K + POINT_BLOCK, POINT_BLOCK)[:, None] + np.arange(-2, 2)
    idx = np.union1d(edges[(edges >= 0) & (edges < K)], rng.choice(K, 256, replace=False))
    idx = np.union1d(idx, np.flatnonzero(~pts.any(axis=1)))    # the origin
    one_by_one = np.concatenate([series.evaluate(p) for p in pts[idx]])
    assert np.array_equal(series.evaluate(pts)[idx], one_by_one)


def test_origin_is_exact(basis):
    origin = np.zeros((1, 3))
    assert SphereSeries(basis, ((0, 0, 2.5),)).evaluate(origin)[0] == 2.5 * basis.scale(0, 0)
    for m in range(1, basis.max_degree + 1):
        for l in range(0, 2 * m + 1):
            assert element(basis, m, l).evaluate(origin)[0] == 0.0


def test_degree_128_spot_check(basis128):
    # zonal and mu = 1, 2 run the downward recurrence over all 128 steps; the
    # reference's own rounding rules out middle mu at this degree.  Each spot
    # element's max over a great circle twice as dense as the profile grid,
    # through the azimuth where its trig factor is +-1, lies in [norm_lower, 1].
    m, basis = 128, basis128
    pts = fibonacci_covering(3000).points
    theta = np.linspace(0.0, 2.0 * math.pi, 2 * basis.profile_grid, endpoint=False)
    for l in (0, 1, 2, 3, 4, 251, 252, 253, 254, 255, 256):
        mu, kind = element_index(m, l)
        phi = math.pi / (2 * mu) if kind == SIN else 0.0
        circle = np.column_stack([np.sin(theta) * math.cos(phi),
                                  np.sin(theta) * math.sin(phi), np.cos(theta)])
        scale = basis.scale(m, l)
        assert_matches_reference(element(basis, m, l), m, l, scale, pts)
        assert_matches_reference(element(basis, m, l), m, l, scale, circle)
        ref, rounding = reference_element(m, l, scale, circle)
        top, tol = float(np.abs(ref).max()), float(rounding.max())
        lower = basis.norm_lower[(m, mu)]     # the normalized sup is at most 1
        assert lower - tol <= top <= 1.0 + tol, (l, top, lower)
