import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from growthlab import (G_OVER_N, G_OVER_SQRT_N, G_OVER_SQRT_NLOGN, GrowthLabError,
                       NuSequence, block_sequence, hadamard_lacunary_scheme,
                       loglog_energy_scheme, make_weight, radial_derivative,
                       riesz_lacunary_scheme,
                       rudin_shapiro_scheme, rudin_shapiro_signs, saturating_scheme,
                       scheme_from_csv, uniform_block_scheme)
from growthlab import schemes
from growthlab.schemes import SCHEMES, scheme_from_provenance

W1 = make_weight("power", 1.0)


def blocks_pow2(k_max, n0=1):
    return block_sequence(W1, 2.0, n0, k_max)


def block_slice(scheme, lo, hi):
    mask = (scheme.support > lo) & (scheme.support <= hi)
    return scheme.magnitudes()[mask]


# -- uniform block rules ------------------------------------------------------

def test_uniform_rule_values():
    b = blocks_pow2(3)
    assert np.allclose(block_slice(uniform_block_scheme(b, G_OVER_N), 2, 4), 1.0)
    assert np.allclose(block_slice(uniform_block_scheme(b, G_OVER_SQRT_N), 2, 4), 2.0)
    expected = 4.0 / math.sqrt(4.0 * max(1.0, math.log(4.0)))
    assert np.allclose(block_slice(uniform_block_scheme(b, G_OVER_SQRT_NLOGN), 2, 4),
                       expected)


def test_uniform_rule_ordering():
    # per-index magnitudes satisfy rule I <= II <= III once n_k >= 3
    b = blocks_pow2(10)
    s1 = uniform_block_scheme(b, G_OVER_N).magnitudes()
    s2 = uniform_block_scheme(b, G_OVER_SQRT_NLOGN).magnitudes()
    s3 = uniform_block_scheme(b, G_OVER_SQRT_N).magnitudes()
    sup = uniform_block_scheme(b, G_OVER_N).support
    mask = sup >= 3
    assert np.all(s1[mask] <= s2[mask] * (1 + 1e-12))
    assert np.all(s2[mask] <= s3[mask] * (1 + 1e-12))


def test_uniform_fill_both():
    b = blocks_pow2(3)
    s = uniform_block_scheme(b, G_OVER_N, fill_both=True)
    assert np.array_equal(s.cos_coeffs, s.sin_coeffs)


def test_uniform_empty_blocks():
    w = make_weight("power", 1.0)
    b = block_sequence(w, 2.0, 1, 1)
    shrunk = type(b)(weight=b.weight, ratio_a=b.ratio_a, n=(1,))
    with pytest.raises(GrowthLabError) as ei:
        uniform_block_scheme(shrunk, G_OVER_N)
    assert ei.value.code == "EMPTY_BLOCKS"


# -- loglog energy scheme -----------------------------------------------------

def test_loglog_k1():
    s = loglog_energy_scheme(1)
    assert list(s.support) == [3, 4]
    assert np.allclose(s.cos_coeffs, 0.5)
    assert np.all(s.sin_coeffs == 0)


def test_loglog_square_sum():
    s = loglog_energy_scheme(3)
    assert np.sum(s.magnitudes() ** 2) == pytest.approx(2.1875, abs=1e-12)


def test_loglog_zero_and_budget():
    assert loglog_energy_scheme(0).size == 0
    with pytest.raises(GrowthLabError) as ei:
        loglog_energy_scheme(5)
    assert ei.value.code == "DEGREE_BUDGET"


# -- riesz lacunary -----------------------------------------------------------

def test_riesz_support_and_value():
    b = block_sequence(W1, 4.0, 2, 1)
    assert b.n == (2, 8)
    s = riesz_lacunary_scheme(b, NuSequence("constant"))
    assert list(s.support) == [3, 6]
    assert s.cos_coeffs[0] == pytest.approx(8.0 / math.log(8.0), rel=1e-12)


def test_riesz_needs_factor_four():
    b = blocks_pow2(3)
    with pytest.raises(GrowthLabError) as ei:
        riesz_lacunary_scheme(b, NuSequence("constant"))
    assert ei.value.code == "RATIO_TOO_SMALL"


def test_riesz_comb_inside_blocks():
    b = block_sequence(W1, 4.0, 2, 5)
    s = riesz_lacunary_scheme(b, NuSequence("log"))
    edges = np.asarray(b.n)
    ks = np.searchsorted(edges, s.support, side="left")
    lo = edges[ks - 1]
    assert np.all(s.support > lo) and np.all(s.support <= edges[ks])
    # support offsets are powers of four
    offs = s.support - lo
    assert all(4 ** int(round(math.log(o, 4))) == o for o in offs)


def test_riesz_block_l2_meets_blockwise_budget():
    b = block_sequence(W1, 4.0, 2, 6)
    nu = NuSequence("sqrt")
    s = riesz_lacunary_scheme(b, nu)
    for k in range(1, len(b.n)):
        mags = block_slice(s, b.n[k - 1], b.n[k])
        l2 = math.sqrt(np.sum(mags**2))
        budget = float(nu.at(k - 1)) * b.n[k] / math.sqrt(math.log(b.n[k]))
        assert l2 <= 1.1 * budget


# -- saturating ----------------------------------------------------------------

def test_saturating_reduces_to_uniform_with_constant_nu():
    b = blocks_pow2(8)
    sat = saturating_scheme(b, NuSequence("constant"))
    uni = uniform_block_scheme(b, G_OVER_SQRT_NLOGN)
    keep = uni.support > 2
    assert np.array_equal(sat.support, uni.support[keep])
    assert np.allclose(sat.cos_coeffs, uni.cos_coeffs[keep], rtol=1e-15)


def test_saturating_frozen_value():
    # block (4, 8] of n_k = 2^k with nu = sqrt carries nu(2) g(8)/sqrt(8 log 8)
    b = blocks_pow2(10)
    sat = saturating_scheme(b, NuSequence("sqrt"))
    vals = block_slice(sat, 4, 8)
    expect = math.sqrt(3.0) * 8.0 / math.sqrt(8.0 * math.log(8.0))
    assert expect == pytest.approx(3.3972872011520763, rel=1e-12)
    assert np.allclose(vals, expect, rtol=1e-12)


def test_saturating_block_l2_display():
    b = blocks_pow2(10)
    nu = NuSequence("constant")
    sat = saturating_scheme(b, nu)
    for k in range(3, 11):
        lo, hi = b.n[k - 1], b.n[k]
        l2 = math.sqrt(np.sum(block_slice(sat, lo, hi) ** 2))
        assert l2 <= hi / math.sqrt(math.log(hi)) * (1 + 1e-12)


# -- rudin-shapiro -------------------------------------------------------------

def test_grs_signs_first_eight():
    assert list(rudin_shapiro_signs(8)) == [1, 1, 1, -1, 1, 1, -1, 1]
    assert list(rudin_shapiro_signs(1)) == [1]


def test_grs_recursion_oracle():
    # classical identities: eps(2j) = eps(j), eps(2j+1) = (-1)^j eps(j)
    n = 4096
    eps = rudin_shapiro_signs(2 * n)
    j = np.arange(n)
    assert np.array_equal(eps[2 * j], eps[j])
    assert np.array_equal(eps[2 * j + 1], eps[j] * np.where(j % 2 == 0, 1, -1))


def test_rudin_shapiro_magnitudes_and_l2():
    b = blocks_pow2(10)
    s = rudin_shapiro_scheme(b)
    gs = b.g_values()
    for k in range(1, 11):
        lo, hi = b.n[k - 1], b.n[k]
        mags = block_slice(s, lo, hi)
        assert np.allclose(mags, gs[k] / math.sqrt(hi - lo), rtol=1e-12)
        assert np.sum(mags**2) == pytest.approx(gs[k] ** 2, rel=1e-12)


def test_rudin_shapiro_needs_doubling():
    b = block_sequence(W1, 1.5, 8, 3)
    assert any(b.n[k + 1] < 2 * b.n[k] for k in range(len(b.n) - 1))
    with pytest.raises(GrowthLabError) as ei:
        rudin_shapiro_scheme(b)
    assert ei.value.code == "RATIO_TOO_SMALL"


def test_single_block_is_scaled_grs_segment():
    b = block_sequence(W1, 8.0, 1, 1)
    s = rudin_shapiro_scheme(b)
    m = b.n[1] - b.n[0]
    expect = rudin_shapiro_signs(m) * (b.n[1] / math.sqrt(m))
    assert np.allclose(s.cos_coeffs, expect, rtol=1e-15)


# -- hadamard -------------------------------------------------------------------

def test_hadamard_values_and_limsup():
    b = blocks_pow2(12)
    s = hadamard_lacunary_scheme(b)
    assert list(s.support) == list(b.n)
    assert np.allclose(s.cos_coeffs, np.asarray(b.n, dtype=float))
    assert s.size == 13
    # limsup |a_j| / g(j) = 1 along j = n_k
    assert np.max(s.magnitudes() / np.asarray(b.n, dtype=float)) == 1.0


# -- serialization and provenance ------------------------------------------------

PROVENANCE_CASES = [
    lambda: loglog_energy_scheme(3),
    lambda: uniform_block_scheme(blocks_pow2(6), G_OVER_SQRT_NLOGN),
    lambda: saturating_scheme(blocks_pow2(6), NuSequence("sqrt")),
    lambda: riesz_lacunary_scheme(block_sequence(W1, 4.0, 2, 4), NuSequence("log")),
    lambda: rudin_shapiro_scheme(blocks_pow2(6)),
    lambda: hadamard_lacunary_scheme(blocks_pow2(6)),
    lambda: uniform_block_scheme(blocks_pow2(5), G_OVER_N, fill_both=True),
    lambda: saturating_scheme(blocks_pow2(5), NuSequence("constant", c=2.5)),
    lambda: uniform_block_scheme(blocks_pow2(7, n0=3), G_OVER_SQRT_N),
]


@pytest.mark.parametrize("build", PROVENANCE_CASES)
def test_provenance_regenerates_bit_exactly(build):
    # the cases cover every name in the scheme registry
    assert set(SCHEMES) <= {case().provenance["name"] for case in PROVENANCE_CASES}
    s = build()
    s2 = scheme_from_provenance(s.provenance)
    assert np.array_equal(s.support, s2.support)
    assert np.array_equal(s.cos_coeffs, s2.cos_coeffs)
    assert np.array_equal(s.sin_coeffs, s2.sin_coeffs)
    assert s2.provenance == s.provenance


@pytest.mark.parametrize("prov, missing", [
    ({"name": "loglog"}, "k_max"),
    ({"name": "uniform"}, "blocks, rule"),
    ({"name": "saturating", "blocks": {}}, "nu"),
])
def test_provenance_missing_fields(prov, missing):
    with pytest.raises(GrowthLabError) as ei:
        scheme_from_provenance(prov)
    assert ei.value.code == "CONFIG_INVALID"
    assert str(ei.value).endswith(missing)


@pytest.mark.parametrize("prov", [[1], "loglog", None, 3])
def test_provenance_not_an_object_rejected(prov):
    # each raised a bare AttributeError from inside the decoder's own handler
    with pytest.raises(GrowthLabError) as ei:
        scheme_from_provenance(prov)
    assert ei.value.code == "CONFIG_INVALID"
    assert "JSON object" in str(ei.value)


def test_provenance_fill_both_optional():
    s = uniform_block_scheme(blocks_pow2(4), G_OVER_N)
    prov = {k: v for k, v in s.provenance.items() if k != "fill_both"}
    assert np.array_equal(scheme_from_provenance(prov).cos_coeffs, s.cos_coeffs)


def test_csv_round_trip_lossless():
    s = saturating_scheme(blocks_pow2(5), NuSequence("sqrt"))
    s2 = scheme_from_csv(s.to_csv())
    assert np.array_equal(s.support, s2.support)
    assert np.array_equal(s.cos_coeffs, s2.cos_coeffs)
    assert s2.max_degree == s.max_degree
    assert s2.provenance == s.provenance


@given(k_max=st.integers(0, 4))
def test_loglog_provenance_property(k_max):
    s = loglog_energy_scheme(k_max)
    s2 = scheme_from_provenance(s.provenance)
    assert np.array_equal(s.cos_coeffs, s2.cos_coeffs)


def test_nu_sequences():
    nu = NuSequence("sqrt")
    assert nu.at(0) == 1.0
    assert nu.at(3) == 2.0
    assert NuSequence("log").at(0) == pytest.approx(math.log(2.0))
    assert NuSequence("constant", c=2.5).at(7) == 2.5
    vals = NuSequence("log").at(np.arange(50))
    assert np.all(np.diff(vals) > 0)


def test_riesz_degenerate_blocks_empty_support():
    from growthlab.weights import BlockSequence
    trivial = BlockSequence(weight=W1, ratio_a=4.0, n=(2,))
    s = riesz_lacunary_scheme(trivial, NuSequence("constant"))
    assert s.size == 0


# -- size budget ------------------------------------------------------------------

SPAN_BUDGETED = {
    "uniform": lambda b: uniform_block_scheme(b, G_OVER_N),
    "saturating": lambda b: saturating_scheme(b, NuSequence("log")),
    "riesz_lacunary": lambda b: riesz_lacunary_scheme(b, NuSequence("constant")),
    "rudin_shapiro": rudin_shapiro_scheme,
}


@pytest.mark.parametrize("name", sorted(SPAN_BUDGETED))
def test_span_budget_checked_before_building(name, monkeypatch):
    # the limit is lowered so that both sides of the boundary stay small
    b = block_sequence(W1, 4.0, 1, 5)          # n = 1, 4, ..., 1024: span 1023
    monkeypatch.setattr(schemes, "MAX_SCHEME_SPAN", 1023)
    assert SPAN_BUDGETED[name](b).max_degree == 1024
    monkeypatch.setattr(schemes, "MAX_SCHEME_SPAN", 1022)
    with pytest.raises(GrowthLabError) as ei:
        SPAN_BUDGETED[name](b)
    assert ei.value.code == "DEGREE_BUDGET"
    assert name in str(ei.value)


def test_hadamard_is_not_span_budgeted(monkeypatch):
    monkeypatch.setattr(schemes, "MAX_SCHEME_SPAN", 1)
    assert hadamard_lacunary_scheme(blocks_pow2(10)).size == 11


def test_dense_magnitudes_budget_checked_before_allocating(monkeypatch):
    sch = hadamard_lacunary_scheme(blocks_pow2(10))          # degree 1024
    monkeypatch.setattr(schemes, "MAX_SCHEME_SPAN", 1024)
    assert len(sch.dense_magnitudes()) == 1025
    monkeypatch.setattr(schemes, "MAX_SCHEME_SPAN", 1023)
    with pytest.raises(GrowthLabError) as ei:
        sch.dense_magnitudes()
    assert ei.value.code == "DEGREE_BUDGET"
    assert len(sch.dense_magnitudes(1023)) == 1024


@pytest.mark.parametrize("support", [[-200, 3], [-1], [0, 5, -3]])
def test_negative_support_rejected(support):
    # a bracket takes its degree from the last index: [-200, 3] with sin 0.3 on -200
    # bracketed upper = 2.0219 below the dense sup 2.0440 at oversample 4
    n = len(support)
    with pytest.raises(GrowthLabError) as ei:
        schemes.scheme_from_arrays(support, np.ones(n), np.full(n, 0.3), 3, {"name": "t"})
    assert ei.value.code == "DOMAIN"
    with pytest.raises(GrowthLabError) as ei:
        schemes.scheme_from_csv("j,cos,sin\n" + "".join(f"{j},1.0,0.3\n" for j in support))
    assert ei.value.code == "DOMAIN"


@pytest.mark.parametrize("support", [[3, 3], [5, 0, 5], [1, 2, 2, 7]])
def test_repeated_support_rejected(support):
    # [3, 3] meant 2 cos 3t to a bracket, one entry to dense_magnitudes and
    # a square-sum of 2 to the block scores
    n = len(support)
    with pytest.raises(GrowthLabError) as ei:
        schemes.scheme_from_arrays(support, np.ones(n), np.zeros(n), 7, {"name": "t"})
    assert ei.value.code == "DOMAIN"
    with pytest.raises(GrowthLabError) as ei:
        schemes.scheme_from_csv("j,a_j0,a_j1\n" + "".join(f"{j},1.0,0.0\n" for j in support))
    assert ei.value.code == "DOMAIN"


@pytest.mark.parametrize("prov, unread", [
    # a stray block sequence once set the ensemble radii of a loglog scheme
    ({"name": "loglog", "k_max": 3,
      "blocks": {"weight": {"family": "power", "alpha": 1.0}, "A": 2.0, "n": [1, 2, 4, 8]}},
     "blocks"),
    ({"name": "hadamard", "blocks": {"weight": {"family": "power", "alpha": 1.0}, "A": 2.0,
                                     "n": [1, 2, 4]}, "nu": "sqrt", "rule": "bogus"},
     "nu, rule"),
])
def test_provenance_unread_fields_rejected(prov, unread):
    with pytest.raises(GrowthLabError) as ei:
        scheme_from_provenance(prov)
    assert ei.value.code == "CONFIG_INVALID"
    assert str(ei.value).endswith(f"does not read {unread}")


def test_nested_objects_take_only_their_own_keys():
    assert schemes.nu_from_json({"kind": "constant", "c": 2.0}).at(0) == 2.0
    good = uniform_block_scheme(blocks_pow2(3), G_OVER_N).provenance["blocks"]
    assert schemes.blocks_from_provenance(good).n == (1, 2, 4, 8)
    for decode, d in ((schemes.nu_from_json, {"kind": "log", "c": 2}),
                      (schemes.nu_from_json, {"kind": "sqrt", "foo": 1}),
                      (schemes.blocks_from_provenance, dict(good, k_max=3))):
        with pytest.raises(GrowthLabError) as ei:
            decode(d)
        assert ei.value.code == "CONFIG_INVALID"


def test_radial_derivative_scales_by_degree():
    base = schemes.scheme_from_arrays([0, 3, 7], [2.0, 0.5, -1.0], [1.0, 0.0, 0.25], 9,
                                      {"name": "base"})
    d = radial_derivative(base)
    assert np.array_equal(d.support, base.support) and d.max_degree == 9
    assert d.cos_coeffs.tolist() == [0.0, 1.5, -7.0]       # j a_j0, 0 at j = 0
    assert d.sin_coeffs.tolist() == [0.0, 0.0, 1.75]       # j a_j1
    assert d.provenance == {"name": "radial_derivative", "base": {"name": "base"}}
    assert "radial_derivative" not in SCHEMES
