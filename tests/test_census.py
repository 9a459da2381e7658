import math

import numpy as np
import pytest

from growthlab import (GrowthLabError, L1_SQRT, NuSequence, block_sequence,
                       coefficient_census, doubling_audit, hadamard_lacunary_scheme,
                       liminf_profile, make_weight, radial_derivative,
                       rudin_shapiro_scheme, score_sup_ratio, uniform_block_scheme,
                       G_OVER_SQRT_NLOGN)
from growthlab.schemes import scheme_from_arrays

W1 = make_weight("power", 1.0)


def blocks_pow2(k_max):
    return block_sequence(W1, 2.0, 1, k_max)


# -- liminf profile -----------------------------------------------------------------

def test_liminf_hadamard_is_zero():
    b = blocks_pow2(10)
    rep = liminf_profile(hadamard_lacunary_scheme(b), b, W1)
    assert rep.proxy == 0.0


def test_liminf_rudin_shapiro_positive_and_stable():
    b = blocks_pow2(16)
    rep = liminf_profile(rudin_shapiro_scheme(b), b, W1)
    assert rep.proxy == pytest.approx(math.sqrt(2.0), rel=1e-12)
    mins = [r.running_min for r in rep.rows]
    assert all(m >= math.sqrt(2.0) - 1e-9 for m in mins)


def test_liminf_all_equal_scheme_decays():
    b = blocks_pow2(14)
    N = b.n[-1]
    j = np.arange(2, N + 1)
    s = scheme_from_arrays(j, np.ones(len(j)), np.zeros(len(j)), N, {"name": "ones"})
    rep = liminf_profile(s, b, W1)
    # min inside block k sits at j = n_k: sqrt(n_k)/n_k = 1/sqrt(n_k) -> 0
    assert rep.proxy == pytest.approx(1.0 / math.sqrt(N), rel=1e-12)
    assert rep.proxy < 0.02


def test_liminf_running_min_non_increasing():
    b = blocks_pow2(12)
    rep = liminf_profile(rudin_shapiro_scheme(b), b, W1)
    mins = [r.running_min for r in rep.rows]
    assert all(b <= a + 1e-15 for a, b in zip(mins, mins[1:]))


def test_liminf_blocks_too_short():
    b = blocks_pow2(3)
    s = rudin_shapiro_scheme(blocks_pow2(5))
    with pytest.raises(GrowthLabError) as ei:
        liminf_profile(s, b, W1)
    assert ei.value.code == "BLOCKS_TOO_SHORT"


def test_liminf_bloch_form():
    b = blocks_pow2(8)
    s = rudin_shapiro_scheme(b)
    # w = (1-r) is scored as the growth weight 1/w = power:1 of the derivative
    rep = liminf_profile(radial_derivative(s), b, W1)
    # j w(1-1/j) = 1, so the value is |a_j| sqrt(n_k); the running min sits
    # in block 1 at |a_2| sqrt(n_1) = 2 sqrt(2)
    assert rep.proxy == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)


# -- census ----------------------------------------------------------------------------

def test_census_zero_scheme_all_pass():
    z = scheme_from_arrays([], [], [], 64, {"name": "zero"})
    rep = coefficient_census(z, W1, NuSequence("log"), 64)
    assert all(r.fraction == 1.0 for r in rep.rows)


def test_census_rudin_shapiro_trend():
    b = blocks_pow2(16)
    s = rudin_shapiro_scheme(b)
    rep = coefficient_census(s, W1, NuSequence("log"), 2**16)
    fr = {r.n: r.fraction for r in rep.rows}
    assert fr[2**16] >= 0.9
    dyadic = [r.fraction for r in rep.rows if r.n >= 2]
    assert all(b >= a - 1e-15 for a, b in zip(dyadic, dyadic[1:]))


def test_census_maximal_growth_scheme_fails():
    N = 2**12
    j = np.arange(1, N + 1)
    s = scheme_from_arrays(j, j.astype(float), np.zeros(len(j)), N, {"name": "max"})
    rep = coefficient_census(s, W1, NuSequence("log"), N)
    assert rep.rows[-1].fraction < 0.01


def test_census_counts_non_decreasing():
    b = blocks_pow2(12)
    s = rudin_shapiro_scheme(b)
    rep = coefficient_census(s, W1, NuSequence("log"), 2**12)
    counts = [r.N_n for r in rep.rows]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert all(0.0 <= r.fraction <= 1.0 for r in rep.rows)


def test_census_block_bound_mirror():
    # N(n)/n >= 1 - 4 D C / p(sqrt(n)) with C the l1_sqrt score and D the audit
    p = NuSequence("log")
    for scheme_build in (lambda b: rudin_shapiro_scheme(b),
                         lambda b: uniform_block_scheme(b, G_OVER_SQRT_NLOGN),
                         lambda b: hadamard_lacunary_scheme(b)):
        b = blocks_pow2(14)
        s = scheme_build(b)
        C = score_sup_ratio(L1_SQRT, s, W1).score
        D = doubling_audit(W1, float(b.n[-1])).d_hat
        rep = coefficient_census(s, W1, p, b.n[-1])
        for r in rep.rows:
            if r.n >= 4:
                bound = 1.0 - 4.0 * D * C / float(p.at(math.sqrt(r.n)))
                assert r.fraction >= bound - 1e-12


def test_census_bloch_form_threshold():
    # bloch threshold with w = (1-r)^1 bounds j |a_j| by p_j g(j) / sqrt(j), with
    # g = 1/w = power:1: N times the bound p_j g(j) / (j sqrt(j)) on |a_j|
    N = 256
    j = np.arange(1, N + 1)
    s = scheme_from_arrays(j, np.full(len(j), 0.01), np.zeros(len(j)), N, {"name": "c"})
    rep = coefficient_census(radial_derivative(s), W1, NuSequence("log"), N)
    expect = math.log(N + 2.0) * N / math.sqrt(N)
    assert rep.rows[-1].threshold_at_n == pytest.approx(expect, rel=1e-12)
    assert [r.fraction for r in rep.rows] == [1.0] * len(rep.rows)
