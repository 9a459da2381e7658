import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from growthlab import (CESARO, GrowthLabError, L1_CUM, L1_SQRT, L2_CUM, L2_LOG,
                       NuSequence, SeedSpec, block_sequence, doubling_audit,
                       hadamard_lacunary_scheme, loglog_energy_scheme, make_model,
                       make_weight, operator_norm_profile, radial_derivative, randomize,
                       riesz_lacunary_scheme, rudin_shapiro_scheme, saturating_scheme,
                       score_block_sum, score_blockwise, score_sup_ratio,
                       uniform_block_scheme, unit_series, G_OVER_SQRT_NLOGN)
from growthlab.mclab import GROWTH_CANDIDATES, random_scheme
from growthlab.schemes import scheme_from_arrays

W1 = make_weight("power", 1.0)


def blocks_pow2(k_max):
    return block_sequence(W1, 2.0, 1, k_max)


# -- cumulative scores -----------------------------------------------------------

def test_zero_scheme_scores_zero():
    z = scheme_from_arrays([], [], [], 16, {"name": "zero"})
    for kind in (L2_CUM, L1_CUM, L1_SQRT, L2_LOG):
        assert score_sup_ratio(kind, z, W1).score == 0.0


def test_hadamard_l1_cum_geometric_bound():
    s = hadamard_lacunary_scheme(blocks_pow2(16))
    rep = score_sup_ratio(L1_CUM, s, W1)
    assert rep.score <= 2.0
    assert rep.score == pytest.approx(2.0 - 2.0**-16, rel=1e-12)


def test_hadamard_l2_cum_exact_formula():
    K = 16
    s = hadamard_lacunary_scheme(blocks_pow2(K))
    rep = score_sup_ratio(L2_CUM, s, W1)
    expect = math.sqrt((4.0 ** (K + 1) - 1) / 3.0) / 2.0**K
    assert rep.score == pytest.approx(expect, abs=1e-12)
    assert rep.witness == 2**K


def test_loglog_l2_log_trend_separation():
    s = loglog_energy_scheme(4)
    sqrt_log = make_weight("logpower", 0.5)
    rep1 = score_sup_ratio(L2_LOG, s, sqrt_log)
    rep2 = score_sup_ratio(L2_LOG, s, GROWTH_CANDIDATES["sqrt_log_loglog"])
    by_n1 = {c.n: c.ratio for c in rep1.checkpoints}
    by_n2 = {c.n: c.ratio for c in rep2.checkpoints}
    # against sqrt(log): grows like sqrt(log log n)
    assert by_n1[65536] / by_n1[16] >= 1.5
    # against sqrt(log loglog): flat at the block scales
    assert by_n2[65536] / by_n2[16] <= 1.1


def test_empty_range():
    s = loglog_energy_scheme(1)
    with pytest.raises(GrowthLabError) as ei:
        score_sup_ratio(L2_CUM, s, W1, n_max=0)
    assert ei.value.code == "EMPTY_RANGE"


@given(n1=st.integers(4, 60), n2=st.integers(61, 200))
@settings(max_examples=15)
def test_monotone_consistency_in_n_max(n1, n2):
    s = random_scheme(SeedSpec(3), 1, 200)
    for kind in (L2_CUM, L1_SQRT):
        a = score_sup_ratio(kind, s, W1, n_max=n1).score
        b = score_sup_ratio(kind, s, W1, n_max=n2).score
        assert b >= a - 1e-15


# -- block scores -------------------------------------------------------------------

def test_block_sum_single_block_reduction():
    b = block_sequence(W1, 8.0, 1, 1)
    s = uniform_block_scheme(b, G_OVER_SQRT_NLOGN)
    rep = score_block_sum(s, b, W1)
    n1 = b.n[1]
    S1 = float(np.sum(s.magnitudes() ** 2))
    expect = math.sqrt(S1 * math.log(n1)) / n1
    assert rep.score == pytest.approx(expect, rel=1e-12)


def test_block_sum_zero_scheme():
    b = blocks_pow2(4)
    z = scheme_from_arrays([], [], [], b.n[-1], {"name": "zero"})
    assert score_block_sum(z, b, W1).score == 0.0


def test_block_sum_loglog_bounded_against_sqrt_log():
    s = loglog_energy_scheme(4)
    b = block_sequence(make_weight("logpower", 1.0, 2.0), 2.0, 2, 4)
    rep = score_block_sum(s, b, make_weight("logpower", 0.5))
    # geometric prefix: increments shrink, score stays under the series limit
    ratios = rep.ratios()
    increments = np.diff(ratios)
    assert np.all(increments[1:] <= increments[:-1] + 1e-12)
    assert rep.score <= 3.5


def test_blocks_too_short():
    s = loglog_energy_scheme(3)
    b = blocks_pow2(3)   # reaches 8 < 256
    with pytest.raises(GrowthLabError) as ei:
        score_block_sum(s, b, W1)
    assert ei.value.code == "BLOCKS_TOO_SHORT"


def test_blockwise_uniform_rule_at_most_one():
    b = blocks_pow2(12)
    s = uniform_block_scheme(b, G_OVER_SQRT_NLOGN)
    rep = score_blockwise(s, b, W1)
    assert rep.score <= 1.0 + 1e-9
    tail = [r.ratio for r in rep.rows if r.n_k >= 8]
    assert np.allclose(tail, 1.0 / math.sqrt(2.0), rtol=1e-12)


def test_blockwise_saturating_exact_row_values():
    b = blocks_pow2(10)
    nu = NuSequence("sqrt")
    s = saturating_scheme(b, nu)
    rep = score_blockwise(s, b, W1)
    for r in rep.rows:
        k = r.k
        lo, hi = b.n[k - 1], b.n[k]
        if hi <= 2:
            continue   # zeroed low block
        expect = float(nu.at(k - 1)) * math.sqrt(1.0 - lo / hi)
        assert r.ratio == pytest.approx(expect, rel=1e-9)
    ratios = [r.ratio for r in rep.rows]
    assert ratios[-1] / max(ratios[1], 1e-12) >= 2.0   # unbounded trend in nu


def test_bloch_preset_target_column():
    # w(r) = (1-r)^alpha: blockwise bound column is proportional to 2^(alpha k)/sqrt(k)
    alpha = 1.0
    g = make_weight("power", alpha)     # the growth weight 1/w
    b = blocks_pow2(12)
    s = rudin_shapiro_scheme(b)
    rep = score_blockwise(radial_derivative(s), b, g)
    # the log clamp max(1, ln n_k) only bites at n_k <= 2, so start at k = 2
    consts = [r.rhs * math.sqrt(r.k * math.log(2.0)) / 2.0 ** (alpha * r.k)
              for r in rep.rows if r.n_k >= 3]
    assert np.allclose(consts, consts[0], rtol=1e-12)


def test_block_sum_vs_blockwise_cross_check():
    # block_sum <= 2 D A * blockwise on the builtin block-based schemes
    b = blocks_pow2(10)
    D = doubling_audit(W1, float(b.n[-1])).d_hat
    A = b.ratio_a
    for scheme in (uniform_block_scheme(b, G_OVER_SQRT_NLOGN),
                   saturating_scheme(b, NuSequence("log")),
                   rudin_shapiro_scheme(b),
                   hadamard_lacunary_scheme(b)):
        bs = score_block_sum(scheme, b, W1)
        bw = score_blockwise(scheme, b, W1)
        assert bs.score <= 2.0 * D * A * bw.score + 1e-12


def test_c1_hat_for_powers_of_two():
    b = blocks_pow2(6)
    s = hadamard_lacunary_scheme(b)
    rep = score_block_sum(s, b, W1)
    assert rep.c1_hat == pytest.approx(2.0)


# -- operator norms -------------------------------------------------------------------

def test_operator_profile_zero_series():
    z = scheme_from_arrays([], [], [], 8, {"name": "zero"})
    prof = operator_norm_profile(unit_series(z), W1, ns=[2, 4, 8])
    assert all(r.lower == 0.0 for r in prof.rows)


def test_operator_profile_hadamard_bounded():
    b = blocks_pow2(9)
    s = hadamard_lacunary_scheme(b)
    prof = operator_norm_profile(unit_series(s), W1, ns=b, which=CESARO, refine=False)
    ratios = np.array([r.ratio_lower for r in prof.rows])
    assert np.max(ratios) <= 3.0
    assert ratios[-1] <= 1.5 * ratios[len(ratios) // 2]


def test_operator_profile_riesz_growing_trend():
    b = block_sequence(W1, 4.0, 2, 4)
    s = riesz_lacunary_scheme(b, NuSequence("sqrt"))
    prof = operator_norm_profile(unit_series(s), W1, ns=list(b.n[1:]),
                                 which=CESARO, refine=False)
    ratios = np.array([r.ratio_lower for r in prof.rows])
    assert np.all(np.diff(ratios) > 0)
    assert ratios[-1] / ratios[0] >= 2.0
    # a couple of random sign choices keep the growth
    for trial in range(2):
        ser = randomize(s, make_model("rademacher"), SeedSpec(3), trial)
        rows = operator_norm_profile(ser, W1, ns=list(b.n[1:]), which=CESARO,
                                     refine=False).rows
        rr = [r.ratio_lower for r in rows]
        assert rr[-1] / rr[0] >= 1.5


def test_partial_sum_log_factor_profile():
    # partial sums of the sign-flattened scheme stay within C g(n) log n
    b = blocks_pow2(8)
    s = rudin_shapiro_scheme(b)
    from growthlab import PARTIAL
    prof = operator_norm_profile(unit_series(s), W1, ns=b, which=PARTIAL, refine=False)
    for r in prof.rows:
        assert r.upper <= 6.0 * r.g * max(1.0, math.log(r.n))
