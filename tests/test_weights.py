import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from growthlab import (GrowthLabError, block_sequence,
                       doubling_audit, eval_g, eval_v, eval_w, make_weight,
                       parse_weight_spec, weight_from_json, weight_to_json)
from growthlab.weights import N_BUDGET


def test_power_weight_basics():
    w = make_weight("power", 1.0)
    assert eval_g(w, 4.0) == 4.0
    assert w.known_doubling == 2.0
    assert eval_v(w, 0.5) == pytest.approx(2.0)


def test_power_consistency_identity():
    w = make_weight("power", 1.0)
    assert eval_g(w, 10.0) == pytest.approx(10.0)
    assert eval_v(w, 0.9) == pytest.approx(10.0, rel=1e-9)


def test_logpower_closed_form():
    w = make_weight("logpower", 1.0)
    assert eval_g(w, math.e**3) == pytest.approx(3.0, rel=1e-12)
    # clamp at small x
    assert eval_g(w, 1.0) == 1.0
    assert eval_g(w, 2.0) == 1.0


def test_logpower_tower_growth():
    w = make_weight("logpower", 1.0)
    for k in range(1, 5):
        assert eval_g(w, 2.0 ** (2**k)) == pytest.approx(2**k * math.log(2), rel=1e-12)


def test_sqrt_power_doubling_ratio_on_grid():
    w = make_weight("power", 0.5)
    xs = np.geomspace(1, 1e6, 2000)
    ratios = eval_g(w, 2 * xs) / eval_g(w, xs)
    assert np.allclose(ratios, math.sqrt(2), rtol=1e-12)


def test_non_positive_exponent():
    with pytest.raises(GrowthLabError) as ei:
        make_weight("power", 0.0)
    assert ei.value.code == "NON_POSITIVE_EXPONENT"


def test_domain_errors():
    w = make_weight("power", 1.0)
    with pytest.raises(GrowthLabError):
        eval_g(w, 0.5)
    with pytest.raises(GrowthLabError):
        eval_v(w, 1.0)
    with pytest.raises(GrowthLabError):
        eval_v(w, -0.1)


def test_bit_exact_identity_on_dyadic_x():
    # r = 1 - 1/x round-trips exactly for x = 2^k
    for w in (make_weight("power", 1.5), make_weight("logpower", 2.0)):
        for k in range(1, 40):
            x = float(2**k)
            assert eval_v(w, 1.0 - 1.0 / x) == eval_g(w, x)


def test_doubling_audit_power():
    aud = doubling_audit(make_weight("power", 2.0), 1e6)
    assert aud.d_hat == pytest.approx(4.0, abs=1e-9)


def test_doubling_audit_single_point():
    aud = doubling_audit(make_weight("power", 1.0), 2.0)
    assert aud.d_hat == pytest.approx(2.0)
    assert aud.worst_x == 1.0


@pytest.mark.parametrize("x_max", [float("nan"), float("inf"), 1.5])
def test_doubling_audit_needs_finite_x_max(x_max):
    with pytest.raises(GrowthLabError) as ei:
        doubling_audit(make_weight("power", 1.0), x_max)
    assert ei.value.code == "DOMAIN"


def test_weight_parameters_finite():
    for alpha in (float("inf"), float("nan")):
        with pytest.raises(GrowthLabError) as ei:
            make_weight("power", alpha)
        assert ei.value.code == "NON_POSITIVE_EXPONENT"
    with pytest.raises(GrowthLabError) as ei:
        make_weight("logpower", 1.0, float("inf"))
    assert ei.value.code == "CONFIG_INVALID"


def test_doubling_audit_logpower_worst_near_min():
    aud = doubling_audit(make_weight("logpower", 1.0), 1e6)
    assert aud.d_hat <= 2.0
    # ratio maximized where the clamp releases, near x = e
    assert aud.worst_x < 10.0
    assert aud.d_hat == pytest.approx(1.0 + math.log(2), rel=1e-3)


def test_block_sequence_powers_of_two():
    w = make_weight("power", 1.0)
    b = block_sequence(w, 2.0, 1, 20)
    assert b.n == tuple(2**k for k in range(21))


def test_block_sequence_tower():
    w = make_weight("logpower", 1.0, 2.0)
    b = block_sequence(w, 2.0, 2, 4)
    assert b.n == (2, 4, 16, 256, 65536)


def test_block_sequence_ratio_too_small():
    w = make_weight("power", 1.0)
    for A in (1.0, 0.5, math.nan):
        with pytest.raises(GrowthLabError) as ei:
            block_sequence(w, A, 1, 10)
        assert ei.value.code == "RATIO_TOO_SMALL"


def test_block_sequence_overflow():
    w = make_weight("logpower", 1.0)
    with pytest.raises(GrowthLabError) as ei:
        block_sequence(w, 3.0, 2, 40)
    assert ei.value.code == "OVERFLOW"


def test_block_sequence_exact_up_to_2_53():
    # 3^33 < 2^53 < 3^34: floats hold every index up to 3^33 exactly
    w = make_weight("power", 1.0)
    assert block_sequence(w, 3.0, 1, 33).n == tuple(3**k for k in range(34))
    with pytest.raises(GrowthLabError) as ei:
        block_sequence(w, 3.0, 1, 34)
    assert ei.value.code == "OVERFLOW"


@given(alpha=st.floats(0.5, 3.0), a=st.floats(1.2, 4.0),
       n0=st.integers(1, 5), k_max=st.integers(1, 10))
def test_block_sequence_exact_minimality(alpha, a, n0, k_max):
    w = make_weight("power", alpha)
    b = block_sequence(w, a, n0, k_max)
    for k in range(1, len(b.n)):
        target = a * eval_g(w, b.n[k - 1])
        assert eval_g(w, b.n[k]) >= target
        if b.n[k] - 1 > b.n[k - 1]:
            assert eval_g(w, b.n[k] - 1) < target


def _reference_blocks(weight, A, n0, k_max):
    """The block search with a validated eval_g per probe: the indices, or the refusal's code."""
    if not A > 1:
        return "RATIO_TOO_SMALL"
    n = [n0]
    for _ in range(k_max):
        cur = n[-1]
        target = A * eval_g(weight, cur)
        if eval_g(weight, float(N_BUDGET)) < target:
            return "OVERFLOW"
        lo, hi, step = cur, cur + 1, 1
        while eval_g(weight, hi) < target:
            lo, step = hi, step * 2
            hi = min(cur + step, N_BUDGET)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if eval_g(weight, mid) >= target:
                hi = mid
            else:
                lo = mid
        n.append(hi)
    return tuple(n)


@settings(max_examples=150)
@given(case=st.one_of(   # (weight, n0, k_max)
    st.tuples(st.builds(make_weight, st.just("power"), st.floats(0.05, 4.0)),
              st.integers(1, 10**6), st.integers(1, 40)),
    st.tuples(st.builds(make_weight, st.just("logpower"), st.floats(0.1, 3.0),
                        st.one_of(st.just(math.e), st.floats(1.1, 16.0))),
              st.integers(1, 10**6), st.integers(1, 8))),
    a=st.one_of(st.floats(1.01, 8.0), st.floats(1.01, 8.0), st.floats(1.01, 8.0),  # 1 in 4 refused
                st.sampled_from([1.0, 0.5, math.nan])))
def test_block_sequence_matches_reference(case, a):
    w, n0, k_max = case
    try:
        got = block_sequence(w, a, n0, k_max).n
    except GrowthLabError as e:
        got = e.code
    assert got == _reference_blocks(w, a, n0, k_max)


@pytest.mark.parametrize("w", [make_weight("power", 0.7), make_weight("power", 2.0),
                               make_weight("logpower", 1.0),
                               make_weight("logpower", 0.5, 2.0)])
def test_monotone_and_doubling_on_log_grid(w):
    xs = np.geomspace(1.0, 1e8, 4096)
    g = eval_g(w, xs)
    assert np.all(np.diff(g) >= -1e-14)
    # D_hat is a grid estimate of the doubling sup; allow grid resolution slack
    aud = doubling_audit(w, 1e8)
    assert np.all(eval_g(w, 2 * xs) <= aud.d_hat * g * (1 + 5e-3))


def test_eval_w_is_reciprocal_of_growth():
    g = make_weight("power", 1.0)
    assert eval_g(g, 8.0) == 8.0
    # w(r) = 1/v(r) = (1 - r)^alpha
    assert eval_w(g, 0.75) == pytest.approx(0.25)


def test_weight_json_round_trip():
    for w in (make_weight("power", 1.5), make_weight("logpower", 1.0, 2.0)):
        w2 = weight_from_json(weight_to_json(w))
        xs = np.geomspace(1, 100, 17)
        assert np.array_equal(eval_g(w, xs), eval_g(w2, xs))


@pytest.mark.parametrize("d", [
    {"family": "bloch_reciprocal", "inner": {"family": "power", "alpha": 1.0}},
    {"family": "table", "xs": [1.0, 4.0], "gs": [1.0, 3.0]},
], ids=["bloch_reciprocal", "table"])
def test_bloch_reciprocal_family_refused(d):
    with pytest.raises(GrowthLabError) as ei:
        weight_from_json(d)
    assert ei.value.code == "CONFIG_INVALID"
    assert "unknown weight family" in str(ei.value)


def test_parse_weight_spec():
    w = parse_weight_spec("logpower:1:2")
    assert eval_g(w, 65536.0) == pytest.approx(16.0)
    for spec in ("nope:1", "power:x", "logpower:1:e", "logpower:1:2:junk"):
        with pytest.raises(GrowthLabError) as ei:
            parse_weight_spec(spec)
        assert ei.value.code == "CONFIG_INVALID"


def test_weight_takes_only_its_own_parameters():
    assert make_weight("power", 1.0, math.e) == make_weight("power", 1.0)
    for build in (lambda: make_weight("power", 1.0, 3.0),
                  lambda: parse_weight_spec("power:1:3"),
                  lambda: weight_from_json({"family": "power", "alpha": 1.0, "log_base": 3.0}),
                  lambda: weight_from_json({"family": "power", "alpha": 1.0, "foo": 1}),
                  lambda: weight_from_json({"family": "logpower", "alpha": 1.0, "xs": [1]})):
        with pytest.raises(GrowthLabError) as ei:
            build()
        assert ei.value.code == "CONFIG_INVALID"
