import math

import numpy as np
import pytest

from growthlab import (GrowthLabError, SUBNORMAL_KINDS, SeedSpec, make_model,
                       mgf_audit, sample_vector)


def test_determinism_same_inputs():
    m = make_model("rademacher")
    s = SeedSpec(123)
    a = sample_vector(m, s, 4, 5)
    b = sample_vector(m, s, 4, 5)
    assert np.array_equal(a, b)
    assert set(np.unique(a)) <= {-1.0, 1.0}


def test_trials_are_order_independent():
    m = make_model("gaussian")
    s = SeedSpec(9)
    first = {t: sample_vector(m, s, t, 8) for t in range(5)}
    for t in reversed(range(5)):
        assert np.array_equal(first[t], sample_vector(m, s, t, 8))


def test_distinct_trials_differ():
    m = make_model("uniform_symmetric")
    s = SeedSpec(1)
    assert not np.array_equal(sample_vector(m, s, 0, 16), sample_vector(m, s, 1, 16))


def test_value_ranges():
    s = SeedSpec(5)
    for kind in ("rademacher", "steinhaus_real", "uniform_symmetric"):
        v = sample_vector(make_model(kind), s, 0, 10_000)
        assert np.all(np.abs(v) <= 1.0)
    z = sample_vector(make_model("steinhaus"), s, 0, 1000)
    assert np.allclose(np.abs(z), 1.0)


def test_rademacher_mean_clt_bound():
    v = sample_vector(make_model("rademacher"), SeedSpec(77), 0, 10**6)
    assert abs(v.mean()) <= 4.0 / math.sqrt(10**6)


def test_gaussian_variance_concentration():
    v = sample_vector(make_model("gaussian"), SeedSpec(78), 0, 10**6)
    assert v.var() == pytest.approx(1.0, rel=0.01)


def test_bad_sigma():
    with pytest.raises(GrowthLabError) as ei:
        make_model("gaussian", sigma=1.5)
    assert ei.value.code == "BAD_SIGMA"


def test_mgf_audit_rademacher_at_one(seed_spec):
    audit = mgf_audit(make_model("rademacher"), [1.0], 10**6, seed_spec)
    row = audit.rows[0]
    truth = math.cosh(1.0) * math.exp(-0.5)
    assert truth == pytest.approx(0.93594, abs=5e-5)
    assert abs(row.ratio - truth) <= 3.0 * row.std_error


def test_mgf_audit_zero_lambda(seed_spec):
    audit = mgf_audit(make_model("uniform_symmetric"), [0.0], 10**4, seed_spec)
    assert audit.rows[0].ratio == 1.0


def test_mgf_audit_gaussian_equality_case(seed_spec):
    audit = mgf_audit(make_model("gaussian"), [2.0], 10**6, seed_spec)
    row = audit.rows[0]
    assert abs(row.ratio - 1.0) <= 4.0 * row.std_error


@pytest.mark.parametrize("kind", SUBNORMAL_KINDS)
def test_subnormal_inequality_statistically(kind, seed_spec):
    audit = mgf_audit(make_model(kind), [-4, -2, -1, 0, 1, 2, 4], 10**6, seed_spec)
    for row in audit.rows:
        slack = 4.0 * row.std_error
        assert row.ratio <= 1.0 + slack, (kind, row.lam, row.ratio, slack)


def test_mgf_audit_needs_enough_samples(seed_spec):
    with pytest.raises(GrowthLabError):
        mgf_audit(make_model("rademacher"), [1.0], 100, seed_spec)


def test_model_json_takes_only_its_own_keys():
    from growthlab.randomness import model_from_json
    assert model_from_json({"kind": "gaussian", "sigma": 0.25}).sigma == 0.25
    for d in ({"kind": "rademacher", "sigma": 0.25}, {"kind": "rademacher", "foo": 1},
              {"kind": "gaussian", "sigma": 0.5, "foo": 1}):
        with pytest.raises(GrowthLabError) as ei:
            model_from_json(d)
        assert ei.value.code == "CONFIG_INVALID"
