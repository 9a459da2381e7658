import copy
import json
import math
import tracemalloc
import weakref
from dataclasses import fields

import numpy as np
import pytest

from growthlab import (GrowthLabError, NuSequence, SeedSpec, block_sequence,
                       cesaro_domination_check, fit_growth, make_model, make_weight,
                       riesz_probe, run_growth_ensemble, salem_zygmund_probe,
                       saturating_scheme)
from growthlab import disk, mclab
from growthlab.mclab import EnsembleReport, ExperimentConfig, config_from_json

W1 = make_weight("power", 1.0)


def small_config(**kw):
    base = dict(scheme={"name": "loglog", "k_max": 2}, model={"kind": "rademacher"},
                seed=31, trials=16, radii=[0.5, 0.9])
    base.update(kw)
    return ExperimentConfig(**base)


# -- ensembles ---------------------------------------------------------------------

def test_ensemble_zero_scheme():
    cfg = small_config(scheme={"name": "loglog", "k_max": 0}, radii=[0.3, 0.9])
    rep = run_growth_ensemble(cfg)
    assert all(v == 0.0 for v in rep.lower_med)


def test_ensemble_deterministic_bytes():
    cfg = small_config()
    a = run_growth_ensemble(cfg)
    b = run_growth_ensemble(cfg)
    assert a.canonical_bytes() == b.canonical_bytes()


def _per_trial_report(cfg):
    """The ensemble report assembled by hand from one sup_bracket per trial and radius."""
    scheme = mclab.scheme_from_provenance(cfg.scheme)
    radii = mclab._resolve_radii(cfg)
    model, seed = mclab.model_from_json(cfg.model), SeedSpec(cfg.seed)
    brackets = [[disk.sup_bracket(disk.randomize(scheme, model, seed, t, flavor=cfg.flavor), r,
                                  oversample=cfg.oversample, refine=cfg.refine)
                 for r in radii] for t in range(cfg.trials)]
    lowers = np.array([[b.lower for b in row] for row in brackets])
    uppers = np.array([[b.upper for b in row] for row in brackets])
    lq, uq = ([tuple(float(v) for v in np.quantile(x, q, axis=0)) for q in (0.10, 0.50, 0.90)]
              for x in (lowers, uppers))
    n_of_r = [1.0 / (1.0 - r) for r in radii]
    ratios = {name: tuple(float(v) for v in np.asarray(lq[1])
                          / mclab.resolve_candidate(name)(np.asarray(n_of_r)))
              for name in cfg.candidates}
    return EnsembleReport(config=cfg.to_json(), config_hash=cfg.hash, radii=tuple(radii),
                          n_of_r=tuple(n_of_r), lower_q10=lq[0], lower_med=lq[1],
                          lower_q90=lq[2], upper_q10=uq[0], upper_med=uq[1],
                          upper_q90=uq[2], candidate_ratios=ratios)


@pytest.mark.parametrize("kw, stacks", [
    (dict(), [16, 16]),
    (dict(model={"kind": "steinhaus"}, flavor="analytic", trials=8), [8, 8]),
    (dict(model={"kind": "gaussian"}, refine=True, trials=6, radii=[0.5, 0.8, 0.95]),
     [6, 6, 6]),
    # 65,534 terms: two trials fill BLOCK_BYTES, so three trials take two chunks
    (dict(scheme={"name": "loglog", "k_max": 4}, trials=3, radii=[0.5, 0.9375]),
     [2, 2, 1, 1]),
    (dict(scheme={"name": "loglog", "k_max": 4}, trials=3, radii=[0.5, 0.9375], refine=True,
          model={"kind": "steinhaus"}, flavor="analytic"), [2, 2, 1, 1]),
], ids=["real", "analytic", "refined", "two_chunks", "two_chunks_analytic_refined"])
def test_ensemble_matches_per_trial_brackets(monkeypatch, kw, stacks):
    cfg = small_config(**kw)
    seen, stacked = [], mclab.sup_brackets

    def counted(coeffs, *args):
        seen.append(len(coeffs))
        return stacked(coeffs, *args)

    monkeypatch.setattr(mclab, "sup_brackets", counted)
    rep = run_growth_ensemble(cfg)
    assert seen == stacks                       # one stack per chunk of trials and radius
    assert rep.canonical_bytes() == _per_trial_report(cfg).canonical_bytes()


def test_ensemble_quantiles_ordered():
    rep = run_growth_ensemble(small_config(trials=40))
    for q10, med, q90 in zip(rep.lower_q10, rep.lower_med, rep.lower_q90):
        assert q10 <= med <= q90


def test_ensemble_budget_guard():
    cfg = small_config(scheme={"name": "loglog", "k_max": 4},
                       radii=[1.0 - 2.0**-16], trials=200, max_evals=1e6)
    with pytest.raises(GrowthLabError) as ei:
        run_growth_ensemble(cfg)
    assert ei.value.code == "BUDGET_EXCEEDED"


def test_ensemble_block_radii_rule():
    cfg = small_config(radii="block")
    rep = run_growth_ensemble(cfg)
    assert rep.radii == (0.5, 0.75, 1.0 - 1.0 / 16.0)


@pytest.mark.parametrize("kw, code", [
    (dict(radii=[0.5, 1.0]), "RADIUS_OUT_OF_RANGE"),
    (dict(radii=[float("inf")]), "RADIUS_OUT_OF_RANGE"),
    (dict(radii=[float("nan")]), "RADIUS_OUT_OF_RANGE"),
    (dict(radii=[-0.1]), "RADIUS_OUT_OF_RANGE"),
    (dict(oversample=float("nan")), "DOMAIN"),
    (dict(oversample=float("inf")), "DOMAIN"),
    (dict(oversample=2.0), "DOMAIN"),
    (dict(radii=0.5), "CONFIG_INVALID"),
    (dict(radii="0.5"), "CONFIG_INVALID"),
    (dict(radii="0"), "CONFIG_INVALID"),
    (dict(radii=["0.5"]), "CONFIG_INVALID"),
    (dict(radii=[True]), "CONFIG_INVALID"),
    (dict(radii=None), "CONFIG_INVALID"),
    (dict(radii=[]), "CONFIG_INVALID"),
    (dict(seed="x"), "CONFIG_INVALID"),
    (dict(trials=2.5), "CONFIG_INVALID"),
    (dict(trials=True), "CONFIG_INVALID"),
    (dict(seed=None), "CONFIG_INVALID"),
    (dict(trials="3"), "CONFIG_INVALID"),
    (dict(oversample="abc"), "CONFIG_INVALID"),
    (dict(oversample=None), "CONFIG_INVALID"),
    (dict(oversample=True), "CONFIG_INVALID"),
    (dict(max_evals=None), "CONFIG_INVALID"),
    (dict(max_evals="1e9"), "CONFIG_INVALID"),
    (dict(refine="false"), "CONFIG_INVALID"),
    (dict(candidates="sqrt_log"), "CONFIG_INVALID"),
    (dict(candidates=[]), "CONFIG_INVALID"),
    (dict(candidates=["nope"]), "CONFIG_INVALID"),
    (dict(candidates=[5]), "CONFIG_INVALID"),
    (dict(candidates=["power:x"]), "CONFIG_INVALID"),
    (dict(flavor="complex"), "CONFIG_INVALID"),
    (dict(scheme=5), "CONFIG_INVALID"),
    (dict(model="rademacher"), "CONFIG_INVALID"),
    (dict(model=5), "CONFIG_INVALID"),
    (dict(model={}), "CONFIG_INVALID"),
    (dict(model={"kind": "gaussian", "sigma": "x"}), "CONFIG_INVALID"),
    (dict(model={"kind": "steinhaus"}), "FLAVOR_MISMATCH"),
    (dict(trials=0), "DOMAIN"),
    (dict(trials=-3), "DOMAIN"),
    (dict(candidates=["sqrt_log", "power:1", "sqrt_log"]), "CONFIG_INVALID"),
    (dict(model={"kind": "gaussian", "sigma": 1.0}), "CONFIG_INVALID"),
])
def test_config_checked_when_built(kw, code):
    with pytest.raises(GrowthLabError) as ei:
        small_config(**kw)
    assert ei.value.code == code
    with pytest.raises(GrowthLabError) as ei:
        config_from_json(dict(small_config().to_json(), **kw))
    assert ei.value.code == code


def test_config_json_round_trip():
    cfg = small_config(candidates=("sqrt_log",), oversample=8.0)
    cfg2 = config_from_json(json.loads(json.dumps(cfg.to_json())))
    assert cfg2 == cfg
    assert cfg2.hash == cfg.hash


def test_config_stores_numbers_as_floats():
    cfg = config_from_json(dict(small_config().to_json(), oversample=16, max_evals=10**11,
                                candidates=["sqrt_log", "sqrt_log_loglog"]))
    assert (cfg.oversample, cfg.max_evals) == (16.0, 1e11)
    assert isinstance(cfg.oversample, float) and isinstance(cfg.max_evals, float)
    assert cfg.candidates == ("sqrt_log", "sqrt_log_loglog")
    assert cfg.hash == small_config().hash


def test_equal_configs_hash_equal():
    blocks = {"weight": {"family": "power", "alpha": 1}, "A": 2, "n": [1, 2, 4, 8]}
    uniform = {"name": "uniform", "rule": "g_over_n", "blocks": blocks}
    recorded = mclab.scheme_from_provenance(uniform).provenance
    for a, b in (({"scheme": uniform}, {"scheme": recorded}),
                 ({"radii": [0, 0.5]}, {"radii": [0.0, 0.5]})):
        ca, cb = small_config(**a), small_config(**b)
        assert ca == cb and ca.hash == cb.hash


def test_config_json_holds_compared_fields():
    cfg = small_config()
    assert set(cfg.to_json()) == {f.name for f in fields(cfg)} and len(fields(cfg)) == 10
    rep = EnsembleReport(config=cfg.to_json(), config_hash=cfg.hash, radii=(0.5,),
                         n_of_r=(2.0,), lower_q10=(1.0,), lower_med=(1.0,), lower_q90=(1.0,),
                         upper_q10=(2.0,), upper_med=(2.0,), upper_q90=(2.0,),
                         candidate_ratios={"sqrt_log": (1.0,)}, wall_time=3.0)
    payload = rep.canonical_payload()
    assert "wall_time" not in payload and payload["candidate_ratios"] == {"sqrt_log": [1.0]}
    assert rep == EnsembleReport(**dict(vars(rep), wall_time=4.0))


def _counted_plans(monkeypatch, slots):
    """The plans alive and the keys of every plan built; never more alive than slots."""
    live, keys = weakref.WeakSet(), []
    build = disk.circle_plan

    def counted(support, M, real, half=False):
        assert len(live) <= slots               # the plans the slots hold, nothing older
        plan = build(support, M, real, half)
        live.add(plan)
        keys.append(plan.key)
        return plan

    monkeypatch.setattr(disk, "circle_plan", counted)
    return live, keys


def test_ensemble_plans_one_per_radius(monkeypatch):
    # gaussian magnitudes move the tail cut, so the kept prefix differs between trials
    cfg = small_config(scheme={"name": "loglog", "k_max": 3}, model={"kind": "gaussian"},
                       radii=[0.5, 0.8, 0.95], trials=12)
    live, keys = _counted_plans(monkeypatch, len(cfg.radii))
    shared = run_growth_ensemble(cfg)
    assert len(live) == 0                       # no plan outlives the call
    assert len(set(keys)) > len(cfg.radii)      # some trial replaced its radius' plan
    _plan_free(monkeypatch)
    assert run_growth_ensemble(cfg).canonical_bytes() == shared.canonical_bytes()


def _plan_free(monkeypatch):
    """Bracket each series of a stack alone, on a copy of its slot holding no plan."""
    def alone(coeffs, slot, *args):
        out = []
        for c in coeffs:
            fresh = copy.copy(slot)
            fresh.plan = None
            out += disk.sup_brackets(c[None], fresh, *args)
        return out

    monkeypatch.setattr(mclab, "sup_brackets", alone)


@pytest.mark.parametrize("probe, slots, brackets", [
    # one slot per offset for 8 sign patterns
    (lambda: riesz_probe(4, offsets=(0, 1, 7), sign_patterns=True), 3, 24),
    # one slot per radius and one per (radius, n); the tail cut at r = 0.5 varies
    (lambda: cesaro_domination_check(6, SeedSpec(8), degree=120, radii=(0.5, 0.9),
                                     n_list=(10, 50)), 6, 36),
], ids=["riesz", "cesaro"])
def test_probes_share_plans_per_slot(monkeypatch, probe, slots, brackets):
    live, keys = _counted_plans(monkeypatch, slots)
    shared = probe()
    assert len(live) == 0                       # no plan outlives the call
    assert slots <= len(keys) < brackets / 2
    _plan_free(monkeypatch)
    assert probe() == shared


def test_analytic_flavor_ensemble():
    cfg = small_config(model={"kind": "steinhaus"}, flavor="analytic", trials=8)
    rep = run_growth_ensemble(cfg)
    assert all(v > 0 for v in rep.lower_med)


# -- salem-zygmund probe --------------------------------------------------------------

@pytest.fixture(scope="module")
def sat_scheme():
    blocks = block_sequence(W1, 2.0, 1, 10)
    return saturating_scheme(blocks, NuSequence("sqrt")), blocks


def test_sz_probe_rows(sat_scheme):
    scheme, blocks = sat_scheme
    rep = salem_zygmund_probe(scheme, blocks, make_model("rademacher"), SeedSpec(4),
                              trials=60, n_list=[8, 10])
    assert [r.n for r in rep.rows] == [256, 1024]
    for row in rep.rows:
        assert row.q05 > 0
        assert row.q05 <= row.q50 <= row.q95
        # flatness hypothesis: fourth-moment ratio bounded
        assert row.t4_ratio < 10.0
    assert rep.row_for(8).n == 256


def test_sz_probe_single_mode_degenerate():
    # one interior coefficient: max = |b|, R = b^2, ratio = 1/sqrt(log n)
    blocks = block_sequence(W1, 2.0, 1, 3)
    from growthlab.schemes import scheme_from_arrays
    s = scheme_from_arrays([7], [3.0], [0.0], 7, {"name": "single"})
    rep = salem_zygmund_probe(s, blocks, make_model("rademacher"), SeedSpec(4),
                              trials=5, n_list=[3])
    expect = 1.0 / math.sqrt(math.log(8.0))
    assert rep.rows[0].q50 == pytest.approx(expect, rel=1e-6)


def test_sz_probe_rejects_massless_block():
    # the Cesaro factor vanishes at j = n_N, leaving no weighted mass
    blocks = block_sequence(W1, 2.0, 1, 3)
    from growthlab.schemes import scheme_from_arrays
    s = scheme_from_arrays([8], [3.0], [0.0], 8, {"name": "edge"})
    with pytest.raises(GrowthLabError) as ei:
        salem_zygmund_probe(s, blocks, make_model("rademacher"), SeedSpec(4),
                            trials=5, n_list=[3])
    assert ei.value.code == "EMPTY_BLOCKS" 


def _sz_peak(scheme, blocks, trials):
    """The traced peak of one Salem-Zygmund probe of block 8, and its error code."""
    tracemalloc.start()
    try:
        salem_zygmund_probe(scheme, blocks, make_model("rademacher"), SeedSpec(4),
                            trials=trials, n_list=[8])
        code = None
    except GrowthLabError as e:
        code = e.code
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak, code


def test_sz_probe_sizes_the_grid_before_drawing(sat_scheme, monkeypatch):
    scheme, blocks = sat_scheme
    monkeypatch.setattr(disk, "MAX_GRID", 2**12)     # block 8 needs 2^14 grid points
    monkeypatch.setattr(mclab, "randomize", lambda *a, **k: pytest.fail("drew a trial"))
    (few, code_few), (many, code_many) = (_sz_peak(scheme, blocks, t) for t in (50, 5000))
    assert code_few == code_many == "BUDGET_EXCEEDED"
    assert many < few + 4096


def test_sz_probe_memory_does_not_grow_with_trials(sat_scheme, monkeypatch):
    # block 8 holds 128 terms: 10 trials a chunk, where one stack of 1000 would be 2 MB
    scheme, blocks = sat_scheme
    monkeypatch.setattr(mclab, "BLOCK_BYTES", 16 * 128 * 10)
    (few, _), (many, _) = (_sz_peak(scheme, blocks, t) for t in (50, 1000))
    assert many < few + 1000 * 64


@pytest.mark.parametrize("trials", [0, -3])
def test_sz_probe_rejects_no_trials(sat_scheme, trials):
    scheme, blocks = sat_scheme
    with pytest.raises(GrowthLabError) as ei:
        salem_zygmund_probe(scheme, blocks, make_model("rademacher"), SeedSpec(4),
                            trials=trials, n_list=[6])
    assert ei.value.code == "DOMAIN"


def test_sz_probe_determinism(sat_scheme):
    scheme, blocks = sat_scheme
    a = salem_zygmund_probe(scheme, blocks, make_model("rademacher"), SeedSpec(4),
                            trials=10, n_list=[6])
    b = salem_zygmund_probe(scheme, blocks, make_model("rademacher"), SeedSpec(4),
                            trials=10, n_list=[6])
    assert a.rows[0].q50 == b.rows[0].q50


# -- riesz probe -----------------------------------------------------------------------

def test_riesz_single_term_exact():
    rep = riesz_probe(1)
    assert rep.c_emp == pytest.approx(1.0, abs=1e-9)


def test_riesz_all_equal_positive_attained_at_zero():
    for nt in (2, 4, 6):
        rep = riesz_probe(nt)
        assert rep.c_emp == pytest.approx(1.0, abs=1e-9)


def test_riesz_two_terms_certified_half():
    rep = riesz_probe(2, offsets=(0,))
    assert rep.rows[0].ratio >= 0.5


def test_riesz_signed_patterns_positive():
    rep = riesz_probe(3, offsets=(0, 5), sign_patterns=True)
    assert len(rep.rows) == 8
    assert 0.0 < rep.c_emp <= 1.0 + 1e-9


def test_riesz_validation():
    with pytest.raises(GrowthLabError):
        riesz_probe(9)


@pytest.mark.parametrize("kwargs", [
    {"offsets": (0, -5)},             # frequency 4 - 5 < 0
    {"offsets": ()},
])
def test_riesz_rejects_bad_offsets_and_coefficients(kwargs):
    with pytest.raises(GrowthLabError) as ei:
        riesz_probe(2, **kwargs)
    assert ei.value.code == "DOMAIN"


def test_riesz_lowest_offset_starts_at_frequency_zero():
    assert mclab.riesz_comb(3, -4).tolist() == [0, 12, 60]
    assert riesz_probe(3, offsets=(-4,)).c_emp == pytest.approx(1.0, rel=1e-11)


def test_riesz_constants_unchanged():
    # the signed scan's minima since the batched Newton refinement, now summed by wave
    # table; at n = 2 every pattern reaches sum|c|, which the guard scales by 1 - 1e-12
    want = [1.0 - disk.FLOAT_GUARD, 0.9026745458511428, 0.9222348861179731,
            0.8859555090086649, 0.9000794561711212]
    for n, c in zip(range(2, 7), want):
        comb = mclab.riesz_comb(n, 0)
        assert disk.circle_plan(comb, disk.grid_size(int(comb[-1]), 64.0), True).waves is not None
        assert riesz_probe(n, sign_patterns=True).c_emp == pytest.approx(c, rel=1e-13, abs=0)


# -- cesaro domination ------------------------------------------------------------------

def test_domination_zero_scheme_trivially_passes():
    rep = cesaro_domination_check(2, SeedSpec(8), degree=0, radii=(0.5,), n_list=(1,))
    assert rep.violations == 0


@pytest.mark.parametrize("trials, degree", [(0, 10), (2, -1)])
def test_domination_rejects_bad_sizes(trials, degree):
    # trials = 0 gave worst_margin = inf; degree = -1 a bare numpy ValueError
    with pytest.raises(GrowthLabError) as ei:
        cesaro_domination_check(trials, SeedSpec(8), degree=degree)
    assert ei.value.code == "DOMAIN"


def test_domination_batch():
    rep = cesaro_domination_check(10, SeedSpec(8), degree=150, radii=(0.5, 0.9),
                                  n_list=(10, 100))
    assert rep.cases == 40
    assert rep.violations == 0
    assert rep.worst_margin > -1e-9


# -- fit_growth ---------------------------------------------------------------------------

def synthetic_report(medians, radii, candidates):
    """A report of the given medians whose candidate_ratios hold each candidate's
    median ratios, as run_growth_ensemble computes them."""
    m = tuple(medians)
    n_of_r = tuple(1.0 / (1.0 - r) for r in radii)
    ratios = {name: tuple(np.asarray(m) / mclab.resolve_candidate(name)(np.asarray(n_of_r)))
              for name in candidates}
    return EnsembleReport(config={}, config_hash="x", radii=tuple(radii), n_of_r=n_of_r,
                          lower_q10=m, lower_med=m, lower_q90=m,
                          upper_q10=m, upper_med=m, upper_q90=m,
                          candidate_ratios=ratios)


def test_fit_growth_exact_candidate_wins():
    radii = [0.9, 0.99, 0.999, 0.9999]
    xs = [1.0 / (1.0 - r) for r in radii]
    meds = [3.0 * math.sqrt(max(1.0, math.log(x))) for x in xs]
    rep = synthetic_report(meds, radii, ["power:1", "sqrt_log", "power:0.5"])
    fit = fit_growth(rep)
    assert fit.best == "sqrt_log"
    assert abs(fit.rows[0].slope) < 1e-12
    assert [row.name for row in fit.rows[1:]] == ["power:0.5", "power:1"]


def test_fit_growth_single_candidate():
    rep = synthetic_report([1.0, 2.0, 4.0], [0.5, 0.9, 0.99], ["power:1"])
    fit = fit_growth(rep)
    assert fit.best == "power:1"
    assert len(fit.rows) == 1


def test_fit_growth_needs_radii():
    rep = synthetic_report([1.0, 2.0], [0.5, 0.9], ["power:1"])
    with pytest.raises(GrowthLabError) as ei:
        fit_growth(rep)
    assert ei.value.code == "INSUFFICIENT_RADII"


def test_spec_candidates_match_the_retired_names():
    # log, identity and sqrt, written out: logpower:1, power:1 and power:0.5 give their ratios
    retired = {"logpower:1": lambda x: np.maximum(1.0, np.log(x)),
               "power:1": lambda x: np.asarray(x, dtype=float),
               "power:0.5": lambda x: np.sqrt(np.asarray(x, dtype=float))}
    xs = np.concatenate([[1.0, 2.0, math.e, 3.0], np.geomspace(1.0, 1e300, 20001)])
    for spec, formula in retired.items():
        assert np.array_equal(mclab.resolve_candidate(spec)(xs), formula(xs))
    rep = run_growth_ensemble(small_config(candidates=tuple(retired), radii=[0.5, 0.9, 0.99]))
    med, n_of_r = np.asarray(rep.lower_med), np.asarray(rep.n_of_r)
    for spec, formula in retired.items():
        assert rep.candidate_ratios[spec] == tuple(float(v) for v in med / formula(n_of_r))
    for name in ("log", "identity", "sqrt"):
        assert name not in mclab.GROWTH_CANDIDATES
        with pytest.raises(GrowthLabError) as ei:
            mclab.resolve_candidate(name)
        assert ei.value.code == "CONFIG_INVALID"
