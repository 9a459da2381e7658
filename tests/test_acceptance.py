"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria are checked at
their stated tolerances; nothing is deferred to later calibration.
"""

import math
import time

import numpy as np
import pytest

import growthlab as gl
from growthlab import (ANALYTIC, CESARO, G_OVER_SQRT_NLOGN, L1_SQRT, L2_LOG,
                       NuSequence, SeedSpec)
from growthlab.mclab import ExperimentConfig, run_growth_ensemble
from growthlab.schemes import scheme_from_arrays

SEED = SeedSpec(20260808)
W1 = gl.make_weight("power", 1.0)


def report(num, name, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {num:02d}] {name}: {state}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_01_doubling_and_blocks():
    t0 = time.monotonic()
    ok = True
    detail = []
    for alpha in (0.5, 1.0, 2.0):
        aud = gl.doubling_audit(gl.make_weight("power", alpha), 1e6)
        ok &= abs(aud.d_hat - 2.0**alpha) <= 1e-9
        detail.append(f"D({alpha})={aud.d_hat:.9f}")
    b = gl.block_sequence(W1, 2.0, 1, 20)
    ok &= b.n == tuple(2**k for k in range(21))
    b2 = gl.block_sequence(gl.make_weight("logpower", 1.0, 2.0), 2.0, 2, 4)
    ok &= b2.n == (2, 4, 16, 256, 65536)
    dt = time.monotonic() - t0
    ok &= dt < 1.0
    report(1, "doubling and blocks", ok, f"{'; '.join(detail)}; towers={b2.n}; {dt:.2f}s")


def test_02_subnormality_audit():
    t0 = time.monotonic()
    lam_grid = list(range(-4, 5))
    ok = True
    worst = -math.inf
    for kind in gl.SUBNORMAL_KINDS:
        audit = gl.mgf_audit(gl.make_model(kind), lam_grid, 10**6, SEED)
        for row in audit.rows:
            excess = (row.ratio - 1.0) / row.std_error if row.std_error > 0 else 0.0
            worst = max(worst, excess)
            ok &= row.ratio <= 1.0 + 4.0 * row.std_error
    rad = gl.mgf_audit(gl.make_model("rademacher"), [1.0], 10**6, SEED).rows[0]
    truth = math.cosh(1.0) * math.exp(-0.5)
    ok &= abs(rad.ratio - truth) <= 3.0 * rad.std_error
    dt = time.monotonic() - t0
    ok &= dt < 10.0
    report(2, "subnormality audit", ok,
           f"worst (ratio-1)/SE={worst:.2f}; rademacher@1 within "
           f"{abs(rad.ratio - truth) / rad.std_error:.2f} SE of {truth:.5f}; {dt:.1f}s")


def test_03_evaluation_correctness():
    t0 = time.monotonic()
    model = gl.make_model("rademacher")
    worst_fft = 0.0
    rng = np.random.default_rng(5)
    for trial in range(50):
        degree = int(rng.integers(100, 10_001))
        sch = gl.random_scheme(SEED, trial, degree)
        ser = gl.randomize(sch, model, SEED, trial)
        r = float(rng.uniform(0.3, 1.0))
        M = 2048
        circ = gl.evaluate_circle(ser, r, M)
        ts = rng.integers(0, M, size=16)
        direct = gl.evaluate_at(ser, r, 2 * np.pi * ts / M)
        scale = max(float(np.max(np.abs(circ))), 1e-300)
        worst_fft = max(worst_fft, float(np.max(np.abs(circ[ts] - direct))) / scale)
    worst_grad = 0.0
    for trial in range(20):
        sch = gl.random_scheme(SEED, 500 + trial, 60)
        ser = gl.randomize(sch, model, SEED, trial)
        for _ in range(20):
            x = rng.uniform(-0.55, 0.55, 2)
            g = gl.gradient_at(ser, x)
            h = 1e-5
            fd = np.empty(2)
            for i in range(2):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd[i] = (gl.evaluate_at(ser, math.hypot(*xp), math.atan2(xp[1], xp[0]))
                         - gl.evaluate_at(ser, math.hypot(*xm), math.atan2(xm[1], xm[0]))) / (2 * h)
            scale = max(float(np.linalg.norm(g)), 1e-12)
            worst_grad = max(worst_grad, float(np.linalg.norm(g - fd)) / scale)
    dt = time.monotonic() - t0
    ok = worst_fft <= 1e-10 and worst_grad <= 1e-6 and dt < 30.0
    report(3, "evaluation correctness", ok,
           f"fft-vs-direct {worst_fft:.2e} (<=1e-10); grad-vs-fd {worst_grad:.2e} (<=1e-6); {dt:.1f}s")


def test_04_rudin_shapiro_bound():
    t0 = time.monotonic()
    ok = True
    worst = 0.0
    for e in range(4, 13):
        m = 2**e
        signs = gl.rudin_shapiro_signs(m)
        sch = scheme_from_arrays(np.arange(m), signs, np.zeros(m), m - 1,
                                 {"name": "grs", "m": m})
        # the bound is on |P| of P(z) = sum eps_j z^j: the analytic flavor
        b = gl.sup_bracket(gl.unit_series(sch, ANALYTIC), 1.0, oversample=16.0, refine=True)
        ratio = b.upper / (5.0 * math.sqrt(m))
        worst = max(worst, ratio)
        ok &= b.upper <= 5.0 * math.sqrt(m)
    dt = time.monotonic() - t0
    ok &= dt < 30.0
    report(4, "rudin-shapiro sup bound", ok,
           f"max upper/(5 sqrt m)={worst:.3f} over m=16..4096; {dt:.1f}s")


def test_05_cesaro_domination():
    t0 = time.monotonic()
    rep = gl.cesaro_domination_check(100, SEED, degree=200, radii=(0.5, 0.9),
                                     n_list=(10, 100))
    dt = time.monotonic() - t0
    ok = rep.violations == 0 and rep.cases == 400 and dt < 60.0
    report(5, "cesaro domination", ok,
           f"{rep.cases} cases, {rep.violations} violations, "
           f"worst margin {rep.worst_margin:.3g}; {dt:.1f}s")


def test_06_growth_separation():
    t0 = time.monotonic()
    radii = [1.0 - 1.0 / 2.0 ** (2**N) for N in (2, 3, 4)]
    cfg = ExperimentConfig(scheme={"name": "loglog", "k_max": 4},
                           model={"kind": "rademacher"}, seed=SEED.master_seed,
                           trials=200, radii=radii, oversample=16.0, refine=False,
                           candidates=("sqrt_log", "sqrt_log_loglog"))
    rep = run_growth_ensemble(cfg)
    r_log = rep.candidate_ratios["sqrt_log"]
    r_llog = rep.candidate_ratios["sqrt_log_loglog"]
    band = max(r_log) / min(r_log)
    decreasing = all(b < a for a, b in zip(r_llog, r_llog[1:]))
    dt = time.monotonic() - t0
    ok = band < 2.0 and decreasing and dt < 300.0
    report(6, "growth separation", ok,
           f"sqrt_log ratios {[round(v, 3) for v in r_log]} band {band:.2f} (<2); "
           f"sqrt_log_loglog ratios {[round(v, 3) for v in r_llog]} "
           f"strictly decreasing={decreasing}; {dt:.0f}s")


def test_07_saturating_sharpness():
    t0 = time.monotonic()
    nu = NuSequence("sqrt")
    normalized = {}
    for N in (6, 8, 10):
        blocks = gl.block_sequence(W1, 2.0, 1, N)
        sat = gl.saturating_scheme(blocks, nu)
        cfg = ExperimentConfig(scheme=sat.provenance, model={"kind": "rademacher"},
                               seed=SEED.master_seed, trials=200,
                               radii=[1.0 - 2.0**-N], refine=False)
        rep = run_growth_ensemble(cfg)
        nu_top = float(nu.at(N - 1))       # multiplier applied to the top block
        normalized[N] = rep.lower_med[0] / (nu_top * 2.0**N)
    band = max(normalized.values()) / min(normalized.values())
    blocks = gl.block_sequence(W1, 2.0, 1, 10)
    bw = gl.score_blockwise(gl.saturating_scheme(blocks, nu), blocks, W1)
    ratios = [r.ratio for r in bw.rows if r.n_k > 2]
    nu_track = [r.ratio / float(nu.at(r.k - 1)) for r in bw.rows if r.n_k > 2]
    grows_like_nu = (max(nu_track) / min(nu_track) < 1.2
                     and ratios[-1] / ratios[0] > 2.0)
    dt = time.monotonic() - t0
    ok = band < 2.0 and grows_like_nu
    report(7, "saturating sharpness", ok,
           f"median/(nu g) = {[round(normalized[N], 4) for N in (6, 8, 10)]} band {band:.3f} (<2); "
           f"blockwise/nu spread {max(nu_track) / min(nu_track):.3f}; {dt:.1f}s")


def test_08_salem_zygmund_probe():
    t0 = time.monotonic()
    blocks = gl.block_sequence(W1, 2.0, 1, 10)
    sat = gl.saturating_scheme(blocks, NuSequence("sqrt"))
    rep = gl.salem_zygmund_probe(sat, blocks, gl.make_model("rademacher"), SEED,
                                 trials=500, n_list=[8, 10])
    p8, p10 = rep.row_for(8).q05, rep.row_for(10).q05
    var = abs(p10 - p8) / p8
    dt = time.monotonic() - t0
    ok = p10 > 0 and p8 > 0 and var < 0.30
    report(8, "salem-zygmund probe", ok,
           f"q05(N=8)={p8:.4f}, q05(N=10)={p10:.4f}, variation {100 * var:.1f}% (<30%); {dt:.1f}s")


def test_09_riesz_probe():
    t0 = time.monotonic()
    mins = {}
    for nt in range(2, 7):
        mins[nt] = gl.riesz_probe(nt).c_emp
    positive = all(v > 0 for v in mins.values())
    no_decay = mins[6] >= 0.8 * mins[2]
    dt = time.monotonic() - t0
    ok = positive and no_decay
    report(9, "riesz probe", ok,
           f"certified ratios {[round(mins[n], 4) for n in range(2, 7)]}; "
           f"6-vs-2 retention {mins[6] / mins[2]:.3f} (>=0.8); {dt:.1f}s")


def test_10_sphere():
    t0 = time.monotonic()
    basis = gl.build_basis(32)
    norm_ok = all(0.999 < basis.norm_lower[key] <= 1.0 for key in basis.norm_lower)
    rng = np.random.default_rng(13)
    worst_res = 0.0
    for m in range(0, 33, 4):
        for l in range(0, 2 * m + 1, max(1, m // 2)):
            s = gl.SphereSeries(basis, ((m, l, 1.0),))
            for _ in range(10):
                x = rng.uniform(-1, 1, 3)
                x *= rng.uniform(0.2, 0.7) / np.linalg.norm(x)
                worst_res = max(worst_res, abs(gl.laplacian_stencil(s, x)))
    harmonic_ok = worst_res <= 1e-6
    cap_y3 = gl.cap_fraction(gl.SphereSeries(basis, ((1, 0, 1.0),)), 0.5)
    cap_ok = abs(cap_y3.fraction - 0.5) <= 0.02 * 0.5
    model = gl.make_model("rademacher")
    c_by_degree = {}
    for n in (4, 8, 16, 32):
        cov = gl.default_covering(n)
        vals = [gl.cap_fraction(gl.random_degree_combination(basis, n, model, SEED, t, lane=n),
                                0.5, cov).c_implied for t in range(50)]
        c_by_degree[n] = min(vals)
    c_emp = c_by_degree[4]
    stable = all(c_by_degree[n] >= c_emp / 2.0 for n in (8, 16, 32))
    dt = time.monotonic() - t0
    ok = norm_ok and harmonic_ok and cap_ok and stable and dt < 120.0
    report(10, "sphere basis and caps", ok,
           f"norms(0.999,1]={norm_ok}; residual {worst_res:.2e} (<=1e-6); "
           f"cap(y3)={cap_y3.fraction:.4f}; c_implied mins {c_by_degree}; {dt:.1f}s")


def test_11_census_and_liminf():
    t0 = time.monotonic()
    blocks = gl.block_sequence(W1, 2.0, 1, 16)
    rs = gl.rudin_shapiro_scheme(blocks)
    census = gl.coefficient_census(rs, W1, NuSequence("log"), 2**16)
    final = census.rows[-1].fraction
    dyadic = [r.fraction for r in census.rows if r.n >= 2]
    trend = all(b >= a - 1e-15 for a, b in zip(dyadic, dyadic[1:]))
    lim_rs = gl.liminf_profile(rs, blocks, W1)
    lim_h = gl.liminf_profile(gl.hadamard_lacunary_scheme(blocks), blocks, W1)
    dt = time.monotonic() - t0
    ok = final >= 0.9 and trend and lim_rs.proxy > 0.5 and lim_h.proxy == 0.0
    report(11, "census and liminf", ok,
           f"N(2^16)/2^16={final:.5f} (>=0.9), non-decreasing={trend}; "
           f"liminf rs={lim_rs.proxy:.4f} (>0) vs hadamard={lim_h.proxy}; {dt:.1f}s")


def test_12_bloch_presets():
    t0 = time.monotonic()
    alpha = 1.0
    bw = gl.bloch_reciprocal(gl.make_weight("power", alpha))
    blocks = gl.block_sequence(W1, 2.0, 1, 12)
    rep = gl.score_blockwise(gl.rudin_shapiro_scheme(blocks), blocks, W1,
                             m_weighted=True, bloch_w=bw)
    consts = [r.rhs * math.sqrt(r.k * math.log(2.0)) / 2.0 ** (alpha * r.k)
              for r in rep.rows if r.n_k >= 3]
    targets_ok = bool(np.allclose(consts, consts[0], rtol=1e-12))
    # u(z) = Re z has |grad| = 1, so the w-weighted profile is exactly w(r)
    mono = scheme_from_arrays([1], [1.0], [0.0], 1, {"name": "mono"})
    ser = gl.unit_series(mono)
    grad_ok = True
    worst = 0.0
    for r in (0.0, 0.3, 0.6, 0.9):
        b = gl.gradient_sup_bracket(ser, r)
        w_r = gl.eval_w(bw, r)
        lo, hi = b.lower * w_r, b.upper * w_r
        grad_ok &= lo <= w_r <= hi
        worst = max(worst, abs(lo / w_r - 1.0), abs(hi / w_r - 1.0))
    dt = time.monotonic() - t0
    ok = targets_ok and grad_ok
    report(12, "bloch presets", ok,
           f"target column constant C={consts[0]:.6f} (rtol 1e-12); "
           f"grad profile slack {worst:.2e}; {dt:.1f}s")
