"""The four workloads: set-up, one round of program calls, and the checks.

A workload's round always attempts the same operations, so the share of
failed operations is the same in every run.  An operation is one check: a
check that judges a whole probe or ensemble counts once, however many
brackets it covers; the bracket or trial count a round returns beside its
outcomes is only the numerator of ``ops_per_s``.  Program calls go inside
``timed()``; checks run outside it against the references in reference.py.

Each check of a bracket holds for the current program and for one that
brackets the right quantity: for a real series u = Re f, the lower bound
must not exceed a certified sup|f| and the upper bound must reach sup|u|.
The strict test (lower <= sup|u|) is a known fault of the program, kept
only on operations whose inputs do not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from collections import namedtuple
from types import SimpleNamespace

import numpy as np

import reference as ref

TOL = 1e-9                    # relative slack for float comparisons
Q_ENSEMBLE = (0.10, 0.50, 0.90)
Q_SZ = (0.05, 0.50, 0.95)


# one attempted operation: ok, and whether a failure is a known fault
Outcome = namedtuple("Outcome", "ok known", defaults=(False,))


def round_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _le(a, b) -> bool:
    return bool(np.all(np.asarray(a) <= np.asarray(b) + TOL * np.abs(np.asarray(b))))


def quantile_brackets_ok(qs, lower_q, upper_q, u_lower, f_upper, oversample) -> bool:
    """Order statistics are monotone, so per-trial bounds carry to quantiles.

    lower_q/upper_q: program quantiles per column; u_lower/f_upper: (trials,
    columns) reference bounds of sup|u| from below and sup|f| from above.
    The grid promise pi n / M <= 1/oversample bounds how far each side may
    sit from the sup.
    """
    ok = True
    for i, q in enumerate(qs):
        fu = np.quantile(f_upper, q, axis=0)
        ul = np.quantile(u_lower, q, axis=0)
        ok &= _le(lower_q[i], fu) and _le(ul * math.cos(1.0 / oversample), lower_q[i])
        if upper_q is not None:
            ok &= _le(ul, upper_q[i]) and _le(upper_q[i], fu / (1.0 - 1.0 / oversample))
    return ok


def series_bounds(support, a0, a1, signs, r, real: bool, oversample: int = 16):
    """Reference (sup|u| lower or sup|f| lower for analytic, sup|f| upper)."""
    radial = np.power(float(r), support.astype(float))
    if real:
        c = (a0 * signs[:, 0] - 1j * a1 * signs[:, 1]) * radial
        u, f = ref.real_and_modulus(support, c, oversample)
        return u, f
    f = ref.circle_sup(support, a0 * signs * radial, False, oversample)
    return f, f


def check_ensemble(rep, seed, trials, support, mags, radii, real=True) -> bool:
    """EnsembleReport quantiles against per-trial reference brackets."""
    a1 = np.zeros_like(mags)
    u_lo = np.empty((trials, len(radii)))
    f_up = np.empty((trials, len(radii)))
    for t in range(trials):
        if real:
            signs = ref.rademacher(seed, t, 2 * len(support)).reshape(-1, 2)
        else:
            signs = ref.steinhaus(seed, t, len(support))
        for i, r in enumerate(radii):
            u, f = series_bounds(support, mags, a1, signs, r, real)
            u_lo[t, i], f_up[t, i] = u.lower, f.upper
    lower_q = (rep.lower_q10, rep.lower_med, rep.lower_q90)
    upper_q = (rep.upper_q10, rep.upper_med, rep.upper_q90)
    ok = np.allclose(rep.radii, radii, rtol=0, atol=1e-15)
    ok &= quantile_brackets_ok(Q_ENSEMBLE, lower_q, upper_q, u_lo, f_up, rep.config["oversample"])
    n = np.array([1.0 / (1.0 - r) for r in radii])
    logn = np.maximum(1.0, np.log(n))
    closed = {"sqrt_log": np.sqrt(logn),
              "sqrt_log_loglog": np.sqrt(logn * np.log(np.maximum(math.e, np.log(n))))}
    for name, g in closed.items():
        if name in rep.candidate_ratios:
            ok &= np.allclose(rep.candidate_ratios[name], np.asarray(rep.lower_med) / g,
                              rtol=1e-12, atol=0)
    return bool(ok)


def check_sz_row(row, seed, trials, support, mags, oversample=16.0) -> bool:
    """One Salem-Zygmund row (n_index, n, big_r, q05, q50, q95) against the
    Cesaro-weighted top block rebuilt from the closed-form scheme."""
    N, n = int(row[0]), int(row[1])
    lo = n // 2
    mask = (support > lo) & (support <= n)
    js = support[mask]
    jf = js.astype(float)
    b = (1.0 - jf / n) * mags[mask] * np.power(1.0 - 1.0 / n, jf)
    big_r = float(np.sum(b * b))
    denom = math.sqrt(big_r * max(1.0, math.log(n)))
    u_lo = np.empty((trials, 1))
    f_up = np.empty((trials, 1))
    for t in range(trials):
        signs = ref.rademacher(seed, t, 2 * len(js), lane=N).reshape(-1, 2)
        u, f = series_bounds(js, b, np.zeros_like(b), signs, 1.0, True)
        u_lo[t, 0], f_up[t, 0] = u.lower / denom, f.upper / denom
    ok = n == 2 ** N and math.isclose(row[2], big_r, rel_tol=1e-12)
    ok &= row[3] <= row[4] <= row[5]
    lower_q = [np.array([row[3]]), np.array([row[4]]), np.array([row[5]])]
    return bool(ok and quantile_brackets_ok(Q_SZ, lower_q, None, u_lo, f_up, oversample))


# -- tower_ensemble ------------------------------------------------------------------

class TowerEnsemble:
    """Criterion 06: loglog scheme to degree 65,536 at r_N = 1 - 2^(-2^N)."""

    unit = "trials"
    RADII = [1.0 - 2.0 ** -(2 ** N) for N in (2, 3, 4)]
    TRIALS = 2
    FAULT_SEED = 20260808     # trial 0 at r_3: the bracket lies above sup|u|

    def __init__(self, gl, seed, workdir):
        self.gl, self.seed = gl, seed
        self.support, self.mags = ref.loglog_coeffs(4)

    def build(self):
        gl = self.gl
        self.scheme = gl.loglog_energy_scheme(4)
        self.model = gl.make_model("rademacher")

    def config(self, seed, trials):
        return self.gl.ExperimentConfig(
            scheme={"name": "loglog", "k_max": 4}, model={"kind": "rademacher"},
            seed=seed, trials=trials, radii=self.RADII, oversample=16.0, refine=False,
            candidates=("sqrt_log", "sqrt_log_loglog"))

    def warm_up(self):
        self.gl.run_growth_ensemble(self.config(self.seed, 1))

    def round(self, index, timed):
        gl = self.gl
        seed = round_seed(self.seed, index)
        with timed():
            rep = gl.run_growth_ensemble(self.config(seed, self.TRIALS))
        out = [Outcome(check_ensemble(rep, seed, self.TRIALS, self.support, self.mags,
                                      self.RADII))]
        # known fault (a), on a fixed series: the real-flavor bracket of sup|u|
        r3 = self.RADII[1]
        series = gl.randomize(self.scheme, self.model, gl.SeedSpec(self.FAULT_SEED), 0)
        b = gl.sup_bracket(series, r3, oversample=16.0, refine=False)
        signs = ref.rademacher(self.FAULT_SEED, 0, 2 * len(self.support)).reshape(-1, 2)
        u, f = series_bounds(self.support, self.mags, np.zeros_like(self.mags), signs, r3, True)
        weak = _le(b.lower, f.upper) and _le(u.lower, b.upper)
        out.append(Outcome(weak and _le(b.lower, u.upper), known=weak))
        return out, self.TRIALS


# -- probe_scan -----------------------------------------------------------------------

class ProbeScan:
    """Criteria 08, 05 and 09: many small brackets, per-call overhead first."""

    unit = "brackets"
    SZ_TRIALS = 100
    SZ_N = (8, 10)
    CES_TRIALS = 20
    CES_RADII = (0.5, 0.9)
    CES_N = (10, 100)
    RIESZ_TERMS = (2, 3, 4, 5, 6)

    def __init__(self, gl, seed, workdir):
        self.gl, self.seed = gl, seed
        self.support, self.mags = ref.dyadic_saturating_coeffs(10)

    def build(self):
        gl = self.gl
        self.blocks = gl.block_sequence(gl.make_weight("power", 1.0), 2.0, 1, 10)
        self.scheme = gl.saturating_scheme(self.blocks, gl.NuSequence("sqrt"))
        self.model = gl.make_model("rademacher")

    def warm_up(self):
        gl = self.gl
        gl.salem_zygmund_probe(self.scheme, self.blocks, self.model, gl.SeedSpec(self.seed),
                               trials=1, n_list=self.SZ_N)
        gl.cesaro_domination_check(1, gl.SeedSpec(self.seed), 200, self.CES_RADII, self.CES_N)
        for n in self.RIESZ_TERMS:
            gl.riesz_probe(n)

    def round(self, index, timed):
        gl = self.gl
        seed = round_seed(self.seed, index)
        with timed():
            sz = gl.salem_zygmund_probe(self.scheme, self.blocks, self.model, gl.SeedSpec(seed),
                                        trials=self.SZ_TRIALS, n_list=self.SZ_N)
        with timed():
            dom = gl.cesaro_domination_check(self.CES_TRIALS, gl.SeedSpec(seed), 200,
                                             self.CES_RADII, self.CES_N)
        with timed():
            riesz = [gl.riesz_probe(n, sign_patterns=True) for n in self.RIESZ_TERMS]
        # one operation per Salem-Zygmund row, one for the Cesaro batch, one per Riesz row
        rows = {row.n_index: row for row in sz.rows}
        out = [Outcome(N in rows and check_sz_row(
            (N, rows[N].n, rows[N].big_r, rows[N].q05, rows[N].q50, rows[N].q95),
            seed, self.SZ_TRIALS, self.support, self.mags)) for N in self.SZ_N]
        out.append(Outcome(self.check_cesaro(dom, seed)))
        for n, rep in zip(self.RIESZ_TERMS, riesz):
            out += self.check_riesz(n, rep)
        per_trial = len(self.CES_RADII) * (1 + len(self.CES_N))
        brackets = (self.SZ_TRIALS * len(self.SZ_N) + self.CES_TRIALS * per_trial
                    + sum(2 ** (n - 1) for n in self.RIESZ_TERMS))
        return out, brackets

    def check_cesaro(self, dom, seed) -> bool:
        """No violations, and the worst margin upper(u) - lower(sigma_n u)
        within what the grid promise allows for the reference sups."""
        bound = math.inf
        for t in range(self.CES_TRIALS):
            support, a0, a1 = ref.gaussian_scheme(seed, t, 200)
            signs = ref.rademacher(seed, t, 2 * len(support)).reshape(-1, 2)
            for r in self.CES_RADII:
                _, f_full = series_bounds(support, a0, a1, signs, r, True)
                for n in self.CES_N:
                    keep = support < n
                    w = 1.0 - support[keep] / n
                    u_ces, _ = series_bounds(support[keep], a0[keep] * w, a1[keep] * w,
                                             signs[keep], r, True)
                    bound = min(bound, f_full.upper / (1.0 - 1.0 / 16.0)
                                - u_ces.lower * math.cos(1.0 / 16.0))
        cases = self.CES_TRIALS * len(self.CES_RADII) * len(self.CES_N)
        return (dom.cases == cases and dom.violations == 0 and dom.worst_margin >= -TOL
                and dom.worst_margin <= bound + TOL * abs(bound))

    @staticmethod
    def check_riesz(n, rep):
        """Every sign pattern of the 4-power comb, first sign fixed."""
        freqs = 4 ** np.arange(1, n + 1)
        out = []
        patterns = set()
        for row in rep.rows:
            patterns.add(row.pattern)
            u, f = ref.real_and_modulus(freqs, np.asarray(row.pattern, dtype=float), 64)
            lower = row.ratio * n
            weak = _le(lower, f.upper) and _le(u.lower * math.cos(1.0 / 64.0), lower)
            out.append(Outcome(weak and _le(lower, u.upper), known=weak))
        if len(patterns) != 2 ** (n - 1) or rep.c_emp != min(r.ratio for r in rep.rows):
            out = [Outcome(False) for _ in out]
        return out


# -- sphere_caps -------------------------------------------------------------------------

class SphereCaps:
    """Criterion 10: random degree-n combinations, cap fraction at alpha = 0.5."""

    unit = "cap fractions"
    DEGREES = (4, 8, 16, 32)
    ALPHA = 0.5

    def __init__(self, gl, seed, workdir):
        self.gl, self.seed = gl, seed

    def build(self):
        gl = self.gl
        self.basis = gl.build_basis(max(self.DEGREES))
        self.coverings = {n: gl.default_covering(n) for n in self.DEGREES}
        self.model = gl.make_model("rademacher")

    def warm_up(self):
        gl = self.gl
        series = gl.random_degree_combination(self.basis, 4, self.model, gl.SeedSpec(self.seed), 0)
        gl.cap_fraction(series, self.ALPHA, self.coverings[4])

    def round(self, index, timed):
        gl = self.gl
        seed = round_seed(self.seed, index)
        reps = {}
        for n in self.DEGREES:
            with timed():
                series = gl.random_degree_combination(self.basis, n, self.model,
                                                      gl.SeedSpec(seed), 0, lane=n)
                reps[n] = gl.cap_fraction(series, self.ALPHA, self.coverings[n])
        with timed():
            zonal = gl.cap_fraction(gl.SphereSeries(self.basis, ((1, 0, 1.0),)), self.ALPHA)
        rng = np.random.default_rng(seed)
        out = [Outcome(self.check_combination(n, reps[n], seed, int(rng.integers(2 * n + 1))))
               for n in self.DEGREES]
        # |z| >= 1/2 covers exactly half the sphere; lattice counts miss by O(1/K)
        out.append(Outcome(abs(zonal.fraction - 0.5) <= 2.0 / zonal.grid_K))
        return out, len(out)

    def constant(self, n, mu):
        """The program's element over the reference shape: scale / (2 mu - 1)!!."""
        return self.basis.scales[(n, mu)] / ref.double_factorial(2 * mu - 1)

    def check_combination(self, n, rep, seed, probe_l) -> bool:
        cov = self.coverings[n]
        pts = cov.points
        xi = ref.rademacher(seed, 0, 2 * n + 1, lane=n)
        values = np.zeros(len(pts))
        for l in range(2 * n + 1):
            mu, kind = ref.element_kind(l)
            values += xi[l] * self.constant(n, mu) * ref.sphere_element(n, mu, kind, pts)
        frac = ref.cap_fraction(values, self.ALPHA)
        ok = rep.degree == n and rep.grid_K == len(pts)
        ok &= abs(rep.fraction - frac) <= 4.0 / len(pts)
        # one sampled element: a constant multiple of the Legendre reference,
        # normalised so its sup lies in [norm_lower, 1]
        mu, kind = ref.element_kind(probe_l)
        prog = self.gl.SphereSeries(self.basis, ((n, probe_l, 1.0),)).evaluate(pts)
        expect = self.constant(n, mu) * ref.sphere_element(n, mu, kind, pts)
        top = float(np.max(np.abs(prog)))
        ok &= float(np.max(np.abs(prog - expect))) <= 1e-9 * top
        ok &= top <= 1.0 + 1e-12
        ok &= top >= self.basis.norm_lower[(n, mu)] * (1.0 - n * cov.radius)
        return bool(ok)


# -- cli_suite ---------------------------------------------------------------------------

def _csv_rows(path):
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _json(path):
    with open(path) as f:
        return json.load(f)


class CliSuite:
    """Every subcommand once per round through growthlab.cli.main, small sizes."""

    unit = "CLI runs"
    SAT = ["--scheme", "saturating", "--weight", "power:1", "--nu", "sqrt"]

    def __init__(self, gl, seed, workdir):
        self.gl, self.seed, self.workdir = gl, seed, workdir

    def build(self):
        import growthlab.cli
        # the module, not its function: a tracer replaces cli.main only while installed
        self.cli = growthlab.cli
        os.makedirs(self.workdir, exist_ok=True)
        self.config_path = os.path.join(self.workdir, "run.json")
        with open(self.config_path, "w") as f:
            json.dump({"subcommand": "scheme",
                       "argv": ["--scheme", "hadamard", "--weight", "power:1", "--k-max", "12"]}, f)

    def commands(self, seed, d):
        s = str(seed)
        return [
            ("weights", ["weights", "--family", "power", "--alpha", "1", "--ratio-A", "2",
                         "--k-max", "12"]),
            ("scheme", ["scheme", *self.SAT, "--k-max", "8"]),
            ("check", ["check", *self.SAT, "--k-max", "8", "--kind", "l2_log"]),
            ("census", ["census", "--scheme", "rudin_shapiro", "--weight", "power:1",
                        "--k-max", "8", "--p", "log"]),
            ("growth", ["growth", "--scheme", "loglog", "--k-max", "3", "--trials", "4",
                        "--seed", s]),
            ("analytic", ["analytic", "--scheme", "loglog", "--k-max", "3", "--trials", "4",
                          "--seed", s]),
            ("probe-sz", ["probe-sz", *self.SAT, "--k-max", "6", "--trials", "20",
                          "--n-list", "4,6", "--seed", s]),
            ("probe-riesz", ["probe-riesz", "--n-terms", "2,3"]),
            ("cap", ["cap", "--degrees", "2,4", "--combos", "2", "--seed", s]),
            ("bloch", ["bloch", "--scheme", "hadamard", "--weight", "power:1", "--k-max", "8",
                       "--w-weight", "power:1"]),
            ("run", ["run", "--config", self.config_path]),
            # known fault (b): check never reads --config
            ("bad-config", ["check", "--config", os.path.join(d, "missing.json"),
                            "--scheme", "loglog", "--k-max", "2"]),
            # known fault (c): a NaN radius passes validation
            ("nan-radius", ["growth", "--scheme", "loglog", "--k-max", "2", "--trials", "2",
                            "--radii", "0.5,nan"]),
        ]

    def warm_up(self):
        self.round(0, contextlib.nullcontext)

    def round(self, index, timed):
        seed = round_seed(self.seed, index)
        d = os.path.join(self.workdir, f"round{index}")
        codes = {}
        sink = io.StringIO()
        for name, argv in self.commands(seed, d):
            argv = argv + ["--out", os.path.join(d, name)]
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), timed():
                codes[name] = self.cli.main(argv)
            sink.seek(0)
            sink.truncate()
        out = []
        for name, _ in self.commands(seed, d):
            if name in ("bad-config", "nan-radius"):
                out.append(Outcome(codes[name] == 2, known=True))
                continue
            path = os.path.join(d, name)
            try:
                ok = (codes[name] == 0
                      and _json(os.path.join(path, "manifest.json"))["status"] == "complete"
                      and getattr(self, "check_" + name.replace("-", "_"))(path, seed, d))
            except (OSError, KeyError, ValueError, IndexError):
                ok = False
            out.append(Outcome(ok))
        shutil.rmtree(d, ignore_errors=True)
        return out, len(out)

    # each check recomputes the output from its closed form

    @staticmethod
    def check_weights(path, seed, d):
        rows = _csv_rows(os.path.join(path, "blocks.csv"))
        ok = [(int(k), int(n), float(g)) for k, n, g in rows] == \
            [(k, 2 ** k, float(2 ** k)) for k in range(13)]
        return ok and abs(_json(os.path.join(path, "audit.json"))["d_hat"] - 2.0) <= 1e-9

    @staticmethod
    def _scheme_ok(csv_path, support, cos):
        rows = _csv_rows(csv_path)
        j = np.array([int(r[0]) for r in rows])
        a = np.array([[float(r[1]), float(r[2])] for r in rows])
        return (np.array_equal(j, support) and np.allclose(a[:, 0], cos, rtol=1e-12, atol=0)
                and not a[:, 1].any())

    def check_scheme(self, path, seed, d):
        js, mags = ref.dyadic_saturating_coeffs(8)
        return self._scheme_ok(os.path.join(path, "scheme.csv"), js, mags)

    @staticmethod
    def check_check(path, seed, d):
        """l2_log score recomputed from the scheme.csv the scheme run wrote."""
        dense = np.zeros(257)
        for r in _csv_rows(os.path.join(d, "scheme", "scheme.csv")):
            dense[int(r[0])] = math.hypot(float(r[1]), float(r[2]))
        n = np.arange(1, 257)
        ratios = np.sqrt(np.cumsum(dense ** 2)[1:]) * np.sqrt(np.maximum(1.0, np.log(n))) / n
        score = _json(os.path.join(path, "score.json"))
        return (math.isclose(score["score"], float(ratios.max()), rel_tol=1e-12)
                and score["witness"] == int(n[np.argmax(ratios)]))

    @staticmethod
    def check_census(path, seed, d):
        """|a_j| = 2^((k+1)/2) on block k against log(j + 2) sqrt(j)."""
        j = np.arange(1, 257)
        k = np.ceil(np.log2(j)).astype(int)
        mags = np.where(j >= 2, np.sqrt(2.0 ** (k + 1)), 0.0)
        count = np.cumsum(mags <= np.log(j + 2.0) * j / np.sqrt(j))
        rows = _csv_rows(os.path.join(path, "census.csv"))
        got = [(int(r[0]), int(r[1])) for r in rows]
        return got == [(2 ** i, int(count[2 ** i - 1])) for i in range(9)] and \
            os.path.exists(os.path.join(path, "liminf.csv"))

    @staticmethod
    def _ensemble_ok(path, seed, real):
        rep = SimpleNamespace(**_json(os.path.join(path, "report.json")))
        js, mags = ref.loglog_coeffs(3)
        radii = [1.0 - 1.0 / n for n in ref.TOWER[:4]]
        return rep.config["seed"] == seed and check_ensemble(rep, seed, 4, js, mags, radii, real)

    def check_growth(self, path, seed, d):
        return self._ensemble_ok(path, seed, True)

    def check_analytic(self, path, seed, d):
        return self._ensemble_ok(path, seed, False)

    @staticmethod
    def check_probe_sz(path, seed, d):
        js, mags = ref.dyadic_saturating_coeffs(6)
        rows = [[float(x) for x in r] for r in _csv_rows(os.path.join(path, "sz.csv"))]
        return [int(r[0]) for r in rows] == [4, 6] and all(
            check_sz_row((r[0], r[1], r[2], r[4], r[5], r[6]), seed, 20, js, mags) for r in rows)

    @staticmethod
    def check_probe_riesz(path, seed, d):
        """All-equal positive coefficients peak at theta = 0: every ratio is 1."""
        rows = _csv_rows(os.path.join(path, "riesz.csv"))
        return [int(r[0]) for r in rows] == [2, 3] and \
            all(abs(float(r[3]) - 1.0) <= 1e-9 for r in rows)

    @staticmethod
    def check_cap(path, seed, d):
        rows = [[float(x) for x in r] for r in _csv_rows(os.path.join(path, "cap.csv"))]
        ok = [int(r[0]) for r in rows] == [2, 2, 4, 4]
        for n, alpha, frac, K, c in rows:
            count = frac * K
            ok &= (alpha == 0.5 and K == 4096 and 0 < frac <= 1
                   and abs(count - round(count)) <= 1e-6 and math.isclose(c, frac * n * n))
        return ok

    @staticmethod
    def check_bloch(path, seed, d):
        """Hadamard coefficients 2^k at n_k = 2^k, Bloch weight power:1:
        block_l2 = 4^k, target = 2^k, ratio = 2^k sqrt(max(1, k ln 2))."""
        rows = [[float(x) for x in r] for r in _csv_rows(os.path.join(path, "bloch_targets.csv"))]
        ok = len(rows) == 8
        for k, nk, l2, target, rhs, ratio in rows:
            lg = max(1.0, k * math.log(2.0))
            ok &= (nk == 2 ** k and math.isclose(l2, 4.0 ** k, rel_tol=1e-12)
                   and math.isclose(target, 2.0 ** k, rel_tol=1e-12)
                   and math.isclose(rhs, 2.0 ** k / math.sqrt(lg), rel_tol=1e-12)
                   and math.isclose(ratio, 2.0 ** k * math.sqrt(lg), rel_tol=1e-12))
        return ok

    def check_run(self, path, seed, d):
        k = np.arange(13)
        return self._scheme_ok(os.path.join(path, "scheme.csv"), 2 ** k, 2.0 ** k)


WORKLOADS = {"tower_ensemble": TowerEnsemble, "probe_scan": ProbeScan,
             "sphere_caps": SphereCaps, "cli_suite": CliSuite}
