"""Monte Carlo ensembles and brute-force probes.

Everything here is reproducible: configs serialize to canonical JSON, trials
derive independent Philox streams from (seed, trial), and aggregation sorts
by trial id, so neither execution order nor the grouping of trials into the
stacks of one bracket call can change a single output byte.  Quantiles
(q10/median/q90) summarize the typical behavior that almost-sure statements
are about, without heavy-tail distortion.

Probes:

  run_growth_ensemble     certified sup brackets per trial and radius, with
                          median ratios against candidate growth functions
  salem_zygmund_probe     distribution of max |h_N| / sqrt(R log n_N) for the
                          Cesaro-weighted top block h_N at radius 1 - 1/n_N
  riesz_probe             certified lower bounds of sup / n for shifted n-term
                          4-power cosine combs, optionally over sign patterns
  cesaro_domination_check batched property test that no Cesaro mean can
                          exceed the function's certified sup
  fit_growth              ranks candidate growth functions by flatness of the
                          log median ratio across radii
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .disk import (ANALYTIC, BLOCK_BYTES, REAL_HARMONIC, PlanSlot, check_oversample,
                   randomize, sup_brackets)
from .errors import fail, is_number
from .randomness import RandomModel, SeedSpec, make_model, model_from_json
from .reporting import canonical_json, config_hash, record_json
from . import schemes
from .schemes import (CoefficientScheme, clamped_log, scheme_from_arrays,
                      scheme_from_provenance)

# -- named growth candidates ---------------------------------------------------

def _sqrt_log(x):
    return np.sqrt(np.maximum(1.0, np.log(x)))


def _sqrt_log_loglog(x):
    lx = np.maximum(np.e, np.log(np.asarray(x, dtype=float)))
    return np.sqrt(np.maximum(1.0, np.log(x)) * np.log(lx))


GROWTH_CANDIDATES: dict = {
    "sqrt_log": _sqrt_log,
    "sqrt_log_loglog": _sqrt_log_loglog,
}


def resolve_candidate(name: str) -> Callable:
    if name in GROWTH_CANDIDATES:
        return GROWTH_CANDIDATES[name]
    if ":" in name:
        from .weights import parse_weight_spec, eval_g
        w = parse_weight_spec(name)
        return lambda x: eval_g(w, x)
    fail("CONFIG_INVALID", f"unknown growth candidate {name!r}")


# -- random schemes ---------------------------------------------------------------

RANDOM_SCHEME_LANE = 7    # the Philox lane of random_scheme's draws


def random_scheme(seed_spec: SeedSpec, trial: int, degree: int,
                  both: bool = True) -> CoefficientScheme:
    """Gaussian random scheme on 0..degree for the Cesaro check and property tests;
    its provenance records the draw, but scheme_from_provenance does not rebuild it."""
    rng = seed_spec.generator(trial, RANDOM_SCHEME_LANE)
    n_entries = degree + 1
    # the support is all of 0..degree; its draw stays, since the coefficients follow it
    support = np.sort(rng.choice(n_entries, size=n_entries, replace=False))
    cos = rng.standard_normal(n_entries)
    sin = rng.standard_normal(n_entries) if both else np.zeros(n_entries)
    prov = {"name": "random", "seed": seed_spec.master_seed, "trial": trial,
            "degree": degree, "both": both}
    return scheme_from_arrays(support, cos, sin, degree, prov)


# -- growth ensembles -----------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Fully serializable ensemble description; identical config, identical bytes.

    The fields are the config file's keys, its JSON form and what its hash
    covers.  Building one is the only place that checks and converts the
    fields, so a bad value fails before anything is written.
    """

    scheme: dict
    model: dict
    seed: int
    trials: int
    radii: object = "block"            # "block" or explicit list of floats
    oversample: float = 16.0
    refine: bool = False               # refinement off for bulk Monte Carlo
    candidates: tuple = ("sqrt_log", "sqrt_log_loglog")
    flavor: str = REAL_HARMONIC
    max_evals: float = 1e11

    def __post_init__(self):
        def need(ok, name, what):
            if not ok:
                fail("CONFIG_INVALID", f"{name} must be {what}, got {getattr(self, name)!r}")

        for name in ("seed", "trials"):
            need(is_number(getattr(self, name), numbers.Integral), name, "an integer")
        if self.trials < 1:
            fail("DOMAIN", f"need at least one trial, got {self.trials}")
        for name in ("oversample", "max_evals"):
            need(is_number(getattr(self, name), numbers.Real), name, "a number")
            object.__setattr__(self, name, float(getattr(self, name)))
        check_oversample(self.oversample)
        need(isinstance(self.refine, bool), "refine", "true or false")
        need(isinstance(self.candidates, (list, tuple)) and self.candidates
             and all(isinstance(c, str) for c in self.candidates)
             and len(set(self.candidates)) == len(self.candidates),
             "candidates", "a non-empty list of distinct names")
        object.__setattr__(self, "candidates", tuple(self.candidates))
        for name in self.candidates:
            resolve_candidate(name)
        need(self.flavor in (REAL_HARMONIC, ANALYTIC), "flavor",
             f"{REAL_HARMONIC!r} or {ANALYTIC!r}")
        need(isinstance(self.scheme, dict), "scheme", "a JSON object")
        # scheme and model as their builds record them, so equal runs hash equal
        object.__setattr__(self, "scheme", scheme_from_provenance(self.scheme).provenance)
        model = model_from_json(self.model)
        object.__setattr__(self, "model", model.to_json())
        if model.is_complex and self.flavor == REAL_HARMONIC:
            fail("FLAVOR_MISMATCH", "complex steinhaus signs require the analytic flavor")
        if isinstance(self.radii, str) and self.radii == "block":
            return
        need(isinstance(self.radii, (list, tuple)) and self.radii
             and all(is_number(r, numbers.Real) for r in self.radii),
             "radii", '"block" or a non-empty list of numbers')
        object.__setattr__(self, "radii", [float(r) for r in self.radii])
        if not all(0.0 <= r < 1.0 for r in self.radii):
            fail("RADIUS_OUT_OF_RANGE",
                 f"ensemble radii need a finite 0 <= r < 1, got {self.radii}")

    to_json = record_json             # every field, tuples as lists

    @property
    def hash(self) -> str:
        return config_hash(self.to_json())


def config_from_json(d: dict) -> ExperimentConfig:
    """Build a config from a JSON object keyed by its field names."""
    if not isinstance(d, dict):
        fail("CONFIG_INVALID", f"an ensemble config must be a JSON object, got {type(d).__name__}")
    required = {f.name: f.default is MISSING for f in fields(ExperimentConfig)}
    missing = [k for k, needed in required.items() if needed and k not in d]
    unknown = sorted(set(d) - set(required))
    if missing or unknown:
        fail("CONFIG_INVALID", f"ensemble config keys: missing {missing}, unknown {unknown}")
    return ExperimentConfig(**d)


@dataclass(frozen=True)
class EnsembleReport:
    config: dict
    config_hash: str
    radii: tuple
    n_of_r: tuple
    lower_q10: tuple
    lower_med: tuple
    lower_q90: tuple
    upper_q10: tuple
    upper_med: tuple
    upper_q90: tuple
    candidate_ratios: dict          # name -> tuple of median lower / candidate(n_of_r)
    wall_time: float = field(default=0.0, compare=False)   # outside the canonical bytes

    canonical_payload = record_json   # every field but wall_time, tuples as lists

    def canonical_bytes(self) -> bytes:
        return canonical_json(self.canonical_payload()).encode("utf-8")

    def to_json(self) -> dict:
        d = self.canonical_payload()
        d["wall_time"] = self.wall_time
        return d

    def quantile_rows(self):
        return list(zip(self.radii, self.n_of_r, self.lower_q10, self.lower_med,
                        self.lower_q90, self.upper_q10, self.upper_med, self.upper_q90))


ENSEMBLE_CSV_HEADER = ["r", "n_of_r", "lower_q10", "lower_med", "lower_q90",
                       "upper_q10", "upper_med", "upper_q90"]


def _resolve_radii(cfg: ExperimentConfig):
    if cfg.radii == "block":
        prov = cfg.scheme
        blocks = prov.get("blocks")
        if blocks is not None:
            ns = blocks["n"]
        elif prov.get("name") == "loglog":
            ns = schemes.TOWER_BLOCKS[:prov["k_max"] + 1]
        else:
            fail("CONFIG_INVALID", "radii rule 'block' needs a block-based scheme")
        return [1.0 - 1.0 / n for n in ns if n >= 2]
    return cfg.radii


def _estimate_evals(cfg, scheme, radii) -> float:
    total = 0.0
    deg = scheme.max_degree
    for r in radii:
        reach = min(deg, 60.0 / (1.0 - r))
        total += cfg.oversample * math.pi * max(reach, 1.0) * math.log2(max(reach, 2.0))
    return total * cfg.trials


def _trial_chunks(scheme: CoefficientScheme, model: RandomModel, seed_spec: SeedSpec,
                  trials: int, **draw):
    """(rows, coeffs) per chunk of consecutive trials: their slice of trial ids and
    their signed_complex_coeffs stacked, about BLOCK_BYTES and one trial at least."""
    per = max(1, BLOCK_BYTES // (16 * max(scheme.size, 1)))
    for first in range(0, trials, per):
        rows = slice(first, first + per)
        yield rows, np.stack([randomize(scheme, model, seed_spec, t, **draw)
                              .signed_complex_coeffs() for t in range(trials)[rows]])


def run_growth_ensemble(config: ExperimentConfig) -> EnsembleReport:
    """Randomize, bracket and aggregate; deterministic given the config."""
    scheme = scheme_from_provenance(config.scheme)
    radii = _resolve_radii(config)
    model = model_from_json(config.model)
    seed = SeedSpec(config.seed)
    cost = _estimate_evals(config, scheme, radii)
    if cost > config.max_evals:
        fail("BUDGET_EXCEEDED",
             f"estimated {cost:.3g} evaluations exceed the budget {config.max_evals:.3g}")
    t0 = time.monotonic()
    slots = [PlanSlot(scheme.support, r) for r in radii]   # chunks share r^j and plans
    lowers = np.empty((config.trials, len(radii)))
    uppers = np.empty((config.trials, len(radii)))
    for rows, coeffs in _trial_chunks(scheme, model, seed, config.trials, flavor=config.flavor):
        for i, slot in enumerate(slots):
            brackets = sup_brackets(coeffs, slot, config.oversample, config.refine,
                                    config.flavor)
            lowers[rows, i] = [b.lower for b in brackets]
            uppers[rows, i] = [b.upper for b in brackets]
    q10, med, q90 = (np.quantile(lowers, q, axis=0) for q in (0.10, 0.50, 0.90))
    uq10, upmed, uq90 = (np.quantile(uppers, q, axis=0) for q in (0.10, 0.50, 0.90))
    n_of_r = [1.0 / (1.0 - r) for r in radii]
    ratios = {}
    for name in config.candidates:
        fn = resolve_candidate(name)
        cand = np.atleast_1d(np.asarray(fn(np.asarray(n_of_r, dtype=float)), dtype=float))
        ratios[name] = tuple(float(v) for v in (med / cand))
    return EnsembleReport(
        config=config.to_json(), config_hash=config.hash,
        radii=tuple(radii), n_of_r=tuple(n_of_r),
        lower_q10=tuple(float(v) for v in q10), lower_med=tuple(float(v) for v in med),
        lower_q90=tuple(float(v) for v in q90),
        upper_q10=tuple(float(v) for v in uq10), upper_med=tuple(float(v) for v in upmed),
        upper_q90=tuple(float(v) for v in uq90),
        candidate_ratios=ratios, wall_time=time.monotonic() - t0)


# -- Salem-Zygmund probe ---------------------------------------------------------

@dataclass(frozen=True)
class SzRow:
    n_index: int          # block position N
    n: int                # n_N
    big_r: float          # sum of b_j^2
    t4_ratio: float       # (sum b_j^4) * n / R^2, the flatness hypothesis constant
    q05: float
    q50: float
    q95: float


@dataclass(frozen=True)
class SzReport:
    rows: tuple

    def row_for(self, n_index: int) -> SzRow:
        for r in self.rows:
            if r.n_index == n_index:
                return r
        raise KeyError(n_index)


PROBE_OVERSAMPLE = 16.0   # the grid of every Salem-Zygmund and Cesaro domination bracket


def sz_block(scheme: CoefficientScheme, blocks, N: int):
    """The Salem-Zygmund top block h_N: support n_{N-1} < j <= n_N, coefficients
    (1 - j/n_N) a_j r_N^j at r_N = 1 - 1/n_N, their square sum R, and n_N; refused
    (BLOCKS_TOO_SHORT, EMPTY_BLOCKS) where no block or no weighted mass exists, and
    (BUDGET_EXCEEDED) where the probe's grid at the top nonzero degree passes MAX_GRID."""
    if N < 1 or N > blocks.k_max:
        fail("BLOCKS_TOO_SHORT", f"block position {N} outside 1..{blocks.k_max}")
    lo, hi = blocks.n[N - 1], blocks.n[N]
    r_N = 1.0 - 1.0 / hi
    mask = (scheme.support > lo) & (scheme.support <= hi)
    js = scheme.support[mask]
    if len(js) == 0:
        fail("EMPTY_BLOCKS", f"scheme has no coefficients in block {N}")
    jf = js.astype(float)
    b = (1.0 - jf / hi) * scheme.magnitudes()[mask] * np.power(r_N, jf)
    big_r = float(np.sum(b * b))
    if big_r == 0.0:
        fail("EMPTY_BLOCKS",
             f"block {N} carries no Cesaro-weighted mass (support only at j = n_N?)")
    PlanSlot(js, 1.0).grid(int(js[b != 0][-1]), PROBE_OVERSAMPLE)
    return js, b, big_r, hi


def salem_zygmund_probe(scheme: CoefficientScheme, blocks, model: RandomModel,
                        seed_spec: SeedSpec, trials: int, n_list: Sequence[int]) -> SzReport:
    """Distribution of the normalized top-block max.

    For block position N the probe takes the top block h_N of sz_block,
    draws signs per trial, and records max_theta |h_N| / sqrt(R log n_N).
    The flatness ratio (sum b^4) n / R^2 is reported per N so callers can
    confirm the regime where such maxima concentrate.
    """
    if trials < 1:
        fail("DOMAIN", f"need at least one trial, got {trials}")
    rows = []
    for N in n_list:
        js, b, big_r, hi = sz_block(scheme, blocks, N)
        t4 = float(np.sum(b ** 4))
        t4_ratio = t4 * hi / big_r**2
        hsch = scheme_from_arrays(js, b, np.zeros_like(b), int(hi),
                                  {"name": "sz_block", "N": int(N)})
        denom = math.sqrt(big_r * float(clamped_log(hi)))
        slot, maxima = PlanSlot(hsch.support, 1.0), np.empty(trials)
        for chunk, coeffs in _trial_chunks(hsch, model, seed_spec, trials, lane=int(N)):
            maxima[chunk] = [b.lower for b in sup_brackets(coeffs, slot, PROBE_OVERSAMPLE,
                                                          False, REAL_HARMONIC)]
        normed = maxima / denom
        q05, q50, q95 = (float(np.quantile(normed, q)) for q in (0.05, 0.50, 0.95))
        rows.append(SzRow(n_index=int(N), n=int(hi), big_r=big_r, t4_ratio=t4_ratio,
                          q05=q05, q50=q50, q95=q95))
    return SzReport(rows=tuple(rows))


# -- Riesz probe ------------------------------------------------------------------

@dataclass(frozen=True)
class RieszRow:
    offset: int
    pattern: tuple
    ratio: float          # certified lower bound of sup / sum |c|


@dataclass(frozen=True)
class RieszReport:
    rows: tuple
    c_emp: float          # min ratio over all tested configurations


RIESZ_CSV_HEADER = ["offset", "pattern", "ratio"]
RIESZ_OVERSAMPLE = 64.0   # the grid of every Riesz comb bracket


def riesz_comb(n_terms: int, offset: int) -> np.ndarray:
    """The frequencies N + 4^j, j = 1..n_terms, of the comb at offset N >= -4; refused
    (DOMAIN) where one is negative or above int64, and (BUDGET_EXCEEDED) where the
    grid of its brackets, sized as they size it, passes MAX_GRID."""
    if not (1 <= n_terms <= 8):
        fail("DOMAIN", f"n_terms must lie in 1..8, got {n_terms}")
    if offset < -4:
        fail("DOMAIN", f"offset must be >= -4 so that every frequency is >= 0, got {offset}")
    freqs = [4 ** j + int(offset) for j in range(1, n_terms + 1)]     # Python ints: no wrap
    if freqs[-1] > np.iinfo(np.int64).max:
        fail("DOMAIN", f"offset {offset} puts the top frequency {freqs[-1]} above int64")
    comb = np.array(freqs, dtype=np.int64)
    PlanSlot(comb, 1.0).grid(freqs[-1], RIESZ_OVERSAMPLE)
    return comb


def riesz_probe(n_terms: int, offsets: Sequence[int] = (0,),
                sign_patterns: bool = False) -> RieszReport:
    """Certified lower bounds for || sum eps_j cos((N + 4^j) theta) || / n_terms.

    With all signs eps_j = +1 the sup is attained at theta = 0 and every
    ratio is exactly 1; scanning sign patterns (first sign fixed by
    symmetry) probes the nontrivial absolute constant.
    """
    combs = [(int(off), riesz_comb(n_terms, off)) for off in offsets]
    if not combs:
        fail("DOMAIN", "need at least one offset")
    if sign_patterns and n_terms > 1:
        from itertools import product
        patterns = [(1,) + p for p in product((1, -1), repeat=n_terms - 1)]
    else:
        patterns = [(1,) * n_terms]
    signs = np.array(patterns, dtype=complex)    # the coefficients of every sign pattern
    rows = []
    for off, freqs in combs:
        brackets = sup_brackets(signs, PlanSlot(freqs, 1.0), RIESZ_OVERSAMPLE, True,
                                REAL_HARMONIC)
        rows += [RieszRow(offset=off, pattern=pat, ratio=b.lower / n_terms)
                 for pat, b in zip(patterns, brackets)]
    c_emp = min(r.ratio for r in rows)
    return RieszReport(rows=tuple(rows), c_emp=c_emp)


# -- Cesaro domination ---------------------------------------------------------------

@dataclass(frozen=True)
class DominationReport:
    cases: int
    violations: int
    worst_margin: float    # min over cases of upper(u) - lower(sigma_n u)


DOMINATION_RTOL = 1e-9


def cesaro_domination_check(trials: int, seed_spec: SeedSpec,
                            degree: int = 200, radii: Sequence[float] = (0.5, 0.9),
                            n_list: Sequence[int] = (10, 100)) -> DominationReport:
    """No Cesaro mean may exceed the certified sup of the function by more
    than DOMINATION_RTOL of max(1, sup)."""
    if trials < 1:
        fail("DOMAIN", f"need at least one trial, got {trials}")
    if degree < 0:
        fail("DOMAIN", f"degree must be >= 0, got {degree}")
    model = make_model("rademacher")
    support = np.arange(degree + 1)     # every trial's: random_scheme fills 0..degree
    # one row of signed coefficients c_j per trial; sigma_n u has c_j (1 - j/n), j < n
    coeffs = np.stack([randomize(random_scheme(seed_spec, t, degree), model, seed_spec, t)
                       .signed_complex_coeffs() for t in range(trials)])
    margins = []
    for r in radii:
        full = sup_brackets(coeffs, PlanSlot(support, r), PROBE_OVERSAMPLE, False, REAL_HARMONIC)
        for n in n_list:
            kept = support[support < n]
            ces = sup_brackets(coeffs[:, :len(kept)] * (1.0 - kept / float(n)),
                               PlanSlot(kept, r), PROBE_OVERSAMPLE, True, REAL_HARMONIC)
            margins += [(f.upper, f.upper - c.lower) for f, c in zip(full, ces)]
    violations = sum(m < -DOMINATION_RTOL * max(1.0, up) for up, m in margins)
    return DominationReport(cases=len(margins), violations=violations,
                            worst_margin=min((m for _, m in margins), default=math.inf))


# -- growth fitting --------------------------------------------------------------------

@dataclass(frozen=True)
class FitRow:
    name: str
    slope: float


@dataclass(frozen=True)
class FitResult:
    rows: tuple           # sorted flattest first

    @property
    def best(self) -> str:
        return self.rows[0].name


def fit_growth(report: EnsembleReport) -> FitResult:
    """Rank the report's candidates by |slope| of log(median ratio) over checkpoints."""
    if len(report.radii) < 3:
        fail("INSUFFICIENT_RADII", f"need >= 3 radii, got {len(report.radii)}")
    idx = np.arange(len(report.radii), dtype=float)
    rows = []
    for name, ratios in report.candidate_ratios.items():
        ratios = np.asarray(ratios, dtype=float)
        if np.any(ratios <= 0):
            slope = math.inf
        else:
            slope = float(np.polyfit(idx, np.log(ratios), 1)[0])
        rows.append(FitRow(name=name, slope=slope))
    rows.sort(key=lambda r: abs(r.slope))
    return FitResult(rows=tuple(rows))
