"""Command-line front end.

Subcommands map onto the library's statement families:

  weights       block sequence CSV for a weight and ratio
  scheme        build and persist a coefficient scheme
  check         cumulative sup-ratio scores (l2_cum, l1_cum, l1_sqrt, l2_log)
  census        coefficient census and liminf profile
  growth        Monte Carlo growth ensemble with candidate ratios
  probe-sz      normalized top-block maxima distribution
  probe-riesz   certified lower bounds for shifted 4-power cosine combs
  cap           sphere cap fractions for random combinations
  bloch         blockwise scores of the radial derivative against 1/w
  analytic      growth ensemble in the analytic flavor
  run           dispatch any of the above from a JSON config

Every run directory receives a manifest.json (config hash, seed, version,
wall time) sufficient to reproduce the outputs byte for byte; the seed is null
for the runs that draw no random numbers, which take no --seed.  It is written
as "running" before the work starts and rewritten at the end as "complete",
or as "failed" with the error code.  Exit codes: 0 success, 2 validation
error (line-delimited JSON diagnostic on stderr), 1 internal error.  stdout
carries progress and summary text only; results go to files.

Each subcommand's parser is built once per process, at its first run, and
every later run in the process (a `run` dispatch too) reuses it; parsing
changes no parser, so nothing carries from one run to the next.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
import time

from . import __version__
from .census import CENSUS_CSV_HEADER, LiminfRow, coefficient_census, liminf_profile
from .criteria import RATIO_KINDS, BlockRow, Checkpoint, score_blockwise, score_sup_ratio
from .disk import ANALYTIC, REAL_HARMONIC, PlanSlot
from .errors import GrowthLabError, fail
from .mclab import (ENSEMBLE_CSV_HEADER, RIESZ_CSV_HEADER, RIESZ_OVERSAMPLE, ExperimentConfig,
                    SzRow, config_from_json, fit_growth, riesz_comb, riesz_probe,
                    run_growth_ensemble, salem_zygmund_probe, scheme_from_provenance, sz_block)
from .randomness import SeedSpec, make_model
from .reporting import config_hash, write_csv, write_json, write_records, write_text
from .schemes import (NU_KINDS, SCHEMES, NuSequence, blocks_from_provenance,
                      blocks_provenance, radial_derivative, scheme_fields)
from .sphere import (CAP_CSV_HEADER, MAX_BASIS_DEGREE, build_basis, cap_fraction,
                     default_covering, random_degree_combination)
from .weights import block_sequence, doubling_audit, make_weight, parse_weight_spec


class _Parser(argparse.ArgumentParser):
    # argparse exits on error; surface a JSON diagnostic instead
    def error(self, message):
        fail("CONFIG_INVALID", message)


def diagnostic(code: str, detail: str, pointer: str = ""):
    """Print the JSON diagnostic of a validation error to stderr."""
    payload = {"error": code, "detail": detail}
    if pointer:
        payload["pointer"] = pointer
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def coded_exit(body):
    """body, with a GrowthLabError printed as its JSON diagnostic and exit code 2."""
    def run(*args):
        try:
            return body(*args)
        except GrowthLabError as e:
            diagnostic(e.code, str(e), e.pointer)
            return 2
    return run


@contextlib.contextmanager
def _blame(pointer):
    """Point a GrowthLabError raised inside at the input `pointer` names."""
    try:
        yield
    except GrowthLabError as e:
        e.pointer = pointer
        raise


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        return coded_exit(_dispatch)(argv)
    except Exception as e:  # internal error
        diagnostic("INTERNAL", f"{type(e).__name__}: {e}")
        return 1


class _Run:
    """One subcommand run: its output directory, manifest and given flags."""

    def __init__(self, name, out, given):
        self.name = name
        self.out = out
        self.given = given        # dests of the flags on the command line, --out aside
        self.manifest = None      # set once the "running" manifest is on disk

    def start(self, cfg, seed=None, config_path=None):
        """Create the output directory and write the manifest as running."""
        digest = config_hash(cfg)         # fails on a non-finite value, before any write
        os.makedirs(self.out, exist_ok=True)
        self.notes = ([] if seed is None else [f"seed: {seed}"]) + [f"config_hash: {digest}"]
        self.started = time.monotonic()
        man = {"subcommand": self.name, "config": cfg, "config_path": config_path,
               "config_hash": digest, "output_dir": os.path.abspath(self.out),
               "tool_version": __version__, "seed": seed, "status": "running"}
        write_json(self.path("manifest.json"), man)
        self.manifest = man

    def path(self, filename) -> str:
        return os.path.join(self.out, filename)

    def finish(self, status, **extra):
        self.manifest.update(status=status, **extra)
        write_json(self.path("manifest.json"), self.manifest)


def _dispatch(argv) -> int:
    if not argv:
        fail("UNKNOWN_SUBCOMMAND", f"expected one of {', '.join(SUBCOMMANDS)}")
    cmd = argv[0]
    if cmd in ("-h", "--help"):
        print("growthlab subcommands: " + ", ".join(SUBCOMMANDS))
        return 0
    if cmd not in SUBCOMMANDS:
        fail("UNKNOWN_SUBCOMMAND", f"unknown subcommand {cmd!r}; "
             f"expected one of {', '.join(SUBCOMMANDS)}")
    _, body = SUBCOMMANDS[cmd]
    parser = _parser(cmd)
    args = parser.parse_args(argv[1:])
    # the flags given on the command line: argparse fills in no default for a name
    # the namespace already holds, so a reparse into a namespace of markers keeps them
    unset = object()
    marked = parser.parse_args(argv[1:], argparse.Namespace(**dict.fromkeys(vars(args), unset)))
    given = [k for k, v in vars(marked).items() if v is not unset and k != "out"]
    others = [k for k in given if k != "config"]
    if "config" in given and others:        # --config replaces every flag but --out
        fail("CONFIG_INVALID", "--config replaces the other flags; also given: "
             + ", ".join("--" + k.replace("_", "-") for k in others))
    run = _Run(cmd, args.out or os.path.join("growthlab_out", cmd), given)
    try:
        code = body(args, run)
    except Exception as e:
        if run.manifest is not None:
            failed = e.code if isinstance(e, GrowthLabError) else "INTERNAL"
            run.finish("failed", error=failed)
        raise
    if run.manifest is not None:
        run.finish("complete", wall_time=time.monotonic() - run.started)
    return code or 0


@functools.cache
def _parser(cmd):
    """The subcommand's parser, built once per process; parsing leaves it as it was."""
    p = _Parser(prog=f"growthlab {cmd}")
    p.add_argument("--out", default=None, help="output directory")
    for flag, spec in SUBCOMMANDS[cmd][0]:
        p.add_argument(flag, **spec)
    return p


def _load_config(path) -> dict:
    if not os.path.exists(path):
        fail("CONFIG_INVALID", f"config file not found: {path}")
    try:
        with open(path) as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        fail("CONFIG_INVALID", f"config is not valid JSON: {e}")


# provenance field -> (the scheme flags that build it, its value from them)
_FLAG_FIELDS = {
    "k_max": (("k_max",), lambda a: a.k_max),
    "rule": (("rule",), lambda a: a.rule),
    "fill_both": ((), lambda a: False),
    "nu": (("nu",), lambda a: {"kind": a.nu}),
    "blocks": (("weight", "ratio_A", "n0", "k_max"), lambda a: blocks_provenance(
        block_sequence(parse_weight_spec(a.weight), a.ratio_A, a.n0, a.k_max))),
}


def _scheme_provenance(args, run, own=()) -> dict:
    """The scheme's provenance from its flags.  A given scheme flag that neither
    the scheme nor the subcommand (`own`) reads is refused, not ignored."""
    if args.scheme is None:
        fail("CONFIG_INVALID", "missing --scheme", pointer="/scheme")
    fields = scheme_fields(args.scheme)
    read = set(own).union(*(_FLAG_FIELDS[f][0] for f in fields))
    scheme_flags = set().union(*(flags for flags, _ in _FLAG_FIELDS.values()))
    for dest in run.given:
        if dest in scheme_flags and dest not in read:
            fail("CONFIG_INVALID", f"scheme {args.scheme!r} does not read "
                 f"--{dest.replace('_', '-')}", pointer="/" + dest)
    return {"name": args.scheme, **{f: _FLAG_FIELDS[f][1](args) for f in fields}}


# -- subcommand bodies: build the config, run.start(config[, seed]), write results --

def _weights(args, run):
    w = make_weight(args.family, args.alpha, args.log_base)
    blocks = block_sequence(w, args.ratio_A, args.n0, args.k_max)
    audit = doubling_audit(w, 1e6)             # g(2x) / g(x) on 1 <= x <= 5e5
    run.start({"family": args.family, "alpha": args.alpha, "log_base": args.log_base,
               "A": args.ratio_A, "n0": args.n0, "k_max": args.k_max})
    write_text(run.path("blocks.csv"), "".join(f"# {c}\n" for c in run.notes) + blocks.to_csv())
    write_json(run.path("audit.json"),
               {"d_hat": audit.d_hat, "worst_x": audit.worst_x,
                "known_doubling": w.known_doubling})
    print(f"wrote {run.out}/blocks.csv ({len(blocks.n)} rows), d_hat={audit.d_hat:.6g}")


def _scheme(args, run):
    prov = _scheme_provenance(args, run)
    scheme = scheme_from_provenance(prov)
    run.start(prov)
    scheme.write_csv(run.path("scheme.csv"))
    print(f"wrote {run.out}/scheme.csv ({scheme.size} entries, degree {scheme.max_degree})")


def _check(args, run):
    prov = _scheme_provenance(args, run, own=("weight",))
    scheme = scheme_from_provenance(prov)
    rep = score_sup_ratio(args.kind, scheme, parse_weight_spec(args.weight), args.n_max)
    run.start({"scheme": prov, "kind": args.kind, "weight": args.weight, "n_max": args.n_max})
    write_json(run.path("score.json"), rep.to_json())
    write_records(run.path("score.csv"), Checkpoint, rep.checkpoints, comments=run.notes)
    print(f"score={rep.score:.6g} witness={rep.witness} trend={rep.trend_ratio:.4g}")


def _census(args, run):
    prov = _scheme_provenance(args, run, own=("weight",))
    scheme = scheme_from_provenance(prov)
    w = parse_weight_spec(args.weight)
    n_max = scheme.max_degree if args.n_max is None else args.n_max
    rep = coefficient_census(scheme, w, NuSequence(args.p), n_max)
    run.start({"scheme": prov, "weight": args.weight, "p": args.p, "n_max": n_max})
    write_csv(run.path("census.csv"), CENSUS_CSV_HEADER, rep.to_rows(), comments=run.notes)
    if "blocks" in prov:
        lim = liminf_profile(scheme, blocks_from_provenance(prov["blocks"]), w)
        write_records(run.path("liminf.csv"), LiminfRow, lim.rows, comments=run.notes)
    print(f"census fraction at n={rep.rows[-1].n}: {rep.rows[-1].fraction:.6g}")


def _ensemble(flavor, args, run):
    if args.config:
        cfg = config_from_json(_load_config(args.config))
        if cfg.flavor != flavor:
            fail("CONFIG_INVALID", f"the config's flavor {cfg.flavor!r} is not "
                 f"{flavor!r}, the flavor of {run.name}", pointer="/flavor")
    else:
        cfg = ExperimentConfig(
            scheme=_scheme_provenance(args, run), model={"kind": args.model},
            seed=args.seed, trials=args.trials, radii=args.radii, oversample=args.oversample,
            refine=args.refine, candidates=tuple(args.candidates.split(",")), flavor=flavor)
    run.start(cfg.to_json(), cfg.seed, config_path=args.config)
    print(f"running {cfg.trials} trials ...")
    rep = run_growth_ensemble(cfg)
    write_json(run.path("report.json"), rep.to_json())
    write_csv(run.path("quantiles.csv"), ENSEMBLE_CSV_HEADER, rep.quantile_rows(),
              comments=run.notes)
    write_csv(run.path("candidates.csv"), ["candidate", "r", "ratio"],
              [(name, r, v) for name, vals in sorted(rep.candidate_ratios.items())
               for r, v in zip(rep.radii, vals)], comments=run.notes)
    print(f"wrote {run.out}/report.json ({len(rep.radii)} radii, wall {rep.wall_time:.1f}s)")
    print(f"trials={cfg.trials} seed={cfg.seed} hash={rep.config_hash[:12]}")
    columns = [(name, max(10, len(name) + 1)) for name in cfg.candidates]   # "/" + name fits
    print(f"{'r':>12} {'n(r)':>10} {'median':>9} {'q10':>9} {'q90':>9} "
          + " ".join(f"{'/' + name:>{w}}" for name, w in columns))
    for i, r in enumerate(rep.radii):
        print(f"{r:12.8f} {rep.n_of_r[i]:10.0f} {rep.lower_med[i]:9.4f} "
              f"{rep.lower_q10[i]:9.4f} {rep.lower_q90[i]:9.4f} "
              + " ".join(f"{rep.candidate_ratios[name][i]:{w}.4f}" for name, w in columns))
    if len(rep.radii) >= 3:
        print("flatness ranking:", ", ".join(f"{row.name} (slope {row.slope:+.4f})"
                                             for row in fit_growth(rep).rows))


def _block_scheme(args, run, what, own=()):
    prov = _scheme_provenance(args, run, own)
    if "blocks" not in prov:
        fail("CONFIG_INVALID", f"{what} needs a block-based scheme")
    return prov, scheme_from_provenance(prov), blocks_from_provenance(prov["blocks"])


def _probe_sz(args, run):
    if args.trials < 1:
        fail("DOMAIN", f"--trials must be >= 1, got {args.trials}", pointer="/trials")
    prov, scheme, blocks = _block_scheme(args, run, "probe-sz")
    with _blame("/model"):
        model = make_model(args.model)
    with _blame("/n_list"):          # each block exists and carries weighted mass
        for N in args.n_list:
            sz_block(scheme, blocks, N)
    run.start({"scheme": prov, "model": args.model, "trials": args.trials,
               "n_list": args.n_list, "seed": args.seed}, args.seed)
    rep = salem_zygmund_probe(scheme, blocks, model, SeedSpec(args.seed),
                              args.trials, args.n_list)
    write_records(run.path("sz.csv"), SzRow, rep.rows, comments=run.notes)
    print("q05 per N: " + ", ".join(f"{r.n_index}:{r.q05:.4f}" for r in rep.rows))


def _probe_riesz(args, run):
    with _blame("/n_terms"):         # at offset 0 only n_terms can fail, and every grid fits
        for nt in args.n_terms:
            riesz_comb(nt, 0)
    with _blame("/offsets"):         # each grid, sized as its brackets size it, fits MAX_GRID
        for nt, off in itertools.product(args.n_terms, args.offsets):
            comb = riesz_comb(nt, off)
            PlanSlot(comb, 1.0).grid(int(comb[-1]), RIESZ_OVERSAMPLE)
    run.start({"n_terms": args.n_terms, "offsets": args.offsets, "signed": args.signed})
    rows = []
    for nt in args.n_terms:
        rep = riesz_probe(nt, offsets=args.offsets, sign_patterns=args.signed)
        own = [(nt, r.offset, "".join("+" if s > 0 else "-" for s in r.pattern), r.ratio)
               for r in rep.rows]
        _, offset, worst, _ = min(own, key=lambda row: row[-1])   # the first minimum in row order
        print(f"n_terms={nt}: c_emp={rep.c_emp:.6f}, patterns {len(own)}, "
              f"worst {worst} @ N={offset}")
        rows += own
    print(f"conservative empirical constant: {min(row[-1] for row in rows):.5f}")
    write_csv(run.path("riesz.csv"), ["n_terms"] + RIESZ_CSV_HEADER, rows, comments=run.notes)


def _cap(args, run):
    if args.combos < 1:
        fail("DOMAIN", f"--combos must be >= 1, got {args.combos}", pointer="/combos")
    if args.alpha <= 0.0 or args.alpha >= 1.0:   # NaN passes: run.start refuses it, NON_FINITE
        fail("DOMAIN", f"--alpha must lie in (0, 1), got {args.alpha}", pointer="/alpha")
    for n in args.degrees:     # c_implied = fraction * n^2 means nothing at n = 0
        if not 1 <= n <= MAX_BASIS_DEGREE:
            fail("DOMAIN" if n < 1 else "DEGREE_BUDGET",
                 f"--degrees entries must lie in 1..{MAX_BASIS_DEGREE}, got {n}",
                 pointer="/degrees")
    run.start({"degrees": args.degrees, "alpha": args.alpha, "combos": args.combos,
               "seed": args.seed}, args.seed)
    basis = build_basis(max(args.degrees))
    model = make_model("rademacher")
    seed = SeedSpec(args.seed)
    rows, reference = [], None
    for n in args.degrees:
        cov = default_covering(n)
        reps = [cap_fraction(random_degree_combination(basis, n, model, seed, t, lane=n),
                             args.alpha, cov) for t in range(args.combos)]
        rows.extend(rep.row() for rep in reps)
        cs = sorted(rep.c_implied for rep in reps)
        print(f"degree {n}: min c_implied = {cs[0]:.4f}, median {cs[len(cs) // 2]:.4f}, "
              f"max {cs[-1]:.4f}, grid_K {cov.size}")
        # stability: no degree falls below half the first degree's min
        if reference is None:
            reference = cs[0]
        elif cs[0] < reference / 2.0:
            print(f"  warning: degree {n} fell below half the reference {reference:.4f}")
    write_csv(run.path("cap.csv"), CAP_CSV_HEADER, rows, comments=run.notes)


def _bloch(args, run):
    # f is in the Bloch-type space of w when r d/dr f is in the growth space of 1/w
    prov, scheme, blocks = _block_scheme(args, run, "bloch scoring")
    rep = score_blockwise(radial_derivative(scheme), blocks, parse_weight_spec(args.w_weight))
    run.start({"scheme": prov, "weight": args.weight, "w_weight": args.w_weight})
    write_json(run.path("bloch_score.json"), rep.to_json())
    write_records(run.path("bloch_targets.csv"), BlockRow, rep.rows, comments=run.notes)
    print(f"bloch blockwise score={rep.score:.6g} witness=k{rep.witness}")


def _run_config(args, run) -> int:
    cfg = _load_config(args.config)
    sub = cfg.get("subcommand")
    if sub not in SUBCOMMANDS or sub == "run":
        others = ", ".join(name for name in SUBCOMMANDS if name != "run")
        fail("CONFIG_INVALID", f"config must name a subcommand among {others}",
             pointer="/subcommand")
    flags = list(cfg.get("argv", []))
    if args.out:
        flags += ["--out", args.out]
    return _dispatch([sub] + flags)


# -- the subcommand table ---------------------------------------------------------

def _comma_list(convert):
    """argparse type for comma-separated values; a bad entry fails as CONFIG_INVALID."""
    def parse(text):
        try:
            return [convert(x) for x in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {convert.__name__} values, got {text!r}") from None
    return parse


_INTS, _FLOATS = _comma_list(int), _comma_list(float)


def _radii(text):
    return text if text == "block" else _FLOATS(text)


# only the runs that draw random numbers take a seed; scripts reuse these specs
_SEED = [("--seed", dict(type=int, default=20260808))]
_TRIALS = [("--trials", dict(type=int, default=200))]

_BLOCK_FLAGS = [
    ("--ratio-A", dict(type=float, default=2.0)),
    ("--n0", dict(type=int, default=1)),
    ("--k-max", dict(type=int, default=10)),
]

_SCHEME_FLAGS = [
    ("--scheme", dict(default=None, help=f"one of {', '.join(SCHEMES)}")),
    ("--weight", dict(default="power:1", help="weight spec, e.g. power:1")),
    *_BLOCK_FLAGS,
    ("--rule", dict(default="g_over_sqrt_nlogn", help="magnitude rule for the uniform scheme")),
    ("--nu", dict(default="constant", help=" | ".join(NU_KINDS))),
]


def _ensemble_flags(model):
    return _SCHEME_FLAGS + _SEED + [
        ("--config", dict(default=None, help="ExperimentConfig JSON used instead of the flags")),
        ("--model", dict(default=model)),
        *_TRIALS,
        ("--radii", dict(type=_radii, default=ExperimentConfig.radii,
                         help="'block' or comma-separated list")),
        ("--oversample", dict(type=float, default=ExperimentConfig.oversample)),
        ("--refine", dict(action="store_true")),
        ("--candidates", dict(default=",".join(ExperimentConfig.candidates))),
    ]


# name -> (flags beside --out, body(args, run)); a body that never calls
# run.start leaves no manifest, which lets `run` hand over to another body
SUBCOMMANDS = {
    "weights": ([
        ("--family", dict(default="power")),
        ("--alpha", dict(type=float, default=1.0)),
        ("--log-base", dict(type=float, default=math.e)),
        *_BLOCK_FLAGS,
    ], _weights),
    "scheme": (_SCHEME_FLAGS, _scheme),
    "check": (_SCHEME_FLAGS + [
        ("--kind", dict(default="l2_log", choices=RATIO_KINDS)),
        ("--n-max", dict(type=int, default=None)),
    ], _check),
    "census": (_SCHEME_FLAGS + [
        ("--p", dict(default="log", help="threshold sequence: " + " | ".join(NU_KINDS))),
        ("--n-max", dict(type=int, default=None)),
    ], _census),
    "growth": (_ensemble_flags("rademacher"),
               lambda args, run: _ensemble(REAL_HARMONIC, args, run)),
    "probe-sz": (_SCHEME_FLAGS + _SEED + [
        ("--model", dict(default="rademacher")),
        ("--trials", dict(type=int, default=500)),
        ("--n-list", dict(type=_INTS, default="8,10")),
    ], _probe_sz),
    "probe-riesz": ([
        ("--n-terms", dict(type=_INTS, default="2,3,4,5,6")),
        ("--offsets", dict(type=_INTS, default="0")),
        ("--signed", dict(action="store_true",
                          help="scan +- sign patterns for the nontrivial constant")),
    ], _probe_riesz),
    "cap": (_SEED + [
        ("--degrees", dict(type=_INTS, default="4,8,16,32")),
        ("--alpha", dict(type=float, default=0.5)),
        ("--combos", dict(type=int, default=50)),
    ], _cap),
    "bloch": (_SCHEME_FLAGS + [
        ("--w-weight", dict(default="power:1",
                            help="Bloch weight w as its reciprocal growth spec")),
    ], _bloch),
    "analytic": (_ensemble_flags("steinhaus"),
                 lambda args, run: _ensemble(ANALYTIC, args, run)),
    "run": ([("--config", dict(required=True))], _run_config),
}


if __name__ == "__main__":
    sys.exit(main())
