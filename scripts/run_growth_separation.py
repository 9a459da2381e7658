#!/usr/bin/env python3
"""Growth-rate separation for the unit-energy tower scheme.

Runs the Monte Carlo ensemble for the scheme a_j = 1/sqrt(n_k) on tower
blocks n_k = 2^(2^k) at the block radii r_N = 1 - 1/n_N, then normalizes
the median certified sups by the two candidate growth functions
sqrt(log x) and sqrt(log x loglog x).

At desk scale the sqrt(log) ratios stay within a factor-2 band while the
lower blocks still hold a sizable share of the chaining sum C(r_N), so the
sqrt(log loglog) ratios rise.  --n-top accepts 2..4 (degree 65536 at most):
C(r_N) over sqrt(log n loglog n) turns down only from N = 6 on, and a dense
block of degree 2^32 already needs a grid far above disk.MAX_GRID = 2^24.

The run writes no files; `growthlab growth --scheme loglog --k-max 4 --radii
0.9375,0.99609375,0.9999847412109375 --out DIR` runs the same ensemble and
saves its report.json and quantiles.csv with a manifest.
"""

import sys

from growthlab.cli import _Parser, coded_exit
from growthlab.mclab import ExperimentConfig, fit_growth, run_growth_ensemble


@coded_exit
def main():
    ap = _Parser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=20260808)
    ap.add_argument("--n-top", type=int, default=4, choices=range(2, 5))
    args = ap.parse_args()

    radii = [1.0 - 1.0 / 2.0 ** (2**n) for n in range(2, args.n_top + 1)]
    cfg = ExperimentConfig(scheme={"name": "loglog", "k_max": args.n_top},
                           model={"kind": "rademacher"}, seed=args.seed,
                           trials=args.trials, radii=radii,
                           candidates=("sqrt_log", "sqrt_log_loglog"))
    rep = run_growth_ensemble(cfg)

    print(f"trials={args.trials} seed={args.seed} hash={rep.config_hash[:12]}")
    print(f"{'r':>12} {'n(r)':>10} {'median':>9} {'q10':>9} {'q90':>9} "
          f"{'/sqrt_log':>10} {'/sqrt_llog':>10}")
    for i, r in enumerate(rep.radii):
        print(f"{r:12.8f} {rep.n_of_r[i]:10.0f} {rep.lower_med[i]:9.4f} "
              f"{rep.lower_q10[i]:9.4f} {rep.lower_q90[i]:9.4f} "
              f"{rep.candidate_ratios['sqrt_log'][i]:10.4f} "
              f"{rep.candidate_ratios['sqrt_log_loglog'][i]:10.4f}")
    if len(rep.radii) >= 3:
        fit = fit_growth(rep)
        print("flatness ranking:", ", ".join(f"{r.name} (slope {r.slope:+.4f})"
                                             for r in fit.rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
