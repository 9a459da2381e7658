#!/usr/bin/env python3
"""Sharpness sweep: nu-saturating schemes escape the weight at rate nu.

For a_j = nu_k g(n_k)/sqrt(n_k log n_k) with nu increasing, the blockwise
square-sum criterion is exceeded by exactly nu_k, and the measured median
sup at r_N = 1 - 1/n_N tracks nu_N g(n_N) inside a narrow band.
"""

import sys

import growthlab as gl
from growthlab.cli import _INTS, _SEED, _TRIALS, _Parser, coded_exit
from growthlab.mclab import ExperimentConfig, run_growth_ensemble
from growthlab.schemes import NU_KINDS


@coded_exit
def main():
    ap = _Parser(description=__doc__)
    for flag, spec in _TRIALS + _SEED:
        ap.add_argument(flag, **spec)
    ap.add_argument("--nu", default="sqrt", choices=NU_KINDS)
    ap.add_argument("--n-list", type=_INTS, default="6,8,10")
    args = ap.parse_args()

    w = gl.make_weight("power", 1.0)
    nu = gl.NuSequence(args.nu)
    print(f"{'N':>3} {'n_N':>6} {'nu_N':>7} {'median':>10} {'med/(nu g)':>11} "
          f"{'blockwise':>10}")
    for N in args.n_list:
        blocks = gl.block_sequence(w, 2.0, 1, N)
        sat = gl.saturating_scheme(blocks, nu)
        cfg = ExperimentConfig(scheme=sat.provenance, model={"kind": "rademacher"},
                               seed=args.seed, trials=args.trials,
                               radii=[1.0 - 2.0**-N])
        rep = run_growth_ensemble(cfg)
        nu_top = float(nu.at(N - 1))
        bw = gl.score_blockwise(sat, blocks, w)
        print(f"{N:3d} {2**N:6d} {nu_top:7.3f} {rep.lower_med[0]:10.3f} "
              f"{rep.lower_med[0] / (nu_top * 2.0**N):11.4f} {bw.score:10.4f}")
    print("median/(nu g) flat across N means the sup grows like nu_N g(n_N)," )
    print("while the blockwise score column grows like nu itself.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
