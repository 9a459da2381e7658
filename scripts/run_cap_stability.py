#!/usr/bin/env python3
"""Spherical cap stability: fraction where |P| >= alpha max stays >= c/n^2.

Draws random sign combinations of the degree-n spherical harmonics,
measures the covering fraction above alpha times the grid max, and prints
the implied constant fraction * n^2 per degree.  The minimum over the
smallest degree serves as the reference; stability means no higher degree
falls below half of it.
"""

import argparse
import sys

import growthlab as gl
from growthlab.cli import coded_exit


@coded_exit
def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--degrees", default="4,8,16,32")
    ap.add_argument("--alpha", type=float, default=0.5)
    ap.add_argument("--combos", type=int, default=50)
    ap.add_argument("--seed", type=int, default=20260808)
    args = ap.parse_args()

    degrees = [int(x) for x in args.degrees.split(",")]
    basis = gl.build_basis(max(degrees))
    model = gl.make_model("rademacher")
    seed = gl.SeedSpec(args.seed)
    reference = None
    print(f"{'degree':>7} {'grid_K':>8} {'min c':>9} {'median c':>9} {'max c':>9}")
    for n in degrees:
        cov = gl.default_covering(n)
        cs = []
        for t in range(args.combos):
            s = gl.random_degree_combination(basis, n, model, seed, t, lane=n)
            cs.append(gl.cap_fraction(s, args.alpha, cov).c_implied)
        cs.sort()
        print(f"{n:7d} {cov.size:8d} {cs[0]:9.4f} {cs[len(cs) // 2]:9.4f} {cs[-1]:9.4f}")
        if reference is None:
            reference = cs[0]
        elif cs[0] < reference / 2.0:
            print(f"  warning: degree {n} fell below half the reference {reference:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
