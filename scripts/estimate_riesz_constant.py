#!/usr/bin/env python3
"""Empirical lower-bound constant for shifted 4-power cosine combs.

With all-equal positive coefficients the sup of sum c_j cos((N + 4^j) t)
is attained at t = 0 and the ratio sup / sum|c| is exactly 1.  The
nontrivial absolute constant comes from the worst case over sign patterns
and offsets, which this script scans with certified lower brackets; the
minimum reported is a conservative estimate.
"""

import argparse
import sys

from growthlab import riesz_probe
from growthlab.cli import coded_exit


def int_list(text):
    return [int(x) for x in text.split(",")]


@coded_exit
def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-terms", type=int_list, default="2,3,4,5,6")
    ap.add_argument("--offsets", type=int_list, default="0,1,3,7,17")
    args = ap.parse_args()
    overall = 1.0
    print(f"{'n_terms':>8} {'patterns':>9} {'c_emp':>9}  worst pattern @ offset")
    for nt in args.n_terms:
        rep = riesz_probe(nt, offsets=args.offsets, sign_patterns=True)
        worst = min(rep.rows, key=lambda r: r.ratio)
        pat = "".join("+" if s > 0 else "-" for s in worst.pattern)
        print(f"{nt:8d} {len(rep.rows):9d} {rep.c_emp:9.5f}  {pat} @ N={worst.offset}")
        overall = min(overall, rep.c_emp)
    print(f"conservative empirical constant: {overall:.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
