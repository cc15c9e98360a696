#!/usr/bin/env python3
"""Linear breakpoint growth and orbit-norm lower bound for a contracting map.

Writes a CSV with one row per iterate: breakpoint count M_n, squared orbit
norm of the zero vector under the affine action, and the two lower bounds
n*(c1-c0)/mu and M_n*beta^2.  Defaults to the one-breakpoint-pair map with
lift vertices (0,0), (1/2,1/4), (1,1).
"""
import argparse
import csv
import sys
from fractions import Fraction as F

from plcircle import from_lift_vertices, growth_params, growth_sequences


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-N", type=int, default=200, help="number of iterates")
    ap.add_argument("-o", "--output", default="-", help="CSV path or - for stdout")
    args = ap.parse_args()

    f = from_lift_vertices([(0, 0), (F(1, 2), F(1, 4)), (1, 1)])
    gp = growth_params(f)
    rate = (gp.c1 - gp.c0) / gp.mu
    growth, norms = growth_sequences(f, args.N)

    out = sys.stdout if args.output == "-" else open(args.output, "w", newline="")
    w = csv.writer(out)
    w.writerow(["n", "M_n", "norm_sq", "count_bound", "norm_bound"])
    for n in range(1, args.N + 1):
        w.writerow([n, growth[n - 1], repr(norms[n - 1]),
                    repr(n * rate), repr(growth[n - 1] * gp.beta ** 2)])
    if out is not sys.stdout:
        out.close()
    print(f"c0={gp.c0:.6f} c1={gp.c1:.6f} mu={gp.mu:.6f} beta={gp.beta:.6f} "
          f"rate={rate:.6f}", file=sys.stderr)


if __name__ == "__main__":
    main()
