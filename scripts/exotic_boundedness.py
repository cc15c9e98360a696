#!/usr/bin/env python3
"""Iterate an exotic one-parameter element and record why it stays tame.

For each n the canonical form of g^n keeps at most two breakpoints, the set
of jump values stays inside {A, 1/A, 1}, and the squared orbit norm of the
zero vector under the affine action is bounded.  Contrast with
scripts/growth_experiment.py where both quantities grow linearly.
"""
import argparse
from fractions import Fraction as F

from plcircle import (ExoticParams, FiniteVector, affine_apply,
                      exotic_element, identity, jump_cocycle, l2_norm_sq)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-A", type=F, default=F(4))
    ap.add_argument("--lam", type=F, default=F(2), metavar="LAMBDA")
    ap.add_argument("-N", type=int, default=1000)
    ap.add_argument("--every", type=int, default=100,
                    help="print one row every EVERY iterates")
    args = ap.parse_args()

    g = exotic_element(ExoticParams(args.A, args.lam))
    power = identity()
    vec = FiniteVector.empty()
    jumps = set()
    worst = 0.0
    print("n,breakpoints,distinct_jumps,norm_sq")
    for n in range(1, args.N + 1):
        power = power.compose(g)
        vec = affine_apply(g, vec)
        jumps.update(v for _, v in jump_cocycle(power).entries)
        worst = max(worst, l2_norm_sq(vec))
        if n % args.every == 0 or n == 1:
            print(f"{n},{len(power.breakpoints)},{len(jumps)},{l2_norm_sq(vec)!r}")
    print(f"# sup norm_sq over the range: {worst!r}")
    print(f"# jump values seen: {sorted(jumps)}")


if __name__ == "__main__":
    main()
