#!/usr/bin/env python3
"""Tabulate the base-curvature interval with positive scalar curvature.

For a selection of metric parameters, print the interval of space-form
curvatures c around 0 for which the scalar curvature of the lifted metric
stays positive on the radius grid and in the limit at the end of the fibre
(large radii for q >= 0, t -> -1/q for q < 0).  Each end is read off in one pass over the grid, as a root of the
scalar curvature, a quadratic in c at each radius; it is printed to 6 decimals.

Usage: python scripts/positivity_intervals.py
"""

import math

from cgm.regions import scalar_positivity_interval
from cgm.scalars import Params

CASES = [
    (1, 1), (1, 0), (2, 0), (1, 2), (2, 1), (3, 2), (2, -1), (3, -2),
]


def main() -> int:
    print(f"{'p':>5} {'q':>5} {'n':>2} {'c_lo':>12} {'c_hi':>12}")
    for p, q in CASES:
        for n in (2, 3):
            lo, hi = scalar_positivity_interval(Params(p, q), n)
            if math.isnan(lo):
                print(f"{p:>5} {q:>5} {n:>2} {'not positive at c=0':>25}")
                continue
            print(f"{p:>5} {q:>5} {n:>2} {lo:>12.6f} {hi:>12.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
