#!/usr/bin/env python3
"""Reproduce the growth fit for the 312-avoiding configuration counts.

Usage: python scripts/fit_growth.py [--lo 200] [--hi 400]

Builds the exact walk table once, reads the counts off one binomial
transform pass over it, and prints the fitted growth constant and
polynomial exponent next to the expected 5.729 / 4.515.
"""

import argparse
import sys
import time

from hookcomb.experiments import asymptotic_fit
from hookcomb.walks import count_walks, vhc312_series


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lo", type=int, default=200)
    parser.add_argument("--hi", type=int, default=400)
    args = parser.parse_args()

    t0 = time.perf_counter()
    table = count_walks(args.hi - 1)
    t1 = time.perf_counter()
    counts = vhc312_series(args.hi, table)
    fit = asymptotic_fit(args.lo, args.hi, counts=counts)
    t2 = time.perf_counter()

    digits = len(str(counts[args.hi]))
    print(f"walk table to {args.hi - 1}: {t1 - t0:.1f}s")
    print(f"count({args.hi}) has {digits} digits")
    print(f"growth: {fit.growth_hat:.6f}   (5.729 expected, "
          f"{abs(fit.growth_hat - 5.729) / 5.729 * 100:.3f}% off)")
    print(f"alpha:  {fit.alpha_hat:.6f}   (4.515 expected, "
          f"{abs(fit.alpha_hat - 4.515):.3f} off)")
    print(f"residual: {fit.residual:.2e}   fit time: {t2 - t1:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
