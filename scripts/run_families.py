#!/usr/bin/env python3
"""Sweep the polygon / anti-prism families and tabulate minimum guesswork.

For each M and height fraction the table shows the objective |w(n*)|^2 from the
paper's closed form, from the exact arrangement solver (column "brute", the
solver that decides every qubit solve up to the cap), and the resulting
guesswork under the identity cost with the method that reported it.

The families are benevolent, so this reproduces the paper's theorem: the script
exits 1 when the closed form finds no benevolent structure on a row, or when
its objective differs from the exact one by more than 1e-9.

Usage:
    python scripts/run_families.py [--m-max 8]
"""

import argparse
import math
import sys

from guesswork import (
    antiprism_h_bound,
    arrangement_solve,
    benevolent_solve,
    generate_polygon_antiprism,
    identity_cost,
    min_guesswork_qubit,
)


AGREEMENT = 1e-9


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m-max", type=int, default=8)
    args = parser.parse_args()

    header = f"{'M':>2} {'h':>10} {'objective':>12} {'brute':>12} {'guesswork':>12} {'method':>11}"
    print(header)
    print("-" * len(header))
    failures = 0
    for m in range(3, args.m_max + 1):
        bound = antiprism_h_bound(m)
        heights = sorted({0.0, bound / 2, bound})
        for h in heights:
            e = generate_polygon_antiprism(m, h=h)
            c = identity_cost(m)
            fast = benevolent_solve(c, e.bloch)
            objective = fast[1] if fast else math.nan
            _, brute = arrangement_solve(c, e.bloch)
            report = min_guesswork_qubit(e, c)
            print(
                f"{m:>2} {h:>10.6f} {objective:>12.8f} {brute:>12.8f} "
                f"{report.value:>12.8f} {report.method:>11}"
            )
            if not abs(objective - brute) <= AGREEMENT:  # NaN when no structure was found
                failures += 1
    if failures:
        print(f"the closed form misses the exact objective on {failures} rows", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
