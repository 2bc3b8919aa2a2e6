#!/usr/bin/env python3
"""Sweep all weight vectors up to a given size and cross-check the Hilbert
basis completion against the brute-force oracle.

For every weight vector the minimal nonzero solutions of <a, w> = 0 found by
exhaustive enumeration must coincide with the completion output, and every
enumerated solution must be a nonnegative integer combination of the basis.

The oracle enumerates up to lambert_degree(w) = max(1, max w+ + max |w-|):
no minimal solution has a larger total degree (J.-L. Lambert, C. R. Acad.
Sci. Paris 1987).  The checks reuse the test suite's helpers, so the script
needs the `test` extra (hypothesis).
"""

import argparse
import sys
import time
from itertools import product
from pathlib import Path

from ssderiv import hilbert_basis, lambert_degree, weight_zero_exponents

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import combination_closure, minimal_nonzero  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=3, help="largest vector length")
    parser.add_argument("--entry-bound", type=int, default=4, help="sweep entries in [-B, B]")
    args = parser.parse_args()

    start = time.perf_counter()
    checked = 0
    largest_basis = 0
    for n in range(1, args.max_n + 1):
        for ws in product(range(-args.entry_bound, args.entry_bound + 1), repeat=n):
            bound = lambert_degree(ws)
            basis = hilbert_basis(ws).gens
            solutions = weight_zero_exponents(ws, bound)
            assert minimal_nonzero(solutions) == set(basis), ws
            assert combination_closure(basis, n, bound) == set(solutions), ws
            checked += 1
            largest_basis = max(largest_basis, len(basis))
    elapsed = time.perf_counter() - start
    print(f"checked {checked} weight vectors in {elapsed:.2f}s "
          f"(largest basis: {largest_basis} generators)")


if __name__ == "__main__":
    main()
