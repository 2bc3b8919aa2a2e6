#!/usr/bin/env python3
"""Sweep all weight vectors up to a given size and cross-check the Hilbert
basis completion against the brute-force oracle.

For every weight vector the minimal nonzero solutions of <a, w> = 0 found by
exhaustive enumeration must coincide with the completion output, and every
enumerated solution must be a nonnegative integer combination of the basis.

The oracle enumerates up to the degree n*top*(top+1), top = max |w_i|, or with
--lambert up to max(1, max w+ + max |w-|): no minimal solution has a larger
total degree (J.-L. Lambert, C. R. Acad. Sci. Paris 1987), so that check is
as strong at a much smaller degree and sweeps wider ranges in the same time.
"""

import argparse
import time
from itertools import product

from ssderiv import hilbert_basis, weight_zero_exponents


def minimal_nonzero(solutions):
    kept = []
    for a in solutions:
        if not any(a):
            continue
        if not any(all(x >= y for x, y in zip(a, b)) for b in kept):
            kept.append(a)
    return kept


def combination_closure(gens, n, degree):
    seen = {(0,) * n}
    frontier = list(seen)
    while frontier:
        grown = []
        for v in frontier:
            for g in gens:
                u = tuple(a + b for a, b in zip(v, g))
                if sum(u) <= degree and u not in seen:
                    seen.add(u)
                    grown.append(u)
        frontier = grown
    return seen


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=3, help="largest vector length")
    parser.add_argument("--entry-bound", type=int, default=4, help="sweep entries in [-B, B]")
    parser.add_argument("--lambert", action="store_true",
                        help="enumerate up to the Lambert degree bound of a minimal solution")
    args = parser.parse_args()

    start = time.perf_counter()
    checked = 0
    largest_basis = 0
    for n in range(1, args.max_n + 1):
        for ws in product(range(-args.entry_bound, args.entry_bound + 1), repeat=n):
            if args.lambert:
                bound = max(1, max(0, *ws) + max(0, *(-w for w in ws)))
            else:
                top = max(abs(w) for w in ws)
                bound = max(1, n * top * (top + 1))
            basis = hilbert_basis(ws).gens
            solutions = weight_zero_exponents(ws, bound)
            assert set(minimal_nonzero(solutions)) == set(basis), ws
            assert combination_closure(basis, n, bound) == set(solutions), ws
            checked += 1
            largest_basis = max(largest_basis, len(basis))
    elapsed = time.perf_counter() - start
    print(f"checked {checked} weight vectors in {elapsed:.2f}s "
          f"(largest basis: {largest_basis} generators)")


if __name__ == "__main__":
    main()
