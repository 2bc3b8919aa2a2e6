"""Plain-data input generators shared by the workloads.

Nothing here imports ssderiv: inputs are exponent dicts, weight tuples and
expression strings, so generating them costs the program under test nothing
and cannot be changed by it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce


def job_rng(workload: str, seed: int, index: int) -> random.Random:
    """Independent stream per job, so job i is the same whatever ran before it."""
    return random.Random(f"{workload}:{seed}:{index}")


def coefficient(rng: random.Random, integer: bool = False) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), 1 if integer else rng.randint(1, 4))


def exponent_dict(
    rng: random.Random,
    n: int,
    terms: int,
    ranges: list[tuple[int, int]],
    integer: bool = False,
) -> dict[tuple[int, ...], Fraction]:
    """`terms` distinct exponent vectors, entry j drawn from ranges[j]."""
    out: dict[tuple[int, ...], Fraction] = {}
    while len(out) < terms:
        exps = tuple(rng.randint(lo, hi) for lo, hi in ranges[:n])
        out[exps] = coefficient(rng, integer)
    return out


def render(terms: dict[tuple[int, ...], Fraction], atoms: list[str], rng: random.Random | None = None) -> str:
    """Expression text for an exponent dict; atoms[j] is the text of variable j
    (a name, or a parenthesised expression).  With rng the term order is
    shuffled, so the parser never sees canonical input."""
    items = list(terms.items())
    if rng is not None:
        rng.shuffle(items)
    text = ""
    for exps, coeff in items:
        factors = []
        for atom, e in zip(atoms, exps):
            if e == 1:
                factors.append(atom)
            elif e:
                factors.append(f"{atom}^{e}")
        magnitude = abs(coeff)
        if not factors:
            body = str(magnitude)
        elif magnitude == 1:
            body = "*".join(factors)
        else:
            body = f"{magnitude}*" + "*".join(factors)
        if not text:
            text = "-" + body if coeff < 0 else body
        else:
            text += (" - " if coeff < 0 else " + ") + body
    return text or "0"


def gcd_all(values) -> int:
    return reduce(math.gcd, (abs(v) for v in values), 0)


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def coprime_weights(
    rng: random.Random, n: int, top_pos: int, top_neg: int, distinct: bool = False
) -> tuple[int, ...]:
    """Nonzero weights with max positive entry top_pos, min entry -top_neg
    and gcd 1, in shuffled order; with `distinct`, no value repeats."""
    if n == 2 and math.gcd(top_pos, top_neg) != 1:
        raise ValueError("two weights with a common factor cannot have gcd 1")
    pool = [w for w in range(-top_neg, top_pos + 1) if w]
    if distinct:
        pool = [w for w in pool if w not in (top_pos, -top_neg)]
    while True:
        rest = rng.sample(pool, n - 2) if distinct else [rng.choice(pool) for _ in range(n - 2)]
        ws = [top_pos, -top_neg, *rest]
        rng.shuffle(ws)
        if gcd_all(ws) == 1:
            return tuple(ws)


def triangular(rng: random.Random, names: list[str], steps: int, max_exp: int = 2) -> tuple[list[str], list[str]]:
    """A triangular automorphism and its inverse as variable-image strings.

    One step is x0 -> x0 + h0(x1, ...); two steps add x1 -> x1 + h1(x2, ...).
    The inverse of the two-step map sends x0 to x0 - h0(x1 - h1, x2, ...),
    written out with parentheses, so parsing it exercises `^` on sums.
    Returns the image strings (phi, psi).
    """
    n = len(names)

    def h(i: int) -> dict[tuple[int, ...], Fraction]:
        ranges = [(0, 0)] * (i + 1) + [(0, max_exp)] * (n - i - 1)
        terms = exponent_dict(rng, n, rng.randint(1, 3), ranges, integer=True)
        terms.pop((0,) * n, None)
        return terms or {tuple(1 if j == n - 1 else 0 for j in range(n)): Fraction(1)}

    phi, psi = list(names), list(names)
    h0 = h(0)
    phi[0] = f"{names[0]} + ({render(h0, names)})"
    if steps == 1:
        psi[0] = f"{names[0]} - ({render(h0, names)})"
        return phi, psi
    h1 = h(1)
    phi[1] = f"{names[1]} + ({render(h1, names)})"
    psi[1] = f"{names[1]} - ({render(h1, names)})"
    atoms = list(names)
    atoms[1] = f"({psi[1]})"
    psi[0] = f"{names[0]} - ({render(h0, atoms)})"
    return phi, psi


def multinomial_terms(n: int, degree: int) -> dict[tuple[int, ...], Fraction]:
    """Terms of (x1 + ... + xn + 1)^degree: every exponent vector of total
    degree <= degree with its multinomial coefficient."""
    out: dict[tuple[int, ...], Fraction] = {}

    def walk(prefix: tuple[int, ...], left: int) -> None:
        if len(prefix) == n:
            coeff = math.factorial(degree) // math.factorial(left)
            for e in prefix:
                coeff //= math.factorial(e)
            out[prefix] = Fraction(coeff)
            return
        for e in range(left + 1):
            walk(prefix + (e,), left - e)

    walk((), degree)
    return out


def minimal_nonzero(solutions) -> set[tuple[int, ...]]:
    """Componentwise-minimal nonzero vectors of a degree-sorted list."""
    kept: list[tuple[int, ...]] = []
    for a in solutions:
        if any(a) and not any(all(x >= y for x, y in zip(a, b)) for b in kept):
            kept.append(a)
    return set(kept)
