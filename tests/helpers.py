"""Shared generators for the test suite: hypothesis strategies and seeded
random builders for polynomials, weight vectors and triangular automorphisms,
plus reference implementations that the library's faster paths must match."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from ssderiv import DiagonalDerivation, LaurentPoly, RingCtx

CTX_X = RingCtx(("x",))
CTX_XY = RingCtx(("x", "y"))
CTX_XYZ = RingCtx(("x", "y", "z"))


def exponent_vectors(n: int, bound: int = 5):
    return st.tuples(*([st.integers(-bound, bound)] * n))


def coefficients(integer: bool = False):
    if integer:
        return st.integers(-9, 9)
    return st.fractions(min_value=-9, max_value=9, max_denominator=9)


def polys(
    ctx: RingCtx, max_terms: int = 8, exp_bound: int = 5, integer: bool = False, min_terms: int = 0
):
    return st.dictionaries(
        exponent_vectors(ctx.n, exp_bound),
        coefficients(integer).filter(bool) if min_terms else coefficients(integer),
        min_size=min_terms,
        max_size=max_terms,
    ).map(lambda terms: LaurentPoly(ctx, terms))


def int_polys(ctx: RingCtx, **kwargs):
    """Polynomials whose coefficients are all integers."""
    return polys(ctx, integer=True, **kwargs)


def nonzero_polys(ctx: RingCtx, **kwargs):
    return polys(ctx, **kwargs).filter(lambda p: not p.is_zero())


def monomials(ctx: RingCtx, exp_bound: int = 5, integer: bool = False):
    return st.tuples(
        exponent_vectors(ctx.n, exp_bound),
        coefficients(integer).filter(bool),
    ).map(lambda pair: LaurentPoly.monomial(ctx, pair[0], pair[1]))


# One draw per example: every strategy built by `either` in that example uses
# integer coefficients, or every one uses rational coefficients.
_INTEGER_ONLY = st.shared(st.booleans(), key="integer coefficients")


def either(make, ctx: RingCtx, **kwargs):
    """`make(ctx, **kwargs)` (polys or monomials) with integer-only
    coefficients in about half of the examples."""
    return _INTEGER_ONLY.flatmap(lambda integer: make(ctx, integer=integer, **kwargs))


def assert_canonical(p: LaurentPoly) -> None:
    """Keys are int tuples of length ctx.n; each coefficient is nonzero and
    has one representation: an `int` when integral, else a `Fraction` with
    denominator > 1 (never a float); validation changes neither the value
    nor its hash."""
    for key, coeff in p.terms.items():
        assert type(key) is tuple and len(key) == p.ctx.n
        assert all(type(e) is int for e in key)
        assert coeff != 0
        assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator > 1)
    rebuilt = LaurentPoly(p.ctx, dict(p.terms))
    assert p == rebuilt
    assert hash(p) == hash(rebuilt)


def weight_vectors(n: int, bound: int = 5):
    return st.tuples(*([st.integers(-bound, bound)] * n))


def random_poly(
    rng: random.Random,
    ctx: RingCtx,
    max_terms: int = 6,
    exp_bound: int = 3,
    nonneg: bool = False,
) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        low = 0 if nonneg else -exp_bound
        exps = tuple(rng.randint(low, exp_bound) for _ in range(ctx.n))
        terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return LaurentPoly(ctx, terms)


def random_weights(rng: random.Random, n: int, bound: int, nonzero: bool = True):
    while True:
        weights = tuple(rng.randint(-bound, bound) for _ in range(n))
        if not nonzero or any(weights):
            return weights


def random_derivation(rng: random.Random, ctx: RingCtx, bound: int = 5, nonzero: bool = True):
    return DiagonalDerivation(ctx, random_weights(rng, ctx.n, bound, nonzero))


def random_triangular_pair(rng: random.Random, ctx: RingCtx, steps: int = 2, exp_bound: int = 2):
    """Composition of elementary maps x_i -> x_i + h(x_j for j > i), returned
    as (phi_images, psi_images); the two are exact mutual inverses."""
    n = ctx.n
    identity = [LaurentPoly.variable(ctx, i) for i in range(n)]
    phi = list(identity)
    psi = list(identity)
    for _ in range(steps):
        i = rng.randrange(n)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = [0] * n
            for j in range(i + 1, n):
                exps[j] = rng.randint(0, exp_bound)
            terms[tuple(exps)] = Fraction(rng.randint(-3, 3))
        h = LaurentPoly(ctx, terms)
        tau = list(identity)
        tau[i] = identity[i] + h
        tau_inv = list(identity)
        tau_inv[i] = identity[i] - h
        phi = [p.substitute(tau) for p in phi]
        psi = [t.substitute(psi) for t in tau_inv]
    return phi, psi


def reference_substitute(p: LaurentPoly, images) -> LaurentPoly:
    """Substitution as it was before unit images became exponent shifts:
    every term multiplies out img**e for each of its variables, computed
    afresh, and adds the product into the result.  Same results and the
    same errors as LaurentPoly.substitute."""
    if len(images) != p.ctx.n:
        raise ValueError(f"expected {p.ctx.n} images, got {len(images)}")
    target = images[0].ctx
    for img in images:
        if img.ctx != target:
            raise ValueError("context mismatch")
    total = LaurentPoly.zero(target)
    for exps, coeff in p.terms.items():
        term = LaurentPoly.constant(target, 1)
        for img, e in zip(images, exps):
            if e:
                term = term * img**e
        total = total + term * coeff
    return total


def reference_str(p: LaurentPoly) -> str:
    """The printer with no factor-text table: it builds every factor text
    for every term.  It is the reference for the table path, so `str` must
    give its text whether the context's table is cold, warm or full.  Uses
    plain `str` on integers, so it covers coefficients and exponents below
    the interpreter's digit limit."""
    if not p.terms:
        return "0"
    names = p.ctx.names
    out = []
    for exps, coeff in sorted(p.terms.items(), reverse=True):
        num, den = coeff.numerator, coeff.denominator
        if num < 0:
            out.append(" - " if out else "-")
            num = -num
        elif out:
            out.append(" + ")
        factors = "*".join([n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e])
        if factors and num == 1 and den == 1:
            out.append(factors)
            continue
        out.append(str(num) if den == 1 else f"{num}/{den}")
        if factors:
            out.append("*" + factors)
    return "".join(out)


def reference_image_decompose(d: DiagonalDerivation, p: LaurentPoly):
    """The preimage as it was computed before the one-pass division: split p
    into weight components, refuse a weight-0 one, and sum each weight-w
    component times 1/w."""
    decomposition = d.weight_decompose(p)
    if 0 in decomposition.components:
        return False, None
    parts = decomposition.components.items()
    return True, LaurentPoly.sum(p.ctx, (part * Fraction(1, w) for w, part in parts))


def reference_u_images(d: DiagonalDerivation, s: LaurentPoly) -> tuple[LaurentPoly, ...]:
    """The kernel generators u_i = x_i * s^(-w_i) as they were built before
    the slice paths worked on exponents: a variable times a power of s."""
    return tuple(LaurentPoly.variable(d.ctx, i) * s ** (-w) for i, w in enumerate(d.weights))


def reference_reconstruct(d: DiagonalDerivation, s: LaurentPoly, coords) -> LaurentPoly:
    """Slice coordinates resummed as they were before the one-pass version:
    each weight-w part substitutes u_i -> reference_u_images(d, s)[i] and is
    multiplied by s^w.  Does not check that s is a slice."""
    images = reference_u_images(d, s)
    parts = coords.components.items()
    return LaurentPoly.sum(d.ctx, (part.substitute(images) * s**w for w, part in parts))


def reference_hilbert_basis(weights) -> tuple[tuple[int, ...], ...]:
    """Unindexed Hilbert completion: the same breadth-first search as
    ssderiv.hilbert_basis, but every candidate is compared with every
    recorded solution.  Returns the generators in the library's order."""
    ws = tuple(weights)
    n = len(ws)
    basis = []
    level = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(level)
    while level:
        basis.extend(sorted(v for v in level if sum(e * w for e, w in zip(v, ws)) == 0))
        frontier = []
        for v in level:
            w = sum(e * x for e, x in zip(v, ws))
            if w == 0:
                continue
            for i in range(n):
                if ws[i] * w >= 0:
                    continue
                u = v[:i] + (v[i] + 1,) + v[i + 1 :]
                if u in seen or any(all(x >= y for x, y in zip(u, b)) for b in basis):
                    continue
                seen.add(u)
                frontier.append(u)
        level = frontier
    basis.sort(key=lambda a: (sum(a), a))
    return tuple(basis)


def reference_ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """The textbook recursive extended Euclid that ssderiv.ext_gcd replaces:
    one call per Euclid step, so it needs a stack as deep as the input is
    long.  ext_gcd must return the same (g, x, y) on every input."""
    if b < 0:
        g, x, y = reference_ext_gcd(a, -b)
        return g, x, -y
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = reference_ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def fibonacci_pair(k: int) -> tuple[int, int]:
    """(F(k), F(k + 1)): consecutive Fibonacci numbers, the inputs that take
    Euclid the most steps for their size."""
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a, b


def minimal_nonzero(solutions) -> set[tuple[int, ...]]:
    """The nonzero vectors of a solution list that dominate no other one."""
    kept = []
    for a in sorted(solutions, key=lambda a: (sum(a), a)):
        if any(a) and not any(all(x >= y for x, y in zip(a, b)) for b in kept):
            kept.append(a)
    return set(kept)


def combination_closure(gens, n: int, degree: int) -> set[tuple[int, ...]]:
    """Every sum of the vectors `gens` (repeats allowed, the empty sum
    included) of total degree at most `degree`, in n coordinates."""
    zero = (0,) * n
    seen = {zero}
    frontier = [zero]
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
