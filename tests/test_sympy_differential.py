"""Differential tests of the arithmetic against sympy.

Laurent inputs are multiplied by a monomial x^t that clears their negative
exponents; sympy then works on ordinary polynomials over QQ and the results
are compared exactly, coefficient by coefficient.  In about half of the
examples every input has integer coefficients.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssderiv import LaurentPoly, parse

from helpers import CTX_XYZ, either, monomials, polys

sympy = pytest.importorskip("sympy")

GENS = sympy.symbols(CTX_XYZ.names)
N = CTX_XYZ.n


def clearing_shift(p: LaurentPoly) -> tuple[int, ...]:
    """The least t >= 0 with x^t * p a polynomial."""
    return tuple(max([0, *(-e[i] for e in p.terms)]) for i in range(N))


def cleared(p: LaurentPoly, shift: tuple[int, ...]) -> dict:
    """The terms of x^shift * p, which must have no negative exponents."""
    out = {}
    for exps, coeff in p.terms.items():
        key = tuple(e + t for e, t in zip(exps, shift))
        assert min(key) >= 0, f"x^{shift} does not clear {p}"
        out[key] = sympy.Rational(coeff.numerator, coeff.denominator)
    return out


def to_sympy(p: LaurentPoly, shift: tuple[int, ...]):
    return sympy.Poly.from_dict(cleared(p, shift) or {(0,) * N: 0}, *GENS, domain="QQ")


def to_expr(p: LaurentPoly):
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(g**e for g, e in zip(GENS, exps)))
            for exps, c in p.terms.items()
        )
    )


def sympy_terms(poly) -> dict:
    return {k: v for k, v in poly.as_dict().items() if v != 0}


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


laurent = either(polys, CTX_XYZ, max_terms=5, exp_bound=3)


@settings(max_examples=60)
@given(laurent, laurent)
def test_product(p, q):
    sp, sq = clearing_shift(p), clearing_shift(q)
    expected = to_sympy(p, sp) * to_sympy(q, sq)
    assert cleared(p * q, add(sp, sq)) == sympy_terms(expected)


@settings(max_examples=40)
@given(laurent, st.integers(0, 4))
def test_power(p, k):
    sp = clearing_shift(p)
    expected = to_sympy(p, sp) ** k
    assert cleared(p**k, tuple(k * t for t in sp)) == sympy_terms(expected)


@settings(max_examples=40)
@given(either(monomials, CTX_XYZ, exp_bound=3), st.integers(-4, -1))
def test_negative_power_of_unit(m, k):
    (exps, coeff), = m.terms.items()
    expected = sympy.Rational(coeff.numerator, coeff.denominator) ** k
    assert cleared(m**k, tuple(-k * e for e in exps)) == {(0,) * N: expected}


@settings(max_examples=60)
@given(laurent, st.integers(0, N - 1))
def test_partial(p, i):
    # d/dx_i (P * x^-t) * x^(t + e_i) = x_i * dP/dx_i - t_i * P
    t = clearing_shift(p)
    big_p = to_sympy(p, t)
    expected = sympy.Poly(GENS[i], *GENS, domain="QQ") * big_p.diff(GENS[i]) - t[i] * big_p
    shift = tuple(s + (1 if j == i else 0) for j, s in enumerate(t))
    assert cleared(p.partial(i), shift) == sympy_terms(expected)


@settings(max_examples=40)
@given(laurent, st.lists(either(monomials, CTX_XYZ, exp_bound=2), min_size=N, max_size=N))
def test_substitute_units(p, images):
    # x^a maps to a monomial of exponent sum_j a_j * b_j, b_j that of images[j]
    image_exps = [img.monomial_exponents() for img in images]
    targets = [
        tuple(sum(a * b[i] for a, b in zip(exps, image_exps)) for i in range(N))
        for exps in p.terms
    ]
    t = tuple(max([0, *(-e[i] for e in targets)]) for i in range(N))
    symbolic = {g: img_expr for g, img_expr in zip(GENS, map(to_expr, images))}
    expr = to_expr(p).subs(symbolic, simultaneous=True)
    clearing = sympy.Mul(*(g**s for g, s in zip(GENS, t)))
    expected = sympy.Poly(sympy.expand(expr * clearing), *GENS, domain="QQ")
    assert cleared(p.substitute(images), t) == sympy_terms(expected)


@settings(max_examples=30)
@given(
    either(polys, CTX_XYZ, max_terms=4, exp_bound=2).map(
        lambda p: LaurentPoly(CTX_XYZ, {tuple(map(abs, e)): c for e, c in p.terms.items()})
    ),
    st.lists(either(polys, CTX_XYZ, max_terms=3, exp_bound=2), min_size=N, max_size=N),
)
def test_substitute_polynomials(p, images):
    # images may have negative exponents, so clear each image separately
    shifts = [clearing_shift(img) for img in images]
    exps_total = [max([0, *(e[j] for e in p.terms)]) for j in range(N)]
    t = tuple(sum(d * s[i] for d, s in zip(exps_total, shifts)) for i in range(N))
    symbolic = {g: to_expr(img) for g, img in zip(GENS, images)}
    expr = to_expr(p).subs(symbolic, simultaneous=True)
    clearing = sympy.Mul(*(g**s for g, s in zip(GENS, t)))
    expected = sympy.Poly(sympy.expand(expr * clearing), *GENS, domain="QQ")
    assert cleared(p.substitute(images), t) == sympy_terms(expected)


@settings(max_examples=40)
@given(laurent, laurent)
def test_parse(p, q):
    t = clearing_shift(p)
    assert cleared(parse(str(p), CTX_XYZ), t) == sympy_terms(to_sympy(p, t))
    text = f"-({p})*({q})^2 + ({q}) - 3/4*({p})"
    shift = add(t, tuple(2 * s for s in clearing_shift(q)))
    clearing = sympy.Mul(*(g**s for g, s in zip(GENS, shift)))
    expr = sympy.sympify(text.replace("^", "**"), locals=dict(zip(CTX_XYZ.names, GENS)))
    expected = sympy.Poly(sympy.expand(expr * clearing), *GENS, domain="QQ")
    assert cleared(parse(text, CTX_XYZ), shift) == sympy_terms(expected)


def test_fraction_coefficients_survive():
    p = parse("1/3*x^-1*y + 2/7*z^2", CTX_XYZ)
    t = clearing_shift(p)
    assert cleared(p * p, add(t, t)) == sympy_terms(to_sympy(p, t) ** 2)
    assert all(type(c) is Fraction for c in (p * p).terms.values())
