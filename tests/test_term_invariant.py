"""Every operation that builds its result through the internal trusted
constructor must still return polynomials in canonical form: int-tuple keys
of length ctx.n, nonzero exact values with one representation each (an `int`
exactly when the value is integral, otherwise a `Fraction` with denominator
> 1, never a float), and equal to a fully validated reconstruction of its
own terms.  Half of the examples draw integer coefficients only, the case in
which no arithmetic but a division may leave the integers."""

from hypothesis import given
from hypothesis import strategies as st

from ssderiv import DiagonalDerivation, GeneralDerivation, LaurentPoly, RingCtx, parse

from helpers import CTX_XY, CTX_XYZ, assert_canonical, either, monomials, polys, weight_vectors


scalars = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=7)
)


@given(
    either(polys, CTX_XYZ, max_terms=6),
    either(polys, CTX_XYZ, max_terms=6),
    scalars,
    st.integers(0, 4),
    either(monomials, CTX_XYZ, exp_bound=3),
    st.integers(-4, 4),
    st.integers(0, CTX_XYZ.n - 1),
)
def test_arithmetic_results_are_canonical(p, q, scalar, k, unit, m, i):
    results = [
        p + q,
        p - q,
        -p,
        p - p,
        p * q,
        p * scalar,
        scalar * p,
        p**k,
        unit**m,
        p.partial(i),
        p.substitute([unit, LaurentPoly.variable(CTX_XYZ, 2), unit**-1]),
        parse(str(p), CTX_XYZ),
        parse(f"-({p})*({q}) + ({q})^2 - ({p})", CTX_XYZ),
    ]
    for result in results:
        assert_canonical(result)


@given(
    either(polys, CTX_XY, max_terms=5, exp_bound=3).map(
        lambda p: LaurentPoly(CTX_XY, {(abs(a), abs(b)): c for (a, b), c in p.terms.items()})
    ),
    either(polys, CTX_XY, max_terms=4, exp_bound=2),
    either(polys, CTX_XY, max_terms=4, exp_bound=2),
)
def test_substitute_into_polynomial_images_is_canonical(p, f, g):
    assert_canonical(p.substitute([f, g]))
    ctx_uvw = RingCtx(("u", "v", "w"))
    images = [LaurentPoly.variable(ctx_uvw, 0) + LaurentPoly.variable(ctx_uvw, 2)] * 2
    assert_canonical(p.substitute(images))


@given(either(polys, CTX_XYZ, max_terms=8), weight_vectors(3, bound=4),
       either(polys, CTX_XYZ, max_terms=3), either(polys, CTX_XYZ, max_terms=3),
       either(polys, CTX_XYZ, max_terms=3))
def test_derivation_results_are_canonical(p, weights, a, b, c):
    d = DiagonalDerivation(CTX_XYZ, weights)
    assert_canonical(d.apply(p))
    assert not any(d.term_weight(e) == 0 for e in d.apply(p).terms)
    assert_canonical(GeneralDerivation(CTX_XYZ, (a, b, c)).apply(p))
    assert_canonical(d.as_general().apply(p))

    decomposition = d.weight_decompose(p)
    for component in decomposition.components.values():
        assert_canonical(component)
    recombined = decomposition.recombine(CTX_XYZ)
    assert_canonical(recombined)
    assert recombined == p

    weight_zero = decomposition.components.get(0, LaurentPoly.zero(CTX_XYZ))
    hit, preimage = d.image_decompose(p - weight_zero)
    assert hit
    assert_canonical(preimage)
    assert d.apply(preimage) == p - weight_zero
