import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssderiv import (
    DiagonalDerivation,
    GeneralDerivation,
    Inconclusive,
    LaurentPoly,
    LocallyFinite,
    NotLocallyFinite,
    RingCtx,
    commutator,
    conjugate,
    local_finiteness_probe,
    parse,
    scalar_multiple_semisimple,
)
from ssderiv.derivation import _RowSpace

from helpers import (
    CTX_X,
    CTX_XY,
    CTX_XYZ,
    polys,
    nonzero_polys,
    random_derivation,
    random_poly,
    random_triangular_pair,
    weight_vectors,
)

D_HYP = DiagonalDerivation(CTX_XY, (1, -1))
X = LaurentPoly.variable(CTX_XY, "x")
Y = LaurentPoly.variable(CTX_XY, "y")
DELTA = GeneralDerivation(CTX_XY, (parse("x^2*y", CTX_XY), parse("-x*y^2", CTX_XY)))


class TestApply:
    def test_kernel_element(self):
        assert D_HYP.apply(X * Y).is_zero()

    def test_inverse_monomial(self):
        assert D_HYP.apply(X**-1) == -(X**-1)

    def test_kernel_membership(self):
        assert D_HYP.apply(X * Y).is_zero()
        assert not D_HYP.apply(X).is_zero()
        d = DiagonalDerivation(CTX_XY, (2, -3))
        assert d.apply(parse("x^3*y^2 + 7", CTX_XY)).is_zero()

    def test_general_derivation_on_variable(self):
        assert DELTA.apply(X) == parse("x^2*y", CTX_XY)

    def test_ctx_mismatch(self):
        with pytest.raises(ValueError, match="context mismatch"):
            D_HYP.apply(LaurentPoly.variable(CTX_XYZ, "x"))


class TestWeightDecompose:
    def test_two_components(self):
        dec = D_HYP.weight_decompose(X * Y + X)
        assert dec.weights == (0, 1)
        assert dec.components[0] == X * Y
        assert dec.components[1] == X

    def test_zero_polynomial(self):
        assert D_HYP.weight_decompose(LaurentPoly.zero(CTX_XY)).components == {}

    def test_single_weight_zero_monomial(self):
        d = DiagonalDerivation(CTX_XY, (2, -3))
        p = parse("x^3*y^2", CTX_XY)
        assert d.weight_decompose(p).components == {0: p}


class TestSemiInvariantWeight:
    def test_invariant(self):
        assert D_HYP.semi_invariant_weight(X * Y) == 0

    def test_mixed_weights(self):
        assert D_HYP.semi_invariant_weight(X + Y) is None

    def test_weight_five(self):
        d = DiagonalDerivation(CTX_XY, (2, 3))
        assert d.semi_invariant_weight(parse("x^2 + x*y", CTX_XY)) is None
        assert d.semi_invariant_weight(X * Y) == 5

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="weight of zero undefined"):
            D_HYP.semi_invariant_weight(LaurentPoly.zero(CTX_XY))


class TestImageDecompose:
    def test_kernel_element_rejected(self):
        assert D_HYP.image_decompose(X * Y) == (False, None)

    def test_weight_one_element(self):
        hit, preimage = D_HYP.image_decompose(3 * X)
        assert hit and preimage == 3 * X

    def test_negative_weight_divides(self):
        d = DiagonalDerivation(CTX_XY, (2, -3))
        hit, preimage = d.image_decompose(4 * X * Y**2)
        assert hit and preimage == -(X * Y**2)
        assert d.apply(preimage) == 4 * X * Y**2

    def test_zero_is_hit(self):
        hit, preimage = D_HYP.image_decompose(LaurentPoly.zero(CTX_XY))
        assert hit and preimage.is_zero()


class TestSumAndCommutator:
    def test_weights_add(self):
        d1 = DiagonalDerivation(CTX_XY, (1, -1))
        d2 = DiagonalDerivation(CTX_XY, (1, 1))
        assert (d1 + d2).weights == (2, 0)
        assert (d1 + DiagonalDerivation(CTX_XY, (0, 0))).weights == d1.weights
        assert (DiagonalDerivation(CTX_XY, (2, -3)) + DiagonalDerivation(CTX_XY, (-2, 3))).is_zero()

    def test_sum_acts_as_sum(self):
        d1 = DiagonalDerivation(CTX_XY, (1, -1))
        d2 = DiagonalDerivation(CTX_XY, (2, 5))
        p = parse("x^2*y - 3*x + y^-2", CTX_XY)
        assert (d1 + d2).apply(p) == d1.apply(p) + d2.apply(p)

    def test_univariate_commutator(self):
        # images d1(x) = x^2, d2(x) = x: [d1, d2](x) = d1(x) - d2(x^2) = -x^2
        d1 = GeneralDerivation(CTX_X, (parse("x^2", CTX_X),))
        d2 = GeneralDerivation(CTX_X, (parse("x", CTX_X),))
        assert commutator(d1, d2).images[0] == parse("-x^2", CTX_X)

    def test_self_commutator_vanishes(self):
        assert all(g.is_zero() for g in commutator(DELTA, DELTA).images)

    def test_diagonal_lifts_commute(self):
        d1 = DiagonalDerivation(CTX_XY, (3, -2)).as_general()
        d2 = DiagonalDerivation(CTX_XY, (-1, 7)).as_general()
        assert all(g.is_zero() for g in commutator(d1, d2).images)

    @given(weight_vectors(3), weight_vectors(3))
    def test_random_diagonal_lifts_commute(self, ws1, ws2):
        d1 = DiagonalDerivation(CTX_XYZ, ws1).as_general()
        d2 = DiagonalDerivation(CTX_XYZ, ws2).as_general()
        assert all(g.is_zero() for g in commutator(d1, d2).images)


class TestConjugate:
    def test_identity_automorphism(self):
        identity = [X, Y]
        d = conjugate(D_HYP, identity, identity)
        assert d.images == (X, -Y)

    def test_shear_example(self):
        d = DiagonalDerivation(CTX_XY, (1, 3))
        phi = [X, Y + X**2]
        psi = [X, Y - X**2]
        transported = conjugate(d, phi, psi)
        assert transported.images == (X, parse("3*y + x^2", CTX_XY))
        assert transported.apply(Y + X**2) == 3 * (Y + X**2)

    def test_inverse_checked(self):
        with pytest.raises(ValueError, match="not mutually inverse"):
            conjugate(D_HYP, [X, Y + X**2], [X, Y + X**2])


class TestScalarMultiple:
    def test_constant_is_semisimple(self):
        assert scalar_multiple_semisimple(LaurentPoly.constant(CTX_XY, 3), D_HYP)
        assert scalar_multiple_semisimple(LaurentPoly.zero(CTX_XY), D_HYP)

    def test_invariant_monomial_is_not(self):
        assert not scalar_multiple_semisimple(X * Y, D_HYP)

    def test_non_kernel_element_rejected(self):
        with pytest.raises(ValueError, match="not in ker"):
            scalar_multiple_semisimple(X, D_HYP)

    def test_zero_derivation_rejected(self):
        with pytest.raises(ValueError, match="requires D != 0"):
            scalar_multiple_semisimple(X * Y, DiagonalDerivation(CTX_XY, (0, 0)))


class TestFinitenessProbe:
    def test_diagonal_lift_is_locally_finite(self):
        verdict = local_finiteness_probe(D_HYP.as_general(), 3)
        assert isinstance(verdict, LocallyFinite)
        assert verdict.span_dims == (1, 1)

    def test_invariant_multiple_is_not(self):
        verdict = local_finiteness_probe(DELTA, 4)
        assert isinstance(verdict, NotLocallyFinite)
        assert [str(p) for p in verdict.chain] == ["x", "x^2*y", "x^3*y^2", "x^4*y^3"]
        assert verdict.shift == (1, 1)
        degrees = [sum(p.monomial_exponents()) for p in verdict.chain]
        assert degrees == [1, 3, 5, 7]

    def test_conjugate_is_locally_finite(self):
        d = DiagonalDerivation(CTX_XY, (1, 3))
        transported = conjugate(d, [X, Y + X**2], [X, Y - X**2])
        verdict = local_finiteness_probe(transported, 5)
        assert isinstance(verdict, LocallyFinite)
        assert verdict.span_dims == (1, 2)

    def test_locally_finite_spans_are_closed(self):
        d = DiagonalDerivation(CTX_XY, (1, 3))
        transported = conjugate(d, [X, Y + X**2], [X, Y - X**2])
        verdict = local_finiteness_probe(transported, 5)
        for span in verdict.spans:
            space = _RowSpace()
            for p in span:
                space.add(p)
            for p in span:
                assert space.contains(transported.apply(p))

    def test_small_bound_is_inconclusive(self):
        assert isinstance(local_finiteness_probe(DELTA, 1), Inconclusive)

    def test_nilpotent_shift_not_miscertified(self):
        # d(x) = y, d(y) = 0 is locally nilpotent: chain x, y, 0 stabilizes
        d = GeneralDerivation(CTX_XY, (Y, LaurentPoly.zero(CTX_XY)))
        verdict = local_finiteness_probe(d, 4)
        assert isinstance(verdict, LocallyFinite)

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            local_finiteness_probe(DELTA, 0)


# ----------------------------------------------------------------------
# law-level properties


@given(weight_vectors(2), polys(CTX_XY, max_terms=5), polys(CTX_XY, max_terms=5))
def test_leibniz_diagonal(ws, p, q):
    d = DiagonalDerivation(CTX_XY, ws)
    assert d.apply(p * q) == d.apply(p) * q + p * d.apply(q)


@given(
    polys(CTX_XY, max_terms=3, exp_bound=2),
    polys(CTX_XY, max_terms=3, exp_bound=2),
    polys(CTX_XY, max_terms=4, exp_bound=3),
    polys(CTX_XY, max_terms=4, exp_bound=3),
)
def test_leibniz_general(g1, g2, p, q):
    d = GeneralDerivation(CTX_XY, (g1, g2))
    assert d.apply(p * q) == d.apply(p) * q + p * d.apply(q)


@given(weight_vectors(2), nonzero_polys(CTX_XY, max_terms=5), nonzero_polys(CTX_XY, max_terms=5))
def test_weight_additivity(ws, p, q):
    d = DiagonalDerivation(CTX_XY, ws)
    for w1, c1 in d.weight_decompose(p).components.items():
        for w2, c2 in d.weight_decompose(q).components.items():
            assert d.semi_invariant_weight(c1 * c2) == w1 + w2


@given(weight_vectors(3), polys(CTX_XYZ))
def test_decomposition_soundness(ws, p):
    d = DiagonalDerivation(CTX_XYZ, ws)
    dec = d.weight_decompose(p)
    assert dec.recombine(CTX_XYZ) == p
    for w, component in dec.components.items():
        assert d.apply(component) == component * w
        assert not component.is_zero()


@given(
    weight_vectors(2),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(-5, 5),
)
def test_integer_power_law(ws, exps, m):
    d = DiagonalDerivation(CTX_XY, ws)
    b = LaurentPoly.monomial(CTX_XY, exps, Fraction(2, 3))
    w = d.semi_invariant_weight(b)
    assert d.apply(b**m) == (b**m) * (m * w)


@given(weight_vectors(2), polys(CTX_XY))
def test_image_roundtrip(ws, p):
    d = DiagonalDerivation(CTX_XY, ws)
    hit, preimage = d.image_decompose(p)
    if hit:
        assert d.apply(preimage) == p
    else:
        assert 0 in d.weight_decompose(p).components


def test_conjugation_random_eigenbasis():
    rng = random.Random(77)
    for _ in range(60):
        ctx = [CTX_XY, CTX_XYZ][rng.randrange(2)]
        d = random_derivation(rng, ctx, bound=5, nonzero=False)
        phi, psi = random_triangular_pair(rng, ctx, steps=rng.randint(1, 3))
        transported = conjugate(d, phi, psi)
        for w, image in zip(d.weights, phi):
            assert transported.apply(image) == image * w


def test_leibniz_bulk_seeded():
    rng = random.Random(4242)
    for _ in range(250):
        d = random_derivation(rng, CTX_XYZ, nonzero=False)
        p = random_poly(rng, CTX_XYZ)
        q = random_poly(rng, CTX_XYZ)
        assert d.apply(p * q) == d.apply(p) * q + p * d.apply(q)
    for _ in range(250):
        g = tuple(random_poly(rng, CTX_XY, max_terms=3, exp_bound=2) for _ in range(2))
        d = GeneralDerivation(CTX_XY, g)
        p = random_poly(rng, CTX_XY, max_terms=4)
        q = random_poly(rng, CTX_XY, max_terms=4)
        assert d.apply(p * q) == d.apply(p) * q + p * d.apply(q)
