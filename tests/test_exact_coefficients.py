"""Coefficients are exact and canonical: an `int` when the value is integral,
otherwise a `Fraction` with denominator > 1, and never a float.

Integer arithmetic stays in the ints, so the places that can leave them are
the divisions: a negative power of a monomial, the preimage under a diagonal
derivation (1/w per weight w) and the pivot inverse of the finiteness
probe's row space.  Each is checked here on integer input, as is the
rejection of inexact coefficients at the public constructors and of
non-integral exponents, weights and degrees.
"""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssderiv import (
    DiagonalDerivation,
    GeneralDerivation,
    LaurentPoly,
    LocallyFinite,
    bezout_multi,
    brute_force_kernel,
    hilbert_basis,
    local_finiteness_probe,
    parse,
    weight_zero_exponents,
)
from ssderiv.derivation import _RowSpace

from helpers import CTX_XY, CTX_XYZ, assert_canonical, int_polys, monomials, weight_vectors


def coefficient_types(p: LaurentPoly) -> set[type]:
    return {type(c) for c in p.terms.values()}


class TestNegativePowerOfMonomial:
    @pytest.mark.parametrize(
        "power, expected, coeff",
        [(-1, "1/2*x^-1", Fraction(1, 2)), (-2, "1/4*x^-2", Fraction(1, 4))],
    )
    def test_integer_coefficient_becomes_fraction(self, power, expected, coeff):
        result = parse("2*x", CTX_XY) ** power
        assert str(result) == expected
        assert result.terms == {(power, 0): coeff}
        assert coefficient_types(result) == {Fraction}

    def test_unit_coefficient_stays_int(self):
        for text in ("x*y", "-x", "x^-3"):
            for power in (-3, -1, 0, 2):
                result = parse(text, CTX_XY) ** power
                assert coefficient_types(result) == {int}

    def test_fraction_coefficient_can_become_int(self):
        result = parse("1/3*y", CTX_XY) ** -2
        assert result.terms == {(0, -2): 9}
        assert coefficient_types(result) == {int}


class TestImagePreimage:
    def test_weights_two_and_minus_three_give_fractions(self):
        d = DiagonalDerivation(CTX_XY, (2, -3))
        hit, preimage = d.image_decompose(parse("x + 6*y - 4*x^2", CTX_XY))
        assert hit
        assert preimage == parse("1/2*x - 2*y - x^2", CTX_XY)
        assert preimage.terms[(1, 0)] == Fraction(1, 2)
        assert type(preimage.terms[(1, 0)]) is Fraction
        assert type(preimage.terms[(0, 1)]) is int
        assert type(preimage.terms[(2, 0)]) is int

    def test_unit_weights_keep_ints(self):
        d = DiagonalDerivation(CTX_XY, (1, -1))
        hit, preimage = d.image_decompose(parse("3*x - 4*y + 5*x^2*y", CTX_XY))
        assert hit
        assert preimage == parse("3*x + 4*y + 5*x^2*y", CTX_XY)
        assert coefficient_types(preimage) == {int}


class TestFinitenessProbeRows:
    def test_integer_images_store_exact_rows(self):
        d = GeneralDerivation(CTX_XY, (parse("2*y", CTX_XY), parse("3*x", CTX_XY)))
        verdict = local_finiteness_probe(d, 6)
        x, y = LaurentPoly.variable(CTX_XY, 0), LaurentPoly.variable(CTX_XY, 1)
        assert verdict == LocallyFinite(((x, 2 * y), (y, 3 * x)))

    def test_row_entries_are_int_or_fraction(self):
        space = _RowSpace()
        for text in ("2*y", "3*x + 2*y", "6*x^2 - 4*x + 2", "5*x^2"):
            space.add(parse(text, CTX_XY))
        assert space.dim == 4
        entries = [v for _, row in space.rows for v in row.terms.values()]
        assert {type(v) for v in entries} == {int, Fraction}
        for pivot, row in space.rows:
            assert row.terms[pivot] == 1 and type(row.terms[pivot]) is int
            assert_canonical(row)
        assert space.contains(parse("x^2 + 7*x - 1/3*y", CTX_XY))


class TestInexactCoefficientsRejected:
    @pytest.mark.parametrize("bad", [0.1, 0.5, 2.0, Decimal("0.5"), "1/2", complex(1, 0), None])
    def test_public_constructors(self, bad):
        with pytest.raises(TypeError):
            LaurentPoly(CTX_XY, {(1, 0): bad})
        with pytest.raises(TypeError):
            LaurentPoly.constant(CTX_XY, bad)
        with pytest.raises(TypeError):
            LaurentPoly.monomial(CTX_XY, (1, 0), bad)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: LaurentPoly(CTX_XY, {(Fraction(3, 2), 0): 1}),
            lambda: LaurentPoly(CTX_XY, {(1.5, 0): 1}),
            lambda: LaurentPoly.monomial(CTX_XY, (2.9, "3")),
            lambda: DiagonalDerivation(CTX_XY, (1.7, -1)),
            lambda: hilbert_basis((1.5, -1)),
            lambda: weight_zero_exponents((1.9, -1), 3),
            lambda: weight_zero_exponents((1, -1), 2.5),
            lambda: weight_zero_exponents((1, -1), -0.5),
            lambda: brute_force_kernel(DiagonalDerivation(CTX_XY, (1, -1)), 2.5),
            lambda: brute_force_kernel(DiagonalDerivation(CTX_XY, (1, -1)), -0.5),
            lambda: bezout_multi((2.5, 3)),
        ],
        ids=["exponent-fraction", "exponent-float", "monomial", "weights", "hilbert_basis",
             "weight_zero_weights", "weight_zero_degree", "weight_zero_negative_degree",
             "brute_force_degree", "brute_force_negative_degree", "bezout_multi"],
    )
    def test_non_integral_exponents_weights_and_degrees(self, build):
        with pytest.raises(TypeError):
            build()

    def test_scalar_multiple(self):
        with pytest.raises(TypeError):
            parse("x", CTX_XY) * 0.5

    def test_exact_values_are_canonicalised(self):
        p = LaurentPoly(CTX_XY, {(1, 0): Fraction(6, 3), (0, 1): True, (0, 0): Fraction(1, 2)})
        assert p.terms == {(1, 0): 2, (0, 1): 1, (0, 0): Fraction(1, 2)}
        assert_canonical(p)
        assert_canonical(LaurentPoly(CTX_XY, {(True, 0): 1}))
        assert DiagonalDerivation(CTX_XY, (True, -1)).weights == (1, -1)
        assert type(LaurentPoly.constant(CTX_XY, Fraction(4, 2)).terms[(0, 0)]) is int
        assert LaurentPoly.constant(CTX_XY, 3).constant_value() == 3
        assert type(LaurentPoly.constant(CTX_XY, 3).constant_value()) is Fraction

    def test_later_value_of_a_repeated_exponent_vector_wins(self):
        class One:
            def __index__(self):
                return 1

        # two keys, one exponent vector: only the later value's denominator counts
        p = LaurentPoly(CTX_XY, {(1, 0): Fraction(1, 2), (One(), 0): 1})
        assert p == parse("x", CTX_XY)
        assert_canonical(p)


class TestCommonFactorReduced:
    """Results whose coefficients share a factor with their common
    denominator come out in lowest terms, equal and hash-equal to the same
    value built directly."""

    def test_sum_of_halves_is_an_int(self):
        p = parse("1/2*x + 1/2*x", CTX_XY)
        assert p.terms == {(1, 0): 1} and coefficient_types(p) == {int}
        assert p == parse("x", CTX_XY) and hash(p) == hash(parse("x", CTX_XY))
        assert_canonical(p)

    def test_scalar_products_reduce(self):
        p = LaurentPoly.variable(CTX_XY, 0) * Fraction(1, 6) * 3
        assert str(p) == "1/2*x"
        assert p.terms == {(1, 0): Fraction(1, 2)}
        assert hash(p) == hash(parse("1/2*x", CTX_XY))
        assert_canonical(p)

    def test_scale_by_clears_the_denominator(self):
        p = parse("1/2*x + 1/2*y", CTX_XY).scale_by(lambda e: 2)
        q = parse("x + y", CTX_XY)
        assert p == q and hash(p) == hash(q)
        assert coefficient_types(p) == {int}
        assert_canonical(p)


@given(
    int_polys(CTX_XYZ, max_terms=6, exp_bound=3),
    weight_vectors(3, bound=4),
    monomials(CTX_XYZ, exp_bound=2, integer=True),
    st.integers(-4, 4),
)
def test_division_sites_on_integer_input_are_exact(p, weights, unit, k):
    d = DiagonalDerivation(CTX_XYZ, weights)
    moving = p - d.weight_decompose(p).components.get(0, LaurentPoly.zero(CTX_XYZ))
    hit, preimage = d.image_decompose(moving)
    assert hit and d.apply(preimage) == moving
    results = [moving, preimage, d.apply(p), unit**k, p * unit**k, p.substitute([unit, unit**-1, unit])]
    if all(abs(d.term_weight(e)) == 1 for e in moving.terms):
        assert coefficient_types(preimage) <= {int}
    images = tuple(unit * c for c in (1, 2, -3))
    verdict = local_finiteness_probe(GeneralDerivation(CTX_XYZ, images), 4)
    if isinstance(verdict, LocallyFinite):
        results.extend(q for span in verdict.spans for q in span)
    space = _RowSpace()
    for q in (p, preimage, unit**k):
        space.add(q)
    results.extend(row for _, row in space.rows)
    for result in results:
        assert_canonical(result)
