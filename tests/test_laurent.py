import random
from fractions import Fraction

import pytest
from hypothesis import given

from ssderiv import LaurentPoly, ParseError, RingCtx, parse

from helpers import CTX_XY, CTX_XYZ, monomials, polys, random_poly


class TestRingCtx:
    def test_basic(self):
        ctx = RingCtx(("x", "y2", "_z"))
        assert ctx.n == 3
        assert ctx.index("y2") == 1

    def test_rejects_bad_names(self):
        with pytest.raises(ValueError, match="invalid variable name"):
            RingCtx(("x", "2y"))
        with pytest.raises(ValueError, match="distinct"):
            RingCtx(("x", "x"))
        with pytest.raises(ValueError, match="at least one"):
            RingCtx(())


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        p = LaurentPoly(CTX_XY, {(1, 0): Fraction(0), (0, 1): 2})
        assert p.terms == {(0, 1): Fraction(2)}

    def test_exponent_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            LaurentPoly(CTX_XY, {(1,): 1})

    def test_variable_index_out_of_range(self):
        assert LaurentPoly.variable(CTX_XY, 1) == LaurentPoly.variable(CTX_XY, "y")
        for bad in (2, 5, -1):
            with pytest.raises(ValueError, match="out of range"):
                LaurentPoly.variable(CTX_XY, bad)

    def test_partial_index_out_of_range(self):
        p = parse("x*y^2", CTX_XY)
        for bad in (2, -1):
            with pytest.raises(ValueError, match="out of range"):
                p.partial(bad)


class TestArithmetic:
    def test_product_of_conjugates(self):
        x = LaurentPoly.variable(CTX_XY, "x")
        y = LaurentPoly.variable(CTX_XY, "y")
        assert (x + y) * (x - y) == parse("x^2 - y^2", CTX_XY)

    def test_negative_power_of_monomial(self):
        p = parse("x*y^-1", CTX_XY)
        assert p**-2 == parse("x^-2*y^2", CTX_XY)

    def test_negative_power_of_sum_rejected(self):
        with pytest.raises(ValueError, match="not a unit"):
            parse("(x+y)^-1", CTX_XY)

    def test_ctx_mismatch_rejected(self):
        x = LaurentPoly.variable(CTX_XY, "x")
        z = LaurentPoly.variable(CTX_XYZ, "z")
        with pytest.raises(ValueError, match="context mismatch"):
            x + z

    def test_scalar_multiplication(self):
        x = LaurentPoly.variable(CTX_XY, "x")
        assert 3 * x == x * 3 == parse("3*x", CTX_XY)
        assert x * Fraction(1, 2) == parse("1/2*x", CTX_XY)

    def test_zero_power(self):
        assert parse("x + y", CTX_XY) ** 0 == LaurentPoly.constant(CTX_XY, 1)


class TestParse:
    def test_mixed_expression(self):
        p = parse("3*x^2*y^-1 - 1/2", CTX_XY)
        assert p.terms == {(2, -1): Fraction(3), (0, 0): Fraction(-1, 2)}

    def test_single_product(self):
        assert parse("x*y", CTX_XY).terms == {(1, 1): Fraction(1)}

    def test_double_caret_is_syntax_error(self):
        with pytest.raises(ParseError, match=r"line 1, column 3"):
            parse("x^^2", CTX_XY)

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable 'z'"):
            parse("x*z", CTX_XY)

    def test_error_position_spans_lines(self):
        with pytest.raises(ParseError, match=r"line 2, column 5"):
            parse("x +\n  y q", CTX_XY)

    def test_unary_minus_at_head(self):
        assert parse("-x + y", CTX_XY) == parse("y - x", CTX_XY)
        assert parse("-(x - y)", CTX_XY) == parse("y - x", CTX_XY)

    def test_rational_literals(self):
        assert parse("2/4", CTX_XY) == LaurentPoly.constant(CTX_XY, Fraction(1, 2))
        with pytest.raises(ParseError, match="denominator must be positive"):
            parse("1/0", CTX_XY)

    def test_leftover_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse("x y", CTX_XY)
        with pytest.raises(ParseError):
            parse("x/2", CTX_XY)


class TestFormat:
    def test_zero(self):
        assert str(LaurentPoly.zero(CTX_XY)) == "0"

    def test_unit_coefficient_suppressed(self):
        assert str(LaurentPoly(CTX_XY, {(1, 1): 1})) == "x*y"

    def test_mixed_terms(self):
        p = LaurentPoly(CTX_XY, {(2, -1): 3, (0, 0): Fraction(-1, 2)})
        assert str(p) == "3*x^2*y^-1 - 1/2"

    def test_leading_negative(self):
        assert str(LaurentPoly(CTX_XY, {(1, 0): -1, (0, 0): 2})) == "-x + 2"


class TestSubstitute:
    def test_polynomial_image(self):
        p = parse("x*y", CTX_XY)
        images = [parse("x", CTX_XY), parse("y + x^2", CTX_XY)]
        assert p.substitute(images) == parse("x*y + x^3", CTX_XY)

    def test_monomial_image_of_negative_power(self):
        p = parse("x^-1", CTX_XY)
        assert p.substitute([parse("x*y", CTX_XY), parse("y", CTX_XY)]) == parse(
            "x^-1*y^-1", CTX_XY
        )

    def test_nonunit_image_of_negative_power_rejected(self):
        p = parse("x^-1", CTX_XY)
        with pytest.raises(ValueError, match="not a unit"):
            p.substitute([parse("x + y", CTX_XY), parse("y", CTX_XY)])


@given(polys(CTX_XYZ, max_terms=6), polys(CTX_XYZ, max_terms=6), polys(CTX_XYZ, max_terms=6))
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == LaurentPoly.zero(CTX_XYZ)


@given(polys(CTX_XY))
def test_parse_format_roundtrip(p):
    assert parse(str(p), CTX_XY) == p


@given(polys(CTX_XY, max_terms=5, exp_bound=4), polys(CTX_XY, max_terms=5, exp_bound=4),
       monomials(CTX_XY, exp_bound=2), monomials(CTX_XY, exp_bound=2))
def test_substitute_is_multiplicative(p, q, im1, im2):
    images = [im1, im2]
    assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)
    assert (p + q).substitute(images) == p.substitute(images) + q.substitute(images)


def test_bulk_roundtrip_and_axioms_seeded():
    # 500 seeded random instances apiece, cheap enough to run every time
    rng = random.Random(1405)
    for _ in range(500):
        p = random_poly(rng, CTX_XYZ, max_terms=8, exp_bound=5)
        assert parse(str(p), CTX_XYZ) == p
    rng = random.Random(1406)
    for _ in range(500):
        p = random_poly(rng, CTX_XYZ, max_terms=4, exp_bound=5)
        q = random_poly(rng, CTX_XYZ, max_terms=4, exp_bound=5)
        r = random_poly(rng, CTX_XYZ, max_terms=4, exp_bound=5)
        assert p * (q + r) == p * q + p * r
