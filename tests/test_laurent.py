import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssderiv import LaurentPoly, ParseError, RingCtx, parse
from ssderiv.laurent import MAX_NESTING, MAX_POWER_BITS

from helpers import CTX_XY, CTX_XYZ, assert_canonical, monomials, polys, random_poly


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

    def test_monomial_checks_anything_but_an_int_tuple_with_coefficient_1(self):
        assert LaurentPoly.monomial(CTX_XY, (2, -1)).terms == {(2, -1): 1}
        for exps, key in (([2, -1], (2, -1)), ((True, -1), (1, -1)), (range(3, 1, -1), (3, 2))):
            p = LaurentPoly.monomial(CTX_XY, exps)
            assert p.terms == {key: 1}
            assert_canonical(p)
        assert LaurentPoly.monomial(CTX_XY, (2, -1), Fraction(1)).terms == {(2, -1): 1}
        with pytest.raises(ValueError, match="length"):
            LaurentPoly.monomial(CTX_XY, (1, 2, 3))
        with pytest.raises(TypeError):
            LaurentPoly.monomial(CTX_XY, (1.0, 2))

    def test_renamed_keeps_the_terms(self):
        uv = RingCtx(("u", "v"))
        p = parse("3/2*x^2*y^-1 - y + 5", CTX_XY)
        q = p.renamed(uv)
        assert q.ctx == uv and q.terms == p.terms and str(q) == "3/2*u^2*v^-1 - v + 5"
        assert q.renamed(CTX_XY) == p
        with pytest.raises(ValueError, match="3 variables"):
            p.renamed(CTX_XYZ)

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


# Malformed inputs with the exception each one raises: (text, message, line,
# column), where line and column are None for the ValueError of a negative
# power of a non-unit and the message of a ParseError is followed by its
# position.  Evaluation runs left to right, so of two faults the first one
# wins, except that an unexpected character anywhere is reported first.
ERROR_TABLE = [
    ("x $ y", "unexpected character '$'", 1, 3),
    ("x @", "unexpected character '@'", 1, 3),
    ("x +\n  y ! 2", "unexpected character '!'", 2, 5),
    ("3 # comment", "unexpected character '#'", 1, 3),
    ("x^2.5", "unexpected character '.'", 1, 4),
    ("x y", "unexpected 'y'", 1, 3),
    ("x/2", "unexpected '/'", 1, 2),
    ("x + y)", "unexpected ')'", 1, 6),
    ("(x)(y)", "unexpected '('", 1, 4),
    ("2 3", "unexpected '3'", 1, 3),
    ("x^2^3", "unexpected '^'", 1, 4),
    ("1/2/3", "unexpected '/'", 1, 4),
    ("", "expected a number, a variable or '(' but found 'end of input'", 1, 1),
    ("   ", "expected a number, a variable or '(' but found 'end of input'", 1, 4),
    ("x +", "expected a number, a variable or '(' but found 'end of input'", 1, 4),
    ("x + -y", "expected a number, a variable or '(' but found '-'", 1, 5),
    ("x * * y", "expected a number, a variable or '(' but found '*'", 1, 5),
    ("*x", "expected a number, a variable or '(' but found '*'", 1, 1),
    ("x^", "expected an integer exponent but found 'end of input'", 1, 3),
    ("x^-", "expected an integer exponent but found 'end of input'", 1, 4),
    ("x^^2", "expected an integer exponent but found '^'", 1, 3),
    ("x^--2", "expected an integer exponent but found '-'", 1, 4),
    ("x^y", "expected an integer exponent but found 'y'", 1, 3),
    ("x^(2)", "expected an integer exponent but found '('", 1, 3),
    ("x^+", "expected an integer exponent but found 'end of input'", 1, 4),
    ("()", "expected a number, a variable or '(' but found ')'", 1, 2),
    ("1/", "expected an integer denominator", 1, 3),
    ("1/x", "expected an integer denominator", 1, 3),
    ("1/-2", "expected an integer denominator", 1, 3),
    ("1/(2)", "expected an integer denominator", 1, 3),
    ("1/0", "denominator must be positive", 1, 3),
    ("3/00", "denominator must be positive", 1, 3),
    ("(x + y", "expected ')'", 1, 7),
    ("((x)", "expected ')'", 1, 5),
    ("(x + y]", "unexpected character ']'", 1, 7),
    ("(x y)", "expected ')'", 1, 4),
    ("q", "unknown variable 'q'", 1, 1),
    ("x*w", "unknown variable 'w'", 1, 3),
    ("x + Y", "unknown variable 'Y'", 1, 5),
    ("2*x1", "unknown variable 'x1'", 1, 3),
    ("x +\n  y q", "unexpected 'q'", 2, 5),
    ("x\n\n   *\n)", "expected a number, a variable or '(' but found ')'", 4, 1),
    ("\n\n(x +\n y", "expected ')'", 4, 3),
    ("x\t+ $", "unexpected character '$'", 1, 5),
    ("(x+y)^-1", "not a unit", None, None),
    ("0^-1", "not a unit", None, None),
    ("(0)^-1", "not a unit", None, None),
    ("(x-x)^-2", "not a unit", None, None),
    ("z*(x+y)^-1 + q", "not a unit", None, None),
    ("(x+y)^-1 + q", "not a unit", None, None),
    ("q + (x+y)^-1", "unknown variable 'q'", 1, 1),
    ("0^-1 $", "unexpected character '$'", 1, 6),
    ("(x+y)^-1 y", "not a unit", None, None),
    ("-", "expected a number, a variable or '(' but found 'end of input'", 1, 2),
    ("- + x", "expected a number, a variable or '(' but found '+'", 1, 3),
    ("--x", "expected a number, a variable or '(' but found '-'", 1, 2),
    ("0/5^-1", "not a unit", None, None),
    ("x^-1*(y + 1)^-2", "not a unit", None, None),
    # parenthesis-free texts, which parse reads with string splits first
    ("2x", "unexpected 'x'", 1, 2),
    ("x^ -", "expected an integer exponent but found 'end of input'", 1, 5),
    ("x^+-2", "expected an integer exponent but found '-'", 1, 4),
    ("x^-+2", "expected an integer exponent but found '+'", 1, 4),
    ("x^~2", "unexpected character '~'", 1, 3),
    ("x^2/3", "unexpected '/'", 1, 4),
    ("+x", "expected a number, a variable or '(' but found '+'", 1, 1),
    ("  +x", "expected a number, a variable or '(' but found '+'", 1, 3),
    ("x - ", "expected a number, a variable or '(' but found 'end of input'", 1, 5),
    ("1_0", "unexpected '_0'", 1, 2),
    ("- -x", "expected a number, a variable or '(' but found '-'", 1, 3),
    ("x**2", "expected a number, a variable or '(' but found '*'", 1, 3),
    ("x\u00a0y", "unexpected 'y'", 1, 3),
    ("\u3000-\u2002-x", "expected a number, a variable or '(' but found '-'", 1, 4),
]


@pytest.mark.parametrize("text, message, line, col", ERROR_TABLE)
def test_error_table(text, message, line, col):
    if line is None:
        with pytest.raises(ValueError) as info:
            parse(text, CTX_XYZ)
        assert type(info.value) is ValueError and str(info.value) == message
    else:
        with pytest.raises(ParseError) as info:
            parse(text, CTX_XYZ)
        assert str(info.value) == f"{message} (line {line}, column {col})"
        assert (info.value.line, info.value.col) == (line, col)


class TestParseLimits:
    @pytest.mark.parametrize(
        "text, col",
        [("x^\u00b2", 3), ("x^\u0663", 3), ("\u0663*x", 1), ("x\u00b2", 2), ("\u00e9", 1)],
    )
    def test_only_ascii_digits_and_names(self, text, col):
        # a superscript two and an Arabic-Indic three are digits to str.isdigit
        with pytest.raises(ParseError) as info:
            parse(text, CTX_XYZ)
        assert str(info.value) == f"unexpected character {text[col - 1]!r} (line 1, column {col})"

    def test_unicode_whitespace_still_separates(self):
        assert parse("x\u00a0+\ty", CTX_XYZ) == parse("x + y", CTX_XYZ)

    def test_flat_text_with_5000_digit_numbers(self):
        ones = (10**5000 - 1) // 9  # "1" * 5000
        text = f"1{'0' * 4999}1/{'7' * 5000}*x^{'1' * 5000} - y^-{'2' * 5000} + {'3' * 5000}"
        p = parse(text, CTX_XY)
        assert p.terms == {
            (ones, 0): Fraction(10**5000 + 1, 7 * ones),
            (0, -2 * ones): -1,
            (0, 0): 3 * ones,
        }
        assert p == parse(f"({text})", CTX_XY)

    HUGE_K = "1" + "0" * 29  # an exponent of 30 digits

    @pytest.mark.parametrize(
        "text, col",
        [
            (f"10^{HUGE_K}", 4),
            (f"x + 10^{HUGE_K}*y", 8),
            (f"(10^{HUGE_K})", 5),
            (f"(10)^{HUGE_K}", 6),
            (f"(-3/2*x)^-{HUGE_K}", 11),
            (f"2/3^-{HUGE_K}", 6),
            (f"0/5^{HUGE_K}", 5),
            ("3^2097153", 3),
        ],
    )
    def test_huge_power_of_a_number_is_refused(self, text, col):
        start = time.perf_counter()
        with pytest.raises(ParseError) as info:
            parse(text, CTX_XY)
        assert time.perf_counter() - start < 1
        message = f"power of a number over {MAX_POWER_BITS} bits"
        assert str(info.value) == f"{message} (line 1, column {col})"

    def test_powers_up_to_the_bound_and_of_0_and_1_parse(self):
        start = time.perf_counter()
        text = f"0^{self.HUGE_K}*y + 1^{self.HUGE_K} + 1/1^-{self.HUGE_K} - x^{self.HUGE_K} + (-1)^{self.HUGE_K}"
        assert parse(text, CTX_XY).terms == {(0, 0): 3, (10**29, 0): -1}
        assert parse(f"(x*y^-1)^{self.HUGE_K}", CTX_XY).terms == {(10**29, -(10**29)): 1}
        assert time.perf_counter() - start < 1
        # k times the bit length 2 of 2 (or 3) is 2^22 = MAX_POWER_BITS here
        assert parse("2^2097152", CTX_XY).terms == {(0, 0): 2**2097152}
        assert parse("(2)^2097152", CTX_XY) == parse("4^1048576", CTX_XY) == parse("2^2097152", CTX_XY)
        assert parse("1/3^-2097152", CTX_XY).terms == {(0, 0): 3**2097152}

    def test_deep_nesting_fails_fast(self):
        depth = 10_000
        with pytest.raises(ParseError) as info:
            parse("(" * depth + "x" + ")" * depth, CTX_XYZ)
        column = MAX_NESTING + 1
        assert str(info.value) == (
            f"parentheses nested more than {MAX_NESTING} deep (line 1, column {column})"
        )

    @pytest.mark.parametrize("depth", [50, MAX_NESTING])
    def test_nesting_up_to_the_limit_parses(self, depth):
        text = "(" * depth + "x - 1" + ")" * depth + "*(x + 1)"
        assert parse(text, CTX_XYZ) == parse("x^2 - 1", CTX_XYZ)
        assert parse("(-" * depth + "2*y" + ")" * depth, CTX_XYZ) == parse("2*y", CTX_XYZ)


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

    @pytest.mark.parametrize(
        "terms, text",
        [
            ({(1, 0, 0): -2, (0, 0, 0): 1}, "-2*x + 1"),
            ({(0, 1, 0): Fraction(-1, 3)}, "-1/3*y"),
            ({(1, 1, 0): 1, (0, 0, 1): -1}, "x*y - z"),
            ({(0, 0, -1): -1, (0, 0, -2): 1}, "-z^-1 + z^-2"),
            ({(0, 2, -1): Fraction(3, 4), (0, 0, 0): Fraction(-5, 7)}, "3/4*y^2*z^-1 - 5/7"),
            ({(2, 0, 0): 1, (0, 0, 0): Fraction(5, 7)}, "x^2 + 5/7"),
            ({(0, 0, 0): Fraction(-5, 7)}, "-5/7"),
            ({(0, 0, 0): 12}, "12"),
            ({(0, 0, 0): -1}, "-1"),
            ({(0, 0, 0): 1}, "1"),
            ({(1, 0, 0): 1, (0, 0, 0): -12}, "x - 12"),
        ],
    )
    def test_coefficient_shapes(self, terms, text):
        assert str(LaurentPoly(CTX_XYZ, terms)) == text

    @pytest.mark.parametrize(
        "p",
        [
            LaurentPoly(CTX_XY, {(1, 0): 3**10000}),
            parse("1" * 20000 + "*x - " + "9" * 5000 + "/" + "7" * 4301 + "*y^-1", CTX_XY),
            LaurentPoly(CTX_XY, {(10**5000, -(10**4300)): -1, (0, 0): -(2**20000)}),
        ],
    )
    def test_integers_beyond_the_digit_limit_round_trip(self, p):
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        limit = get_limit()
        assert parse(str(p), CTX_XY) == p
        assert get_limit() == limit

    def test_long_literal_parses_exactly(self):
        p = parse("1" * 5000 + "*x", CTX_XY)
        assert p.terms == {(1, 0): (10**5000 - 1) // 9}


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


# Random expression trees for the parser oracle.  A node is ("var", name),
# ("num", c) with c >= 0, ("neg", a), ("^", a, k) or (op, a, b) for op in
# "+-*".  Only unit-valued subtrees (nonzero monomials) take negative powers.
_LEAVES = st.one_of(
    st.sampled_from(CTX_XYZ.names).map(lambda name: ("var", name)),
    st.fractions(min_value=0, max_value=9, max_denominator=6).map(lambda c: ("num", c)),
)
_UNITS = st.recursive(
    st.one_of(
        st.sampled_from(CTX_XYZ.names).map(lambda name: ("var", name)),
        st.fractions(min_value=0, max_value=9, max_denominator=6).filter(bool).map(
            lambda c: ("num", c)
        ),
    ),
    lambda units: st.one_of(
        st.tuples(st.just("*"), units, units),
        st.tuples(st.just("^"), units, st.integers(-3, 3)),
    ),
    max_leaves=4,
)
_TREES = st.recursive(
    st.one_of(_LEAVES, _UNITS),
    lambda trees: st.one_of(
        st.tuples(st.sampled_from("+-*"), trees, trees),
        st.tuples(st.just("neg"), trees),
        st.tuples(st.just("^"), trees, st.integers(0, 3)),
        st.tuples(st.just("^"), _UNITS, st.integers(-3, -1)),
    ),
    max_leaves=8,
)
# binding strength of each node's text; a child weaker than its slot needs
_STRENGTH = {"+": 0, "-": 0, "neg": 0, "*": 1, "^": 2, "var": 3, "num": 3}


def _render(node, slot=0):
    kind = node[0]
    if kind in ("var", "num"):
        text = str(node[1])
    elif kind == "neg":
        text = "-" + _render(node[1], 1)
    elif kind == "^":
        text = f"{_render(node[1], 3)}^{node[2]}"
    elif kind == "*":
        text = f"{_render(node[1], 1)}*{_render(node[2], 1)}"
    else:
        text = f"{_render(node[1])} {kind} {_render(node[2], 1)}"
    return f"({text})" if _STRENGTH[kind] < slot else text


def _evaluate(node):
    kind = node[0]
    if kind == "var":
        return LaurentPoly.variable(CTX_XYZ, node[1])
    if kind == "num":
        return LaurentPoly.constant(CTX_XYZ, node[1])
    if kind == "neg":
        return -_evaluate(node[1])
    if kind == "^":
        return _evaluate(node[1]) ** node[2]
    a, b = _evaluate(node[1]), _evaluate(node[2])
    return a + b if kind == "+" else a - b if kind == "-" else a * b


@given(_TREES)
def test_parse_matches_public_arithmetic(tree):
    assert parse(_render(tree), CTX_XYZ) == _evaluate(tree)


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
