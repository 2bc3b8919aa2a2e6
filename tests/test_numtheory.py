import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ssderiv import BezoutResult, bezout_multi, ext_gcd
from ssderiv.numtheory import decimal_to_int, int_to_decimal

from helpers import fibonacci_pair, reference_ext_gcd


def test_bezout_pair_examples():
    assert bezout_multi((2, 3)) == BezoutResult(1, (-1, 1))
    assert bezout_multi((1, -1)) == BezoutResult(1, (1, 0))
    assert bezout_multi((4, 6)) == BezoutResult(2, (-1, 1))


def test_bezout_single_and_zero_entries():
    assert bezout_multi((-5,)) == BezoutResult(5, (-1,))
    result = bezout_multi((0, 2, 3))
    assert result.g == 1
    assert result.coeffs[0] == 0
    assert sum(m * w for m, w in zip(result.coeffs, (0, 2, 3))) == 1


def test_bezout_zero_vector_rejected():
    with pytest.raises(ValueError, match="zero vector"):
        bezout_multi((0, 0, 0))
    with pytest.raises(ValueError, match="zero vector"):
        bezout_multi(())


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=6).filter(lambda ws: any(ws)))
def test_bezout_identity_and_divisibility(ws):
    result = bezout_multi(ws)
    assert result.g == math.gcd(*[abs(w) for w in ws])
    assert sum(m * w for m, w in zip(result.coeffs, ws)) == result.g
    assert all(w % result.g == 0 for w in ws)
    # deterministic: same input, same coefficients
    assert bezout_multi(ws) == result


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_ext_gcd_identity(a, b):
    g, x, y = ext_gcd(a, b)
    assert g == math.gcd(a, b)
    assert a * x + b * y == g


@given(
    st.one_of(st.integers(-40, 40), st.integers(-(10**30), 10**30)),
    st.one_of(st.integers(-40, 40), st.integers(-(10**30), 10**30)),
)
@example(0, 0)
@example(-7, 0)
@example(0, -7)
@example(-12, -18)
@example(2**64 + 1, -(2**63))
def test_ext_gcd_matches_the_recursive_reference(a, b):
    assert ext_gcd(a, b) == reference_ext_gcd(a, b)


def test_ext_gcd_needs_no_stack_per_step():
    # 335-digit consecutive Fibonacci numbers take ~1600 Euclid steps, more
    # than the default recursion limit allows a recursive version
    a, b = fibonacci_pair(1601)
    g, x, y = ext_gcd(a, -b)
    assert g == 1 and a * x - b * y == 1
    assert bezout_multi((a, -b)).g == 1
    # ~500 steps still fit the reference's stack
    a, b = fibonacci_pair(500)
    assert ext_gcd(a, -b) == reference_ext_gcd(a, -b)


def test_rational_scalars_are_canonical():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    reduced = Fraction(2, 4)
    assert (reduced.numerator, reduced.denominator) == (1, 2)
    negative = Fraction(3, -6)
    assert negative.denominator > 0 and negative == Fraction(-1, 2)
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 3) / Fraction(0)


CHUNK = 10**100  # 100 digits: far below any digit limit CPython allows


def chunked_decimal(n: int) -> str:
    """Decimal text of n, converted 100 digits at a time."""
    if n < 0:
        return "-" + chunked_decimal(-n)
    chunks = []
    while n >= CHUNK:
        n, low = divmod(n, CHUNK)
        chunks.append(str(low).zfill(100))
    return str(n) + "".join(reversed(chunks))


def chunked_int(digits: str) -> int:
    """The integer of a string of ASCII digits, read 100 digits at a time."""
    value = 0
    for start in range(0, len(digits), 100):
        chunk = digits[start : start + 100]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def digit_limit():
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else None


@pytest.mark.parametrize("length", [1, 2, 640, 4299, 4300, 4301, 8601, 20000])
@pytest.mark.parametrize("sign", ["", "-"])
def test_decimal_conversions_at_any_length(length, sign):
    limit = digit_limit()
    rng = random.Random(length)
    digits = str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=length - 1))
    n = chunked_int(digits) * (-1 if sign else 1)
    assert decimal_to_int(sign + digits) == n
    assert int_to_decimal(n) == sign + digits == chunked_decimal(n)
    assert decimal_to_int(f" +{digits}\n") == abs(n)
    assert digit_limit() == limit


@given(st.integers(min_value=-(10**5000), max_value=10**5000))
@example(3**10000)
@example(-(10**4300))
@example(10**4300 - 1)
@example(0)
def test_decimal_conversions_round_trip(n):
    text = int_to_decimal(n)
    assert text == chunked_decimal(n)
    assert decimal_to_int(text) == n


@pytest.mark.parametrize("text", ["", "-", "12a", "1.5", "x" * 5000, "1" * 5000 + "x", "--" + "1" * 5000])
def test_decimal_to_int_rejects_what_int_rejects(text):
    with pytest.raises(ValueError):
        decimal_to_int(text)
