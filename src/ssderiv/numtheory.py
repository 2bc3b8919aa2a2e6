"""Exact integer helpers: multi-integer Bezout coefficients and decimal
conversions with no digit limit."""

from __future__ import annotations

from operator import index
from typing import NamedTuple, Sequence


class BezoutResult(NamedTuple):
    """gcd g > 0 of a weight vector plus integer coefficients with sum(m*w) == g."""

    g: int
    coeffs: tuple[int, ...]


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: (g, x, y) with a*x + b*y == g and g == gcd(|a|, |b|).

    Classical Euclid on nonnegative remainders (b is made nonnegative first,
    and y negated back at the end), so the coefficients are a deterministic
    function of the input.  The loop carries the coefficients of the two
    latest remainders forward, which gives the same (x, y) as the textbook
    recursion but takes no stack per step, so weights of any size work.
    """
    flip = b < 0
    if flip:
        b = -b
    # a == x0*a_in + y0*|b_in| and b == x1*a_in + y1*|b_in| throughout
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, -y0 if flip else y0


def bezout_multi(weights: Sequence[int]) -> BezoutResult:
    """Fold ext_gcd over a weight vector, left to right.

    Zero entries get coefficient 0.  Folding the next nonzero entry w into the
    running gcd g replaces every earlier coefficient c by c*y and sets the new
    one to x, where (g', x, y) = ext_gcd(w, g).  The fold order makes the
    coefficient list deterministic.
    """
    ws = list(map(index, weights))
    if not ws or all(w == 0 for w in ws):
        raise ValueError("gcd undefined for zero vector")
    coeffs = [0] * len(ws)
    g = 0
    for i, w in enumerate(ws):
        if w == 0:
            continue
        if g == 0:
            g = abs(w)
            coeffs[i] = 1 if w > 0 else -1
            continue
        g, x, y = ext_gcd(w, g)
        for j in range(i):
            coeffs[j] *= y
        coeffs[i] = x
    return BezoutResult(g, tuple(coeffs))


# CPython refuses int <-> str conversions beyond sys.get_int_max_str_digits()
# digits (4300 by default) with a ValueError.  The two conversions below give
# the exact result at any size without touching that process-wide setting:
# below the limit they are plain str/int, above it they split the number at a
# power of ten and convert the halves.


def int_to_decimal(n: int) -> str:
    """Decimal text of the integer n: `str(n)` at any number of digits."""
    try:
        return str(n)
    except ValueError:  # more digits than the interpreter converts at once
        pass
    if n < 0:
        return "-" + int_to_decimal(-n)
    k = n.bit_length() * 3 // 20  # about half the digits; log10(2) > 3/10
    high, low = divmod(n, 10**k)
    return int_to_decimal(high) + int_to_decimal(low).zfill(k)


def decimal_to_int(text: str) -> int:
    """The integer `int(text)` reads, at any number of digits.

    A literal longer than the interpreter converts at once must be an
    optional sign and ASCII digits, with surrounding whitespace allowed;
    anything `int` rejects for another reason raises its ValueError.
    """
    try:
        return int(text)
    except ValueError:
        body = text.strip()
        sign = body[:1] if body[:1] in ("+", "-") else ""
        digits = body[len(sign):]
        if not (digits.isascii() and digits.isdigit()):
            raise
    k = len(digits) // 2
    value = decimal_to_int(digits[:-k]) * 10**k + decimal_to_int(digits[-k:])
    return -value if sign == "-" else value
