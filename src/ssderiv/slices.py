"""Slice synthesis: a monomial s with D(s) = g*s where g is the gcd of the
weights, built from Bezout coefficients.  For g = 1 this is an eigenvector of
weight one, the multiplicative analogue of a slice, available after inverting
the denominator monomial f.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .derivation import DiagonalDerivation
from .laurent import LaurentPoly
from .numtheory import bezout_multi, int_to_decimal


class SliceData(NamedTuple):
    """Bezout exponents m, slice monomial s = prod x_i^(m_i) with
    D(s) = g*s, and the denominator f = prod over m_i < 0 of x_i^(-m_i),
    so that s is regular once f is inverted."""

    g: int
    m: tuple[int, ...]
    s: LaurentPoly
    f: LaurentPoly
    warning: str | None = None


def faithfulness_index(d: DiagonalDerivation) -> int:
    """gcd of the nonzero absolute weights.

    Equals 1 exactly when the scaling action generated by d is faithful;
    g > 1 means every occurring weight is divisible by g, so the action
    factors through t -> t^g.
    """
    if d.is_zero():
        raise ValueError("no nonzero weights")
    return gcd(*d.weights)


def build_slice(d: DiagonalDerivation) -> SliceData:
    """Construct the slice monomial from Bezout coefficients of the weights.

    Variables of weight zero get exponent zero and never enter f.  When
    g > 1 no monomial of weight one exists; the returned s has weight g and
    the SliceData carries a warning instead of failing.  Raises RuntimeError
    when the Bezout coefficients m do not give <m, w> == g, since s is the
    monomial x^m and D(s) == <m, w> * s.
    """
    if d.is_zero():
        raise ValueError("no nonzero weights")
    bez = bezout_multi(d.weights)
    if d.term_weight(bez.coeffs) != bez.g:
        raise RuntimeError("the Bezout coefficients do not combine the weights to their gcd")
    s = LaurentPoly.monomial(d.ctx, bez.coeffs)
    f = LaurentPoly.monomial(d.ctx, tuple(-m if m < 0 else 0 for m in bez.coeffs))
    warning = None if bez.g == 1 else f"action factors through t -> t^{int_to_decimal(bez.g)}"
    return SliceData(g=bez.g, m=bez.coeffs, s=s, f=f, warning=warning)


def verify_slice(d: DiagonalDerivation, s: LaurentPoly) -> bool:
    """True when D(s) = s; the zero polynomial never counts as a slice."""
    return (not s.is_zero()) and d.apply(s) == s
