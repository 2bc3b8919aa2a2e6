import random

import pytest

from ssderiv import slices
from ssderiv import (
    DiagonalDerivation,
    LaurentPoly,
    RingCtx,
    build_slice,
    faithfulness_index,
    parse,
    verify_slice,
)
from ssderiv.numtheory import BezoutResult

from helpers import CTX_XY, random_weights


def d(weights):
    return DiagonalDerivation(CTX_XY, weights)


class TestFaithfulnessIndex:
    def test_values(self):
        assert faithfulness_index(d((1, -1))) == 1
        assert faithfulness_index(d((2, -3))) == 1
        assert faithfulness_index(d((4, 6))) == 2
        assert faithfulness_index(d((0, 5))) == 5

    def test_zero_derivation_rejected(self):
        with pytest.raises(ValueError, match="no nonzero weights"):
            faithfulness_index(d((0, 0)))


class TestBuildSlice:
    def test_opposite_weights(self):
        data = build_slice(d((1, -1)))
        assert data.g == 1
        assert data.m == (1, 0)
        assert data.s == parse("x", CTX_XY)
        assert data.f == LaurentPoly.constant(CTX_XY, 1)
        assert data.warning is None

    def test_coprime_weights(self):
        data = build_slice(d((2, -3)))
        assert data.g == 1
        assert sum(m * w for m, w in zip(data.m, (2, -3))) == 1
        assert d((2, -3)).apply(data.s) == data.s

    def test_non_faithful_weights(self):
        data = build_slice(d((4, 6)))
        assert data.g == 2
        assert data.s == parse("x^-1*y", CTX_XY)
        assert data.f == parse("x", CTX_XY)
        assert d((4, 6)).apply(data.s) == data.s * 2
        assert data.warning == "action factors through t -> t^2"

    def test_zero_derivation_rejected(self):
        with pytest.raises(ValueError, match="no nonzero weights"):
            build_slice(d((0, 0)))

    def test_wrong_bezout_coefficients_raise(self, monkeypatch):
        # (1, 1) combines the weights (2, -3) to -1, not to their gcd 1
        monkeypatch.setattr(slices, "bezout_multi", lambda weights: BezoutResult(1, (1, 1)))
        with pytest.raises(RuntimeError, match="do not combine the weights to their gcd"):
            build_slice(d((2, -3)))

    def test_denominator_covers_negative_exponents(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(1, 5)
            ctx = RingCtx(tuple(f"x{i}" for i in range(n)))
            dd = DiagonalDerivation(ctx, random_weights(rng, n, 9))
            data = build_slice(dd)
            assert data.s.is_monomial()
            s_exps = data.s.monomial_exponents()
            f_exps = data.f.monomial_exponents()
            assert all(e >= 0 for e in f_exps)
            # s * f has nonnegative exponents, so s lives in B_f
            assert all(a + b >= 0 for a, b in zip(s_exps, f_exps))


class TestVerifySlice:
    def test_examples(self):
        assert verify_slice(d((1, -1)), parse("x", CTX_XY))
        assert not verify_slice(d((1, -1)), parse("x*y", CTX_XY))
        assert verify_slice(d((2, -3)), parse("x^2*y", CTX_XY))

    def test_zero_is_never_a_slice(self):
        assert not verify_slice(d((1, -1)), LaurentPoly.zero(CTX_XY))


def test_random_slices_have_weight_g():
    rng = random.Random(58)
    for _ in range(300):
        n = rng.randint(1, 5)
        ctx = RingCtx(tuple(f"x{i}" for i in range(n)))
        dd = DiagonalDerivation(ctx, random_weights(rng, n, 9))
        data = build_slice(dd)
        assert data.g == faithfulness_index(dd)
        assert dd.apply(data.s) == data.s * data.g
        if data.g == 1:
            assert verify_slice(dd, data.s)
        else:
            assert data.warning is not None
