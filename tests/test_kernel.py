import math
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssderiv import (
    DiagonalDerivation,
    LaurentPoly,
    RingCtx,
    brute_force_kernel,
    build_slice,
    fraction_kernel_element,
    hilbert_basis,
    kernel_generators_localized,
    kernel_in_B,
    lambert_degree,
    parse,
    reconstruct_from_slice_coordinates,
    slice_coordinates,
    weight_zero_exponents,
)
import ssderiv.kernel as kernel
from ssderiv.kernel import MAX_LAMBERT_DEGREE, _hilbert_completion

from helpers import (
    CTX_XY,
    fibonacci_pair,
    minimal_nonzero,
    random_poly,
    random_weights,
    reference_hilbert_basis,
)

X = LaurentPoly.variable(CTX_XY, "x")
Y = LaurentPoly.variable(CTX_XY, "y")


def d(weights, ctx=CTX_XY):
    return DiagonalDerivation(ctx, weights)


class TestKernelGeneratorsLocalized:
    def test_opposite_weights(self):
        generators = kernel_generators_localized(d((1, -1)), X)
        assert generators.u == (LaurentPoly.constant(CTX_XY, 1), X * Y)
        assert generators.uctx.names == ("u1", "u2")

    def test_coprime_weights(self):
        generators = kernel_generators_localized(d((2, -3)), parse("x^2*y", CTX_XY))
        assert generators.u == (parse("x^-3*y^-2", CTX_XY), parse("x^6*y^4", CTX_XY))

    def test_zero_weight_variable_is_its_own_generator(self):
        generators = kernel_generators_localized(d((1, 0)), X)
        assert generators.u == (LaurentPoly.constant(CTX_XY, 1), Y)

    def test_generators_are_annihilated_and_reconstruct(self):
        rng = random.Random(90)
        for _ in range(100):
            n = rng.randint(1, 4)
            ctx = RingCtx(tuple(f"x{i}" for i in range(n)))
            while True:
                ws = random_weights(rng, n, 6)
                if math.gcd(*[abs(w) for w in ws if w] or [0]) == 1:
                    break
            dd = DiagonalDerivation(ctx, ws)
            data = build_slice(dd)
            generators = kernel_generators_localized(dd, data.s)
            for i, u in enumerate(generators.u):
                assert dd.apply(u).is_zero()
                assert u * data.s ** ws[i] == LaurentPoly.variable(ctx, i)

    def test_non_slice_rejected(self):
        with pytest.raises(ValueError, match="not a slice"):
            kernel_generators_localized(d((1, -1)), X * Y)
        with pytest.raises(ValueError, match="not a slice"):
            kernel_generators_localized(d((1, -1)), X + Y)

    def test_custom_kernel_variable_names(self):
        generators = kernel_generators_localized(d((1, -1)), X, unames=("v", "w"))
        assert generators.uctx.names == ("v", "w")


class TestSliceCoordinates:
    def test_two_weights(self):
        coords = slice_coordinates(d((1, -1)), X, X * Y + X)
        assert {w: str(c) for w, c in coords.components.items()} == {0: "u1*u2", 1: "u1"}

    def test_zero_polynomial(self):
        coords = slice_coordinates(d((1, -1)), X, LaurentPoly.zero(CTX_XY))
        assert coords.components == {}

    def test_invariant_monomial(self):
        coords = slice_coordinates(d((2, -3)), parse("x^2*y", CTX_XY), parse("x^3*y^2", CTX_XY))
        assert {w: str(c) for w, c in coords.components.items()} == {0: "u1^3*u2^2"}

    def test_reconstruction_rejects_a_non_slice(self):
        dd = d((2, -3))
        coords = slice_coordinates(dd, parse("x^2*y", CTX_XY), parse("x^3*y^2 + x", CTX_XY))
        for bad in (X * Y, X + Y, parse("x^2*y + x^-1*y^-1", CTX_XY), LaurentPoly.zero(CTX_XY)):
            with pytest.raises(ValueError, match="not a slice"):
                reconstruct_from_slice_coordinates(dd, bad, coords)

    def test_reconstruction_is_exact(self):
        rng = random.Random(91)
        for _ in range(100):
            n = rng.randint(1, 4)
            ctx = RingCtx(tuple(f"x{i}" for i in range(n)))
            while True:
                ws = random_weights(rng, n, 6)
                if math.gcd(*[abs(w) for w in ws if w] or [0]) == 1:
                    break
            dd = DiagonalDerivation(ctx, ws)
            s = build_slice(dd).s
            p = random_poly(rng, ctx)
            coords = slice_coordinates(dd, s, p)
            assert reconstruct_from_slice_coordinates(dd, s, coords) == p


class TestFractionKernelElement:
    def test_examples(self):
        assert fraction_kernel_element(d((1, -1)), X, Y) == X * Y
        assert fraction_kernel_element(d((1, -1)), X, X) == LaurentPoly.constant(CTX_XY, 1)
        assert fraction_kernel_element(d((2, -3)), parse("x^2*y", CTX_XY), Y) == parse(
            "x^6*y^4", CTX_XY
        )

    def test_result_is_annihilated(self):
        dd = d((2, -3))
        s = parse("x^2*y", CTX_XY)
        for b in (X, Y, X * Y, parse("5*x^2*y^3", CTX_XY)):
            assert dd.apply(fraction_kernel_element(dd, s, b)).is_zero()

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError, match="weight-homogeneous"):
            fraction_kernel_element(d((1, -1)), X, X + Y)


class TestHilbertBasis:
    def test_small_cases(self):
        assert hilbert_basis((1, -1)).gens == ((1, 1),)
        assert hilbert_basis((2, -3)).gens == ((3, 2),)
        assert hilbert_basis((1, 1)).gens == ()
        assert set(hilbert_basis((1, -1, -1)).gens) == {(1, 1, 0), (1, 0, 1)}

    def test_zero_weights_give_unit_vectors(self):
        assert set(hilbert_basis((0, 0)).gens) == {(1, 0), (0, 1)}

    def test_gens_are_solutions_and_incomparable(self):
        rng = random.Random(93)
        for _ in range(100):
            n = rng.randint(1, 4)
            ws = tuple(rng.randint(-5, 5) for _ in range(n))
            gens = hilbert_basis(ws).gens
            for a in gens:
                assert sum(e * w for e, w in zip(a, ws)) == 0
                assert any(a)
            for a in gens:
                for b in gens:
                    if a != b:
                        assert not all(x >= y for x, y in zip(a, b))

    def test_deterministic_order(self):
        ws = (3, -2, 1)
        assert hilbert_basis(ws).gens == hilbert_basis(ws).gens
        gens = hilbert_basis(ws).gens
        assert gens == tuple(sorted(gens, key=lambda a: (sum(a), a)))


class TestCompletionCache:
    def test_errors_are_raised_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="empty weight vector"):
                hilbert_basis(())
            with pytest.raises(ValueError, match="empty weight vector"):
                lambert_degree(())
            with pytest.raises(TypeError):
                hilbert_basis((1.5, -1))

    def test_bool_weights_are_read_as_ints(self):
        assert hilbert_basis((True, -1)) == hilbert_basis([1, -1]) == hilbert_basis((1, -1))

    def test_kernel_in_B_matches_hilbert_basis(self):
        for ws in ((1, -1), (2, -3, 0), (3, -2, 1, -5), (0, 0)):
            ctx = RingCtx(tuple(f"x{i}" for i in range(len(ws))))
            gens = hilbert_basis(ws).gens
            assert kernel_in_B(DiagonalDerivation(ctx, ws)) == [
                LaurentPoly.monomial(ctx, a) for a in gens
            ]

    def test_results_stay_correct_past_the_cache_size(self):
        maxsize = _hilbert_completion.cache_info().maxsize
        # 3 * maxsize distinct weight vectors, so each pass evicts every entry
        cases = [(k, -1 - k % 5, k % 3 - 1) for k in range(1, 3 * maxsize + 1)]
        for ws in cases + cases[::-1] + cases:
            assert hilbert_basis(ws).gens == reference_hilbert_basis(ws)


class TestBruteForce:
    def test_small_cases(self):
        assert brute_force_kernel(d((1, -1)), 4) == [(0, 0), (1, 1), (2, 2)]
        assert brute_force_kernel(d((1, 1)), 3) == [(0, 0)]
        assert brute_force_kernel(d((2, -3)), 5) == [(0, 0), (3, 2)]

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            brute_force_kernel(d((1, -1)), -1)
        with pytest.raises(ValueError, match=">= 0"):
            weight_zero_exponents((1, -1), -1)

    def test_matches_direct_enumeration(self):
        ws = (2, -3, 1)
        expected = sorted(
            (
                a
                for a in product(range(7), repeat=3)
                if sum(a) <= 6 and sum(e * w for e, w in zip(a, ws)) == 0
            ),
            key=lambda a: (sum(a), a),
        )
        assert weight_zero_exponents(ws, 6) == expected


class TestKernelInB:
    def test_examples(self):
        assert kernel_in_B(d((1, -1))) == [X * Y]
        assert kernel_in_B(d((1, 1))) == []
        assert kernel_in_B(d((2, -3))) == [parse("x^3*y^2", CTX_XY)]

    def test_products_stay_in_kernel(self):
        rng = random.Random(94)
        for _ in range(50):
            n = rng.randint(2, 4)
            ctx = RingCtx(tuple(f"x{i}" for i in range(n)))
            dd = DiagonalDerivation(ctx, random_weights(rng, n, 4, nonzero=False))
            generators = kernel_in_B(dd)
            for a in generators:
                assert dd.apply(a).is_zero()
            for a in generators[:3]:
                for b in generators[:3]:
                    assert dd.apply(a * b).is_zero()


# ----------------------------------------------------------------------
# the indexed completion and the depth-first oracle against references

# n * max|w| stays <= _SPAN, which keeps the unindexed reference completion
# to milliseconds per example
_SPAN = 36


@st.composite
def capped_weights(draw, min_n=1, max_n=7, top=12):
    n = draw(st.integers(min_n, max_n))
    bound = min(top, _SPAN // n)
    if draw(st.booleans()):
        # few distinct values, so repeated and zero weights are common
        pool = draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=3))
        return tuple(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    return tuple(draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n)))


@settings(max_examples=200)
@given(capped_weights())
@example((0,))
@example((0, 0, 0, 0, 0, 0, 0))
@example((3, 3, -2, -2, 0))
@example((5, 5, 5, 5, 5, 5, -1))
@example((12, -12, 12))
@example((1, 2, 3, -4, -5, -6))
# L = max w+ + max |w-|, or a generator entry, at or next to a power of two,
# where a packed field one bit too narrow would overflow
@example((1, -7))
@example((1, -8))
@example((7, -8))
@example((15, -16))
@example((1, -16, 0))
@example((2**63, -(2**63), 2**63))
def test_completion_matches_unindexed_reference(ws):
    assert hilbert_basis(ws).gens == reference_hilbert_basis(ws)


@given(capped_weights())
@example((7, 11, -13, -17))
@example((0, 3, -3))
def test_generators_satisfy_the_lambert_bound(ws):
    top_positive = max(0, *ws)
    top_negative = max(0, *(-w for w in ws))
    for a in hilbert_basis(ws).gens:
        assert sum(e for e, w in zip(a, ws) if w > 0) <= top_negative
        assert sum(e for e, w in zip(a, ws) if w < 0) <= top_positive
        assert sum(a) <= lambert_degree(ws)


# largest degree per vector length n that keeps the (degree + 1)^n grid of
# the direct enumeration at most 5^6 = 15625 points
_GRID_DEGREE = {1: 6, 2: 6, 3: 6, 4: 6, 5: 5, 6: 4}


@st.composite
def enumerable_cases(draw):
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        # few distinct |w|, often of both signs: ties in the oracle's walk order
        pool = draw(st.lists(st.integers(0, 5), min_size=1, max_size=2))
        ws = [draw(st.sampled_from(pool)) * draw(st.sampled_from((1, -1))) for _ in range(n)]
    else:
        ws = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    return ws, draw(st.integers(0, _GRID_DEGREE[n]))


@given(enumerable_cases())
@example(([3], 0))
@example(([0], 4))
@example(([-2], 6))
@example(([0, 0, 0], 3))
@example(([0, 2, -1], 5))
@example(([4, 4, -2, -2], 6))
@example(([3, -3, 3, -3], 6))
@example(([0, 2, 0, -1, 0], 5))
@example(([1, -1, 2, -2, 3, -3], 3))
# three coordinates: the loop over the head sits at the root
@example(([3, -2, 1], 6))
@example(([-1, 1, 1], 6))
# a zero weight in the third-from-last slot of the walk (so in the last two)
@example(([0, 0, 3, 0], 6))
@example(([4, -3, 0, 0, 0], 5))
# w_last = 0 with three or more coordinates: the walk solves the last one
@example(([3, -3, 0], 6))
@example(([2, -1, 1, 0], 6))
# gcd(w_pen, w_last) > 1, so the residue class has a step > 1
@example(([-9, 6, 4], 6))
@example(([8, -9, 6], 6))
@example(([6, 9, -4, -7], 6))
# two coordinates: the walk solves the last one by one divmod
@example(([2, -3], 6))
@example(([0, 5], 4))
def test_oracle_matches_direct_enumeration(case):
    ws, degree = case
    expected = sorted(
        (
            a
            for a in product(range(degree + 1), repeat=len(ws))
            if sum(a) <= degree and sum(e * w for e, w in zip(a, ws)) == 0
        ),
        key=lambda a: (sum(a), a),
    )
    assert weight_zero_exponents(ws, degree) == expected


@settings(max_examples=60)
@given(capped_weights(min_n=4, max_n=6, top=6))
@example((7, 11, -13, -17))
@example((2, 3, 5, -7, -11))
def test_oracle_matches_completion_at_the_lambert_degree(ws):
    solutions = weight_zero_exponents(ws, lambert_degree(ws))
    assert minimal_nonzero(solutions) == set(hilbert_basis(ws).gens)


def test_lambert_degree_sweep_n4():
    """Every weight vector in [-4, 4]^4: the oracle's minimal nonzero
    solutions at the Lambert degree are exactly the completion's output."""
    for ws in product(range(-4, 5), repeat=4):
        solutions = weight_zero_exponents(ws, lambert_degree(ws))
        assert minimal_nonzero(solutions) == set(hilbert_basis(ws).gens), ws


def test_sweep_script_runs():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = [root / "scripts" / "hilbert_sweep.py", "--max-n", "2", "--entry-bound", "2"]
    result = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("checked 30 weight vectors")


class TestExactForLargeWeights:
    def test_oracle_does_not_wrap(self):
        assert weight_zero_exponents((2**62, 2**62), 4) == [(0, 0)]
        assert weight_zero_exponents((2**63, -(2**63)), 4) == [(0, 0), (1, 1), (2, 2)]
        assert weight_zero_exponents((3 * 2**70, -(2**71), 5), 5) == [(0, 0, 0), (2, 3, 0)]

    def test_oracle_allocates_nothing_per_unit_of_degree(self):
        assert weight_zero_exponents((2, 2), 10**12) == [(0, 0)]
        assert weight_zero_exponents((10**6, -1), 10**6 + 1) == [(0, 0), (1, 10**6)]

    def test_completion_does_not_wrap(self):
        assert hilbert_basis((2**62, 2**62)).gens == ()
        assert hilbert_basis((2**63, -(2**63))).gens == ((1, 1),)
        assert hilbert_basis((3 * 2**70, -(2**71), 0)).gens == ((0, 0, 1), (2, 3, 0))

    def test_oracle_steps_through_the_solutions_of_two_opposite_weights(self):
        """Two weights of opposite signs: one step per solution, so a degree
        of 4*10^9 with two solutions returns at once, in a fresh interpreter
        that the timeout can stop."""
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        code = (
            "from ssderiv import weight_zero_exponents\n"
            "print(weight_zero_exponents((10**9 + 1, -10**9), 4 * 10**9))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"{[(0, 0), (10**9, 10**9 + 1)]}\n"

    def test_completion_refuses_a_huge_lambert_degree_before_it_starts(self, monkeypatch):
        """The bound applies to the weights divided by their gcd, and a
        refusal never reaches the completion."""
        reached = []
        monkeypatch.setattr(kernel, "_hilbert_completion", reached.append)
        top = MAX_LAMBERT_DEGREE
        hilbert_basis((1, 1 - top))  # at the bound
        hilbert_basis((3, 3 - 3 * top))  # over it, but at it after the gcd
        f, g = fibonacci_pair(1601)
        for ws in [(1, -top), (2, 3, -top), (f, -g)]:
            with pytest.raises(ValueError, match="Lambert degree over"):
                hilbert_basis(ws)
        assert reached == [(1, 1 - top), (1, 1 - top)]
