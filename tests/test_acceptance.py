"""End-to-end acceptance checks.

One test per criterion; each prints a single `[acceptance] NN ...: PASS/FAIL`
line (run with `pytest tests/test_acceptance.py -v -s` to see them).  All
expected values are exact; there are no tolerances anywhere.
"""

import functools
import io
import math
import os
import random
import tempfile
from contextlib import redirect_stdout
from itertools import product

from ssderiv import (
    DiagonalDerivation,
    GeneralDerivation,
    LaurentPoly,
    NotLocallyFinite,
    RingCtx,
    bezout_multi,
    brute_force_kernel,
    build_slice,
    conjugate,
    faithfulness_index,
    hilbert_basis,
    kernel_generators_localized,
    kernel_in_B,
    local_finiteness_probe,
    parse,
    reconstruct_from_slice_coordinates,
    scalar_multiple_semisimple,
    slice_coordinates,
    verify_slice,
    weight_zero_exponents,
)
from ssderiv.cli import main

from helpers import (
    combination_closure,
    minimal_nonzero,
    random_poly,
    random_triangular_pair,
    random_weights,
)

CTX_XY = RingCtx(("x", "y"))


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"[acceptance] {number:02d} {label}: FAIL")
                raise
            print(f"[acceptance] {number:02d} {label}: PASS")

        return run

    return decorate


def run_cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@criterion(1, "kernel of weights (1,-1) is generated by x*y")
def test_criterion_1_kernel_generated_by_xy():
    d = DiagonalDerivation(CTX_XY, (1, -1))
    assert kernel_in_B(d) == [parse("x*y", CTX_XY)]
    # brute-force oracle to degree 10: only multiples of (1, 1) appear
    solutions = brute_force_kernel(d, 10)
    assert solutions == [(k, k) for k in range(6)]
    # the CLI agrees, byte for byte
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.txt")
        with open(path, "w") as fh:
            fh.write("vars: x y\nweights: 1 -1\n")
        code, out = run_cli("kernel", "--in-B", "--file", path)
    assert code == 0
    assert out == "command: kernel --in-B\nx*y\n"


@criterion(2, "(xy)*D is certified not locally finite, witness degrees 1,3,5,7")
def test_criterion_2_invariant_multiple_not_semisimple():
    d = DiagonalDerivation(CTX_XY, (1, -1))
    a = parse("x*y", CTX_XY)
    assert scalar_multiple_semisimple(a, d) is False
    delta = GeneralDerivation(CTX_XY, (parse("x^2*y", CTX_XY), parse("-x*y^2", CTX_XY)))
    verdict = local_finiteness_probe(delta, 4)
    assert isinstance(verdict, NotLocallyFinite)
    degrees = [sum(p.monomial_exponents()) for p in verdict.chain]
    assert degrees == [1, 3, 5, 7]


@criterion(3, "slice synthesis: D(s) = g*s on 300 random weight vectors")
def test_criterion_3_slice_synthesis():
    rng = random.Random(2203)
    for _ in range(300):
        n = rng.randint(1, 5)
        ctx = RingCtx(tuple(f"x{i}" for i in range(n)))
        d = DiagonalDerivation(ctx, random_weights(rng, n, 9))
        data = build_slice(d)
        g = faithfulness_index(d)
        assert data.g == g
        assert g == math.gcd(*[abs(w) for w in d.weights if w])
        assert d.apply(data.s) == data.s * g
        if g == 1:
            assert verify_slice(d, data.s)


@criterion(4, "localized kernel generators for weights (2,-3) with s = x^2*y")
def test_criterion_4_localized_kernel():
    d = DiagonalDerivation(CTX_XY, (2, -3))
    s = parse("x^2*y", CTX_XY)
    generators = kernel_generators_localized(d, s)
    assert generators.u == (parse("x^-3*y^-2", CTX_XY), parse("x^6*y^4", CTX_XY))
    for u in generators.u:
        assert d.apply(u).is_zero()
    # consistency with the kernel inside the polynomial ring
    assert generators.u[0] * generators.u[1] == parse("x^3*y^2", CTX_XY)
    assert kernel_in_B(d) == [parse("x^3*y^2", CTX_XY)]


@criterion(5, "slice coordinates reconstruct 200 random polynomials exactly")
def test_criterion_5_slice_coordinate_roundtrip():
    rng = random.Random(2205)
    for _ in range(200):
        n = rng.randint(1, 4)
        ctx = RingCtx(tuple(f"x{i}" for i in range(n)))
        while True:
            ws = random_weights(rng, n, 9)
            if math.gcd(*[abs(w) for w in ws if w] or [0]) == 1:
                break
        d = DiagonalDerivation(ctx, ws)
        s = build_slice(d).s
        p = random_poly(rng, ctx, max_terms=6, exp_bound=3)
        coords = slice_coordinates(d, s, p)
        assert reconstruct_from_slice_coordinates(d, s, coords) == p


@criterion(6, "Hilbert basis equals brute-force oracle on the exhaustive sweep")
def test_criterion_6_hilbert_vs_oracle_sweep():
    for n in (1, 2, 3):
        for ws in product(range(-4, 5), repeat=n):
            top = max(abs(w) for w in ws)
            bound = max(1, n * top * (top + 1))
            basis = hilbert_basis(ws).gens
            assert all(sum(a) <= bound for a in basis)
            solutions = weight_zero_exponents(ws, bound)
            assert minimal_nonzero(solutions) == set(basis)
            # every brute-force solution is an N-combination of the basis
            closure = combination_closure(basis, n, bound)
            assert closure == set(solutions)


@criterion(7, "image membership: preimages exist exactly off weight zero")
def test_criterion_7_image_membership():
    rng = random.Random(2207)
    one = None
    for _ in range(200):
        n = rng.randint(1, 4)
        ctx = RingCtx(tuple(f"x{i}" for i in range(n)))
        d = DiagonalDerivation(ctx, random_weights(rng, n, 6))
        p = random_poly(rng, ctx)
        hit, preimage = d.image_decompose(p)
        weight_zero_part = d.weight_decompose(p).components.get(0)
        if hit:
            assert weight_zero_part is None
            assert d.apply(preimage) == p
        else:
            assert weight_zero_part is not None and not weight_zero_part.is_zero()
        one = LaurentPoly.constant(ctx, 1)
        assert d.image_decompose(one) == (False, None)


@criterion(8, "conjugation transports the eigenbasis")
def test_criterion_8_conjugation():
    d = DiagonalDerivation(CTX_XY, (1, 3))
    x = LaurentPoly.variable(CTX_XY, "x")
    y = LaurentPoly.variable(CTX_XY, "y")
    transported = conjugate(d, [x, y + x**2], [x, y - x**2])
    assert transported.apply(y + x**2) == 3 * (y + x**2)
    rng = random.Random(2208)
    for _ in range(100):
        n = rng.randint(2, 3)
        ctx = RingCtx(tuple(f"x{i}" for i in range(n)))
        dd = DiagonalDerivation(ctx, random_weights(rng, n, 5, nonzero=False))
        phi, psi = random_triangular_pair(rng, ctx, steps=rng.randint(1, 3))
        conj = conjugate(dd, phi, psi)
        for w, image in zip(dd.weights, phi):
            assert conj.apply(image) == image * w


@criterion(9, "Bezout identity on 1000 random weight vectors")
def test_criterion_9_bezout():
    rng = random.Random(2209)
    for _ in range(1000):
        length = rng.randint(1, 6)
        ws = random_weights(rng, length, 50)
        result = bezout_multi(ws)
        assert result.g == math.gcd(*[abs(w) for w in ws])
        assert sum(m * w for m, w in zip(result.coeffs, ws)) == result.g
