"""Value semantics of the records (NamedTuples) and of the immutable classes
RingCtx, DiagonalDerivation and GeneralDerivation: repr text, equality and
hash, pattern-matching fields, immutability, constructor validation, and
round trips through pickle and copy.deepcopy.  Also checks, in a fresh
interpreter, which modules `import ssderiv` and the CLI load."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ssderiv import (
    BezoutResult,
    DiagonalDerivation,
    GeneralDerivation,
    HilbertBasis,
    Inconclusive,
    KernelGenerators,
    LaurentPoly,
    LocallyFinite,
    NotLocallyFinite,
    RingCtx,
    SliceCoordinates,
    SliceData,
    WeightDecomposition,
)
from ssderiv.cli import Problem

from helpers import CTX_XY

X, Y = (LaurentPoly.variable(CTX_XY, i) for i in range(2))
UCTX = RingCtx(("u1", "u2"))
U1, U2 = (LaurentPoly.variable(UCTX, i) for i in range(2))
HALF_X = LaurentPoly(CTX_XY, {(1, 0): Fraction(1, 2), (0, -1): 3})

# name: (factory building a fresh value, its fields, its repr text)
CASES = {
    "RingCtx": (
        lambda: RingCtx(("x", "y")),
        ("names",),
        "RingCtx(names=('x', 'y'))",
    ),
    "DiagonalDerivation": (
        lambda: DiagonalDerivation(RingCtx(("x", "y")), [1, -1]),
        ("ctx", "weights"),
        "DiagonalDerivation(ctx=RingCtx(names=('x', 'y')), weights=(1, -1))",
    ),
    "GeneralDerivation": (
        lambda: GeneralDerivation(CTX_XY, [X**2 * Y, -X * Y**2]),
        ("ctx", "images"),
        "GeneralDerivation(ctx=RingCtx(names=('x', 'y')),"
        " images=(LaurentPoly(x^2*y), LaurentPoly(-x*y^2)))",
    ),
    "BezoutResult": (
        lambda: BezoutResult(g=1, coeffs=(-1, -1)),
        ("g", "coeffs"),
        "BezoutResult(g=1, coeffs=(-1, -1))",
    ),
    "SliceData": (
        lambda: SliceData(g=1, m=(1, -1), s=X * Y**-1, f=Y),
        ("g", "m", "s", "f", "warning"),
        "SliceData(g=1, m=(1, -1), s=LaurentPoly(x*y^-1), f=LaurentPoly(y), warning=None)",
    ),
    "HilbertBasis": (
        lambda: HilbertBasis(gens=((1, 1),)),
        ("gens",),
        "HilbertBasis(gens=((1, 1),))",
    ),
    "KernelGenerators": (
        lambda: KernelGenerators(u=(X * Y**-1, Y * X), s=X, uctx=UCTX),
        ("u", "s", "uctx"),
        "KernelGenerators(u=(LaurentPoly(x*y^-1), LaurentPoly(x*y)), s=LaurentPoly(x),"
        " uctx=RingCtx(names=('u1', 'u2')))",
    ),
    "SliceCoordinates": (
        lambda: SliceCoordinates(uctx=UCTX, components={0: U1 * U2, 2: U2}),
        ("uctx", "components"),
        "SliceCoordinates(uctx=RingCtx(names=('u1', 'u2')),"
        " components={0: LaurentPoly(u1*u2), 2: LaurentPoly(u2)})",
    ),
    "WeightDecomposition": (
        lambda: WeightDecomposition({-1: HALF_X}),
        ("components",),
        "WeightDecomposition(components={-1: LaurentPoly(1/2*x + 3*y^-1)})",
    ),
    "LocallyFinite": (
        lambda: LocallyFinite(spans=((X,), (Y, X * Y))),
        ("spans",),
        "LocallyFinite(spans=((LaurentPoly(x),), (LaurentPoly(y), LaurentPoly(x*y))))",
    ),
    "NotLocallyFinite": (
        lambda: NotLocallyFinite(generator=0, chain=(X, X**2 * Y), shift=(1, 1)),
        ("generator", "chain", "shift"),
        "NotLocallyFinite(generator=0, chain=(LaurentPoly(x), LaurentPoly(x^2*y)), shift=(1, 1))",
    ),
    "Inconclusive": (
        lambda: Inconclusive(bound=4),
        ("bound",),
        "Inconclusive(bound=4)",
    ),
    "Problem": (
        lambda: Problem(ctx=CTX_XY, weights=(1, -1), images=(X, -Y)),
        ("ctx", "weights", "images", "phi", "psi", "queries"),
        "Problem(ctx=RingCtx(names=('x', 'y')), weights=(1, -1),"
        " images=(LaurentPoly(x), LaurentPoly(-y)), phi=None, psi=None, queries=())",
    ),
}
# a dict field makes these unhashable, as it made their dataclasses
UNHASHABLE = {"SliceCoordinates", "WeightDecomposition"}


@pytest.mark.parametrize("name", CASES)
def test_repr_and_fields(name):
    make, fields, text = CASES[name]
    value = make()
    assert repr(value) == text
    assert type(value).__match_args__ == fields


@pytest.mark.parametrize("name", CASES)
def test_equal_values_compare_and_hash_equal(name):
    make = CASES[name][0]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", CASES)
def test_fields_cannot_be_assigned(name):
    make, fields, _ = CASES[name]
    value = make()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == make()


@pytest.mark.parametrize("name", CASES)
def test_pickle_and_deepcopy_round_trip(name):
    value = CASES[name][0]()
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value
        assert repr(twin) == repr(value)


def test_laurent_poly_round_trips_with_a_working_context():
    """A copied polynomial brings a copy of its context, which shares the
    original's monomial table, since the table belongs to the names."""
    str(HALF_X)  # warms the original context's tables
    for twin in (pickle.loads(pickle.dumps(HALF_X)), copy.deepcopy(HALF_X)):
        assert twin == HALF_X and hash(twin) == hash(HALF_X)
        assert twin.ctx is not CTX_XY and twin.ctx == CTX_XY
        assert str(twin) == str(HALF_X) == "1/2*x + 3*y^-1"
        assert str(twin * twin) == str(HALF_X * HALF_X)


def test_other_types_are_not_equal():
    ctx = RingCtx(("x", "y"))
    assert ctx != ("x", "y") and ctx != DiagonalDerivation(ctx, (0, 0))
    assert DiagonalDerivation(ctx, (1, -1)) != DiagonalDerivation(RingCtx(("x", "z")), (1, -1))
    assert DiagonalDerivation(ctx, (1, 0)).as_general() != DiagonalDerivation(ctx, (1, 0))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: RingCtx(()), ValueError, "a ring context needs at least one variable"),
        (lambda: RingCtx(("x", "2y")), ValueError, "invalid variable name '2y'"),
        (lambda: RingCtx(("x", "x")), ValueError, "variable names must be pairwise distinct"),
        (lambda: DiagonalDerivation(CTX_XY, (1,)), ValueError, "expected 2 weights, got 1"),
        (lambda: DiagonalDerivation(CTX_XY, (1, 0.5)), TypeError, "integer"),
        (lambda: GeneralDerivation(CTX_XY, (X,)), ValueError, "expected 2 images, got 1"),
        (lambda: GeneralDerivation(CTX_XY, (X, U1)), ValueError, "context mismatch"),
        (lambda: BezoutResult(1), TypeError, "missing 1 required positional argument: 'coeffs'"),
        (lambda: SliceData(1, (1,), X), TypeError, "missing 1 required positional argument: 'f'"),
    ],
)
def test_constructor_validation(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_keyword_construction_normalizes_fields():
    d = DiagonalDerivation(ctx=CTX_XY, weights=[True, -1])
    assert d.weights == (1, -1) and type(d.weights[0]) is int
    assert RingCtx(names=["x", "y"]).names == ("x", "y")
    assert GeneralDerivation(ctx=CTX_XY, images=[X, Y]).images == (X, Y)


def test_records_have_tuple_semantics():
    data = SliceData(g=1, m=(1, -1), s=X * Y**-1, f=Y)
    assert data == (1, (1, -1), X * Y**-1, Y, None)
    assert data._replace(warning="w").warning == "w"
    assert data._asdict()["m"] == (1, -1)


IMPORT_GUARD = """
import sys

import ssderiv

assert [m for m in sys.modules if m.startswith("ssderiv.")] == [], sys.modules
assert "ssderiv.kernel" not in sys.modules
ssderiv.hilbert_basis
assert "ssderiv.kernel" in sys.modules
assert "hilbert_basis" in vars(ssderiv)
try:
    ssderiv.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown name resolved")
assert set(ssderiv.__all__) <= set(dir(ssderiv))

namespace = {}
exec("from ssderiv import *", namespace)
assert set(ssderiv.__all__) <= set(namespace), set(ssderiv.__all__) - set(namespace)

import ssderiv.cli

assert ssderiv.cli.main(["slice", "--file", sys.argv[1]]) == 0
for heavy in ("dataclasses", "inspect"):
    assert heavy not in sys.modules, heavy
print("ok")
"""


def test_fresh_interpreter_loads_submodules_on_first_use(tmp_path):
    path = tmp_path / "problem.txt"
    path.write_text("vars: x y\nweights: 2 -3\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(path)], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith("ok\n")
