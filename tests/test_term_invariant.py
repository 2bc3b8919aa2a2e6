"""Every operation that builds its result through the internal trusted
constructor must still return polynomials in canonical form: int-tuple keys
of length ctx.n, nonzero exact values with one representation each (an `int`
exactly when the value is integral, otherwise a `Fraction` with denominator
> 1, never a float), and equal to a fully validated reconstruction of its
own terms.  Half of the examples draw integer coefficients only, the case in
which no arithmetic but a division may leave the integers.

Only `laurent.py` may build a polynomial through the trusted constructor,
touch the term-merge helpers, read the stored numerators, denominator and
cached coefficient view, or reach the per-context monomial and power-text
tables; every other module goes through the public operations, `terms`,
`coefficient` and `support`, which a static check of the package sources
enforces.  Another static check keeps `assert` statements, which `python -O`
skips, out of the package, and a third keeps the bound on a power of a
number inside the parser's recursive descent, the one path that reads such
a power."""

import ast
from functools import reduce
from operator import add
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

import ssderiv
from ssderiv import DiagonalDerivation, GeneralDerivation, LaurentPoly, RingCtx, parse

from helpers import CTX_XY, CTX_XYZ, assert_canonical, either, monomials, polys, weight_vectors


scalars = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=7)
)


@given(
    either(polys, CTX_XYZ, max_terms=6),
    either(polys, CTX_XYZ, max_terms=6),
    scalars,
    st.integers(0, 4),
    either(monomials, CTX_XYZ, exp_bound=3),
    st.integers(-4, 4),
    st.integers(0, CTX_XYZ.n - 1),
)
def test_arithmetic_results_are_canonical(p, q, scalar, k, unit, m, i):
    results = [
        p + q,
        p - q,
        -p,
        p - p,
        p * q,
        p * scalar,
        scalar * p,
        p**k,
        unit**m,
        p.partial(i),
        p.substitute([unit, LaurentPoly.variable(CTX_XYZ, 2), unit**-1]),
        parse(str(p), CTX_XYZ),
        parse(f"-({p})*({q}) + ({q})^2 - ({p})", CTX_XYZ),
    ]
    for result in results:
        assert_canonical(result)


@given(
    either(polys, CTX_XY, max_terms=5, exp_bound=3).map(
        lambda p: LaurentPoly(CTX_XY, {(abs(a), abs(b)): c for (a, b), c in p.terms.items()})
    ),
    either(polys, CTX_XY, max_terms=4, exp_bound=2),
    either(polys, CTX_XY, max_terms=4, exp_bound=2),
)
def test_substitute_into_polynomial_images_is_canonical(p, f, g):
    assert_canonical(p.substitute([f, g]))
    ctx_uvw = RingCtx(("u", "v", "w"))
    images = [LaurentPoly.variable(ctx_uvw, 0) + LaurentPoly.variable(ctx_uvw, 2)] * 2
    assert_canonical(p.substitute(images))


@given(either(polys, CTX_XYZ, max_terms=8), weight_vectors(3, bound=4),
       either(polys, CTX_XYZ, max_terms=3), either(polys, CTX_XYZ, max_terms=3),
       either(polys, CTX_XYZ, max_terms=3))
def test_derivation_results_are_canonical(p, weights, a, b, c):
    d = DiagonalDerivation(CTX_XYZ, weights)
    assert_canonical(d.apply(p))
    assert not any(d.term_weight(e) == 0 for e in d.apply(p).terms)
    assert_canonical(GeneralDerivation(CTX_XYZ, (a, b, c)).apply(p))
    assert_canonical(d.as_general().apply(p))

    decomposition = d.weight_decompose(p)
    for component in decomposition.components.values():
        assert_canonical(component)
    recombined = decomposition.recombine(CTX_XYZ)
    assert_canonical(recombined)
    assert recombined == p

    weight_zero = decomposition.components.get(0, LaurentPoly.zero(CTX_XYZ))
    hit, preimage = d.image_decompose(p - weight_zero)
    assert hit
    assert_canonical(preimage)
    assert d.apply(preimage) == p - weight_zero

    summands = [p, a, -p, b, c]
    total = LaurentPoly.sum(CTX_XYZ, summands)
    assert_canonical(total)
    assert total == reduce(add, summands)
    assert LaurentPoly.sum(CTX_XYZ, []) == LaurentPoly.zero(CTX_XYZ)

    parts = p.split(lambda e: (e[0] - e[2]) % 3)
    seen = set()
    for key, part in parts.items():
        assert_canonical(part)
        assert not part.is_zero()
        assert all((e[0] - e[2]) % 3 == key for e in part.terms)
        assert seen.isdisjoint(part.terms)
        seen.update(part.terms)
    assert LaurentPoly.sum(CTX_XYZ, parts.values()) == p

    scaled = p.scale_by(d.term_weight)
    assert_canonical(scaled)
    assert scaled == d.apply(p)
    assert scaled == LaurentPoly(CTX_XYZ, {e: c * d.term_weight(e) for e, c in p.terms.items()})

    for result in (p, a, preimage, scaled, *parts.values()):
        assert result.support() == result.terms.keys()
        for e in [*result.terms, (0, 0, 0), (9, -9, 9)]:
            value = result.coefficient(e)
            assert value == result.terms.get(e, 0)
            assert type(value) is type(result.terms.get(e, 0))


def test_only_laurent_touches_the_term_format():
    """No module but laurent.py imports a private name from `.laurent` or
    names `_trusted`, `_accumulate`, `_widen`, `_lowest`, `_merge_term`, the
    stored `_num`, `_den` and `_view`, either way of a context's monomial
    table, `_factor_text` and `_factor_exps`, or its `_power_text`; no test
    does either."""
    private = {
        "_trusted", "_accumulate", "_widen", "_lowest", "_merge_term", "_num", "_den", "_view",
        "_factor_text", "_factor_exps", "_power_text",
    }
    package = Path(ssderiv.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) > 1
    offences = []
    for path in [*sources, *sorted(Path(__file__).parent.glob("*.py"))]:
        if path == package / "laurent.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("laurent"):
                names = [a.name for a in node.names if a.name.startswith("_")]
            elif isinstance(node, ast.Attribute):
                names = [node.attr] if node.attr in private else []
            elif isinstance(node, ast.Name):
                names = [node.id] if node.id in private else []
            else:
                continue
            offences += [(path.name, node.lineno, name) for name in names]
    assert offences == []


def test_only_the_descent_bounds_a_power_of_a_number():
    """Only the recursive descent reads a power of a number, so the bound
    on one, `MAX_POWER_BITS` and `_power_too_big`, is named in laurent.py
    inside `class _Parser` and nowhere else but the constant's definition."""
    tree = ast.parse((Path(ssderiv.__file__).parent / "laurent.py").read_text())
    bound = {"MAX_POWER_BITS", "_power_too_big"}

    def uses(node):
        if isinstance(node, ast.Name):
            return [node.id] if node.id in bound else []
        if isinstance(node, ast.Attribute):
            return [node.attr] if node.attr in bound else []
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            return [node.name] if node.name in bound else []
        return []

    (parser,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Parser"]
    inside = {name for node in ast.walk(parser) for name in uses(node)}
    assert inside == bound
    definition = [
        n for n in tree.body
        if isinstance(n, ast.Assign) and [ast.unparse(t) for t in n.targets] == ["MAX_POWER_BITS"]
    ]
    assert len(definition) == 1
    outside = [
        (node.lineno, name)
        for top in tree.body
        if top is not parser and top is not definition[0]
        for node in ast.walk(top)
        for name in uses(node)
    ]
    assert outside == []


def test_the_package_checks_with_raise_not_assert():
    """`python -O` drops `assert` statements, so a check of an invariant in
    the package is an `if` that raises; no module under ssderiv/ has one."""
    sources = sorted(Path(ssderiv.__file__).parent.rglob("*.py"))
    assert len(sources) > 1
    found = [
        (path.name, node.lineno)
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
