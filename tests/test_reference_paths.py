"""Differential tests: `substitute`, `__str__`, `image_decompose`, the
localized kernel generators and `reconstruct_from_slice_coordinates` must
give exactly what the reference versions in helpers.py give, results and
errors alike, and `parse` must read parenthesis-free text, which it reads
with string splits, exactly as it reads the same text in parentheses, which
only its recursive descent reads."""

import copy
import sys
import threading
import tracemalloc
from fractions import Fraction
from functools import cache
from itertools import count
from math import gcd

from hypothesis import example, given
from hypothesis import strategies as st

from ssderiv import (
    DiagonalDerivation,
    LaurentPoly,
    RingCtx,
    SliceCoordinates,
    build_slice,
    kernel_generators_localized,
    parse,
    reconstruct_from_slice_coordinates,
    slice_coordinates,
)

from helpers import (
    CTX_X,
    CTX_XY,
    CTX_XYZ,
    assert_canonical,
    coefficients,
    exponent_vectors,
    monomials,
    polys,
    reference_image_decompose,
    reference_reconstruct,
    reference_str,
    reference_substitute,
    reference_u_images,
    weight_vectors,
)

CONTEXTS = (CTX_X, CTX_XY, CTX_XYZ)
HUGE = 10**60 + 7  # far beyond 64 bits, well below the int <-> str digit limit
_UNUSED = count()


def unused_name() -> str:
    """A variable name that no other context in the test run has.  Every
    context over one tuple of names shares that tuple's monomial table, so
    a context with such a name starts with an empty table whatever ran
    before it."""
    return f"cold{next(_UNUSED)}"


def fill_the_registry() -> None:
    """Print one polynomial with more distinct monomials than the bound of
    8192 texts, over a name no other context has, so the registry of
    monomial texts reaches its cap and the next print starts it over,
    empty.  A test that checks that a read shares the key tuples of an
    earlier print calls this first, so that no start-over falls between
    them whatever the tests before it printed."""
    str(_filler().renamed(RingCtx((unused_name(),))))


@cache
def _filler() -> LaurentPoly:
    """8193 distinct monomials in one variable, built once."""
    return LaurentPoly(RingCtx(("filler",)), {(k,): 1 for k in range(-4096, 4097)})


def outcome(call, *args):
    """The value of call(*args), or the type and text of its ValueError."""
    try:
        return call(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def images_in(target):
    """Units (coefficients +-1, other ints and Fractions), zero, or
    polynomials with up to three terms."""
    return st.one_of(
        monomials(target, exp_bound=2),
        monomials(target, exp_bound=2, integer=True),
        st.just(LaurentPoly.zero(target)),
        polys(target, max_terms=3, exp_bound=2),
    )


@st.composite
def substitutions(draw):
    source = draw(st.sampled_from(CONTEXTS))
    target = draw(st.sampled_from(CONTEXTS))
    p = draw(polys(source, max_terms=6, exp_bound=3))
    images = draw(st.lists(images_in(target), min_size=source.n, max_size=source.n))
    return p, images


def xyz(*texts):
    return [parse(text, CTX_XYZ) for text in texts]


@given(substitutions())
# mixed unit and non-unit images; z^1 and z^2 need two powers of one image
@example((parse("3*x^2*y^-1*z + x*z^2 - 1/2*y + 4", CTX_XYZ), xyz("x + y", "2*x*y^-1", "z - 1")))
# zero images: a positive power is zero, a negative power is not a unit
@example((parse("x^2*y + y", CTX_XY), [LaurentPoly.zero(CTX_XY), parse("y", CTX_XY)]))
@example((parse("x^-1 + y", CTX_XY), [LaurentPoly.zero(CTX_XY), parse("y", CTX_XY)]))
@example((parse("x*y^-1", CTX_XY), [LaurentPoly.zero(CTX_XY), parse("x + 1", CTX_XY)]))
@example((parse("x^-1*y", CTX_XY), [parse("x", CTX_XY), LaurentPoly.zero(CTX_XY)]))
# units with coefficients other than +-1 under negative exponents
@example((parse("x^-3*y^-1 + 5*x^-1*y^2", CTX_XY), [parse("3*y", CTX_XY), parse("-3/2*x", CTX_XY)]))
@example((parse("x^-2*y^-3", CTX_XY), [parse("-1*x", CTX_XY), parse("-y^2", CTX_XY)]))
# images in another ring
@example((parse("x^2*y^-1 - x + 7", CTX_XY), xyz("x*z", "y^-1*z^2")))
@example((parse("x*y^-1 + y", CTX_XY), [parse("x + 1", CTX_X), parse("2*x^3", CTX_X)]))
# exponents +-1, constant terms and constant images
@example((parse("x + x^-1 + y - y^-1 + 2", CTX_XY), [parse("7", CTX_XY), parse("-2/3", CTX_XY)]))
# coefficients +-1, Fractions and huge integers
@example(
    (
        LaurentPoly(CTX_XY, {(1, 0): 1, (0, 1): -1, (1, 1): Fraction(5, 3), (2, -1): -HUGE}),
        [parse("x + y", CTX_XY), parse("x*y^2", CTX_XY)],
    )
)
def test_substitute_matches_reference(case):
    p, images = case
    got = outcome(p.substitute, images)
    assert got == outcome(reference_substitute, p, images)
    if isinstance(got, LaurentPoly):
        assert_canonical(got)


# the shared contexts' factor-text tables are warm after the first examples
@given(
    st.sampled_from(CONTEXTS).flatmap(lambda ctx: polys(ctx, max_terms=10))
    | st.sampled_from((CTX_XY, CTX_XYZ)).flatmap(
        lambda ctx: polys(ctx, min_terms=32, max_terms=48, exp_bound=3)
    )
)
@example(parse("x^-1*y^-12*z - x^2*y^-1 + 3*z^-5 - 7/4*x*y*z - 1", CTX_XYZ))
@example(parse("(x - y^-1 + 2*z^-3 - 1/2)^4", CTX_XYZ))  # 35 terms
@example(parse("-x - y^-1 + z", CTX_XYZ))
@example(LaurentPoly(CTX_XY, {(0, 0): -HUGE, (1, -1): HUGE, (3, 0): Fraction(HUGE, 3)}))
@example(LaurentPoly(CTX_X, {(-(10**30),): 2, (10**30,): Fraction(-1, 2)}))
@example(LaurentPoly.zero(CTX_X))
def test_str_matches_reference(p):
    text = str(p)
    assert text == reference_str(p)
    assert parse(text, p.ctx) == p


@given(
    st.sampled_from(CONTEXTS).flatmap(
        lambda ctx: st.tuples(polys(ctx, max_terms=10), weight_vectors(ctx.n, bound=4))
    )
)
@example((parse("x*y + x", CTX_XY), (1, -1)))  # x*y has weight 0
@example((parse("3*x - 4*y + 5*x^2*y - 1/2*x^-1", CTX_XY), (2, -3)))
@example((parse("6*x^2 - HUGE*y".replace("HUGE", str(HUGE)), CTX_XY), (3, 1)))
@example((LaurentPoly.zero(CTX_XY), (0, 0)))
@example((parse("1", CTX_X), (5,)))
def test_image_decompose_matches_reference(case):
    p, weights = case
    d = DiagonalDerivation(p.ctx, weights)
    hit, preimage = d.image_decompose(p)
    assert (hit, preimage) == reference_image_decompose(d, p)
    if hit:
        assert_canonical(preimage)
        assert d.apply(preimage) == p


@st.composite
def slices(draw):
    """A derivation with coprime weights and one of its slices c*x^m: the
    Bezout slice x^b moved to m = v + (1 - <v, w>) * b for a drawn vector v,
    times a coefficient c that is often not 1."""
    ctx = draw(st.sampled_from(CONTEXTS))
    ws = draw(weight_vectors(ctx.n, bound=5).filter(lambda ws: gcd(*ws) == 1))
    d = DiagonalDerivation(ctx, ws)
    b = build_slice(d).m
    v = draw(exponent_vectors(ctx.n, bound=3))
    t = 1 - d.term_weight(v)
    c = draw(st.sampled_from((1, -1, Fraction(3, 2))) | coefficients().filter(bool))
    return d, LaurentPoly.monomial(ctx, tuple(x + t * y for x, y in zip(v, b)), c)


def uctx_of(d):
    return RingCtx(tuple(f"u{i + 1}" for i in range(d.ctx.n)))


D23 = DiagonalDerivation(CTX_XY, (2, -3))
U23 = uctx_of(D23)


@given(slices())
@example((D23, parse("3/2*x^2*y", CTX_XY)))
@example((D23, parse("-x^-1*y^-1", CTX_XY)))
@example((DiagonalDerivation(CTX_XYZ, (0, 1, -4)), parse("5/7*x^3*y", CTX_XYZ)))
def test_u_images_match_reference(case):
    d, s = case
    u = kernel_generators_localized(d, s).u
    assert u == reference_u_images(d, s)
    for image in u:
        assert_canonical(image)


@st.composite
def slice_coordinate_cases(draw):
    """A derivation, a slice s and slice coordinates for it: those that
    slice_coordinates writes for a polynomial, or hand-built ones whose
    weight-w part holds terms of any weight."""
    d, s = draw(slices())
    if draw(st.booleans()):
        p = draw(polys(d.ctx, max_terms=6, exp_bound=3))
        return d, s, slice_coordinates(d, s, p)
    parts = st.dictionaries(st.integers(-6, 6), polys(uctx_of(d), max_terms=4, exp_bound=3), max_size=4)
    return d, s, SliceCoordinates(uctx=uctx_of(d), components=draw(parts))


@given(slice_coordinate_cases())
# terms of other weights (delta != 0) under a slice with coefficient 3/2
@example((D23, parse("3/2*x^2*y", CTX_XY),
          SliceCoordinates(U23, {1: parse("u1^2 + 5*u2^-1", U23), -2: parse("7/3*u1*u2", U23)})))
# u^a and u^(a + m) land on one monomial and cancel: 1 * (3/2)^-1 - 3/2 * (3/2)^-2 = 0
@example((D23, parse("3/2*x^2*y", CTX_XY),
          SliceCoordinates(U23, {0: parse("u1^2*u2 - 3/2*u1^4*u2^2", U23)})))
@example((D23, parse("x^2*y", CTX_XY), SliceCoordinates(U23, {})))
def test_reconstruct_matches_reference(case):
    d, s, coords = case
    got = reconstruct_from_slice_coordinates(d, s, coords)
    assert got == reference_reconstruct(d, s, coords)
    assert_canonical(got)


@given(slices(), st.data())
def test_slice_coordinates_round_trip_under_any_slice(case, data):
    d, s = case
    p = data.draw(polys(d.ctx, max_terms=6, exp_bound=3))
    coords = slice_coordinates(d, s, p)
    assert reconstruct_from_slice_coordinates(d, s, coords) == p
    assert LaurentPoly.sum(d.ctx, (c.renamed(d.ctx) for c in coords.components.values())) == p


def test_str_is_the_same_with_a_cold_a_warm_and_a_full_table():
    x, y, z = names = (unused_name(), unused_name(), unused_name())
    ctx = RingCtx(names)  # unused names: the table starts empty
    p = parse(f"({x} - {y}^-1 + 2*{z}^-3 - 1/2)^4 + 5/3*{x}^-11*{y}^12", ctx)
    cold = str(p)
    assert cold == reference_str(p)
    assert str(p) == cold
    # 9261 distinct monomials, more texts each way than the bound of 8192 on
    # the texts of all tuples of names together
    cube = LaurentPoly(ctx, {(a, b, c): a - b + 2 * c or 1 for a in range(-10, 11)
                             for b in range(-10, 11) for c in range(-10, 11)})
    assert str(cube) == reference_str(cube)
    assert str(cube) == reference_str(cube)
    assert str(p) == cold
    unseen = LaurentPoly(ctx, {(40, 1, 0): Fraction(-3, 7), (0, -40, 2): 1, (0, 0, 99): -1})
    assert str(unseen) == reference_str(unseen) == f"-3/7*{x}^40*{y} - {z}^99 + {y}^-40*{z}^2"
    # the same names in another order are another tuple, with its own texts
    shuffled = RingCtx((z, x, y))
    assert str(p.renamed(shuffled)) == reference_str(p.renamed(shuffled))
    # 5000 distinct powers of y: with their monomials, more texts than the
    # bound, so the registry starts over after each print, and the second
    # print builds every text again
    powers = LaurentPoly(ctx, {(1, b, -1): b or 1 for b in range(-2500, 2500)})
    assert str(powers) == reference_str(powers)
    assert str(powers) == reference_str(powers)


def test_printing_leaves_the_context_value_alone():
    first = RingCtx(("u", "v"))
    second = RingCtx(("u", "v"))  # equal, built separately, sharing first's table
    before = (hash(first), repr(first), str(first))
    p = parse("3*u^2*v^-1 - u + 1/2*v^7", first)
    q = LaurentPoly(second, p.terms)
    assert str(p) == str(q) == "3*u^2*v^-1 - u + 1/2*v^7"
    assert str(q) == str(p)
    assert first == second and p == q
    assert (hash(first), repr(first), str(first)) == before
    assert (hash(second), repr(second), str(second)) == before
    assert repr(first) == "RingCtx(names=('u', 'v'))"


# Parenthesis-free expressions over CTX_XYZ: a leading '-' or none, then
# terms joined by '+' or '-', each a '*'-product of variables and
# rationals n or n/d, any of them raised to k, +k or -k with or without
# whitespace after the '^'.  Whitespace of several kinds may stand between
# any two tokens.  Zero numerators, 0^0 and negative powers of 0 occur.
_GAPS = st.sampled_from(["", "", " ", "  ", "\t", "\n", " \n\t", "\u00a0"])


@st.composite
def flat_texts(draw):
    def gap():
        return draw(_GAPS)

    def power(k_max):
        sign = draw(st.sampled_from(["", "+", "-"]))
        return f"{gap()}^{gap()}{sign}{gap()}{draw(st.integers(0, k_max))}"

    def factor():
        if draw(st.booleans()):
            text = draw(st.sampled_from(CTX_XYZ.names))
            return text + power(20) if draw(st.booleans()) else text
        text = str(draw(st.integers(0, 12) | st.integers(0, 10**30)))
        if draw(st.booleans()):
            text += f"{gap()}/{gap()}{draw(st.integers(1, 12) | st.integers(1, 10**30))}"
        return text + power(4) if draw(st.integers(0, 3)) == 0 else text

    def term():
        factors = draw(st.lists(st.builds(factor), min_size=1, max_size=4))
        return f"{gap()}*{gap()}".join(factors)

    terms = draw(st.lists(st.builds(term), min_size=1, max_size=6))
    text = gap() + draw(st.sampled_from(["", "-"])) + gap() + terms[0]
    for t in terms[1:]:
        text += f"{gap()}{draw(st.sampled_from('+-'))}{gap()}{t}"
    return text + gap()


@given(flat_texts())
@example("-x^-2*y + 3/4*z^+3 - 0^0*x*x - 0*y + 2/3^-2")
@example("x^ -3 - y ^ + 2*z^- 4\n-\t1 / 2 ^ -1")
@example("7*x^3*y^-2 - 0/5 + x*x^-1*z")
@example("0^-1*x + y")
@example(" -  x")
@example("2*x + x*2")
@example("3/4*y - y*3/4")
@example("2*x - x^2*2")
def test_flat_text_parses_as_in_parentheses(text):
    got = outcome(parse, text, CTX_XYZ)
    assert got == outcome(parse, f"({text})", CTX_XYZ)
    if isinstance(got, LaurentPoly):
        assert_canonical(got)
        assert parse(str(got), CTX_XYZ) == got


# The two-way monomial table.  `parse` reads a monomial text that the table
# of the context's names knows with one lookup, and only the printer fills
# the table, with the text of every monomial it writes.  Every context over
# one tuple of names shares the table, and one bound of 8192 texts covers
# the tables of all tuples together.  Each text must read as the recursive
# descent reads it in parentheses whatever the table holds: nothing (cold,
# a context with a name no other context has), the texts printed before
# (warm), or the texts left after the tables passed their bound (full).  A
# read that takes a stored tuple returns that tuple object as the key, so a
# text read back shares its keys with the polynomial printed; that is how a
# test sees the lookup.  No text may contain '~', so "x^~1*y" is a parse
# error, as the descent says, whatever the table holds.
BIG = "1" * 5000  # past the interpreter's int <-> str digit limit
TABLE_TEXTS = [
    # numbers before, among and after the variables, and zero coefficients
    "2*3*x", "x*2", "0*x", "3*x*x", "x*x", "x*2*x", "2*x*3/4*y^-1", "0*x^-3 + x^-3",
    "2^3*x^-1*z", "2^-1*x", "0/5*y + y", "3", "-3/4", "0", "1/2*x^2*y^-1 - x^2*y^-1",
    # a coefficient text read first, then the same text after a variable
    "2*x + x*2", "3/4*y - y*3/4", "2*x - x^2*2",
    # the printer's own texts, and the same terms with whitespace inside
    "x^2*y^-1", " x^2*y^-1 ", "x ^ 2 * y ^ -1", "x^2 *\ty^-1", "x^2*y^-1\n+ z",
    "-x^-1*z^+2 + 2/3*y*x - 7", "x*y*z - x^-3*y^-3*z^-3 + 5/2*z^2",
    # texts the descent must decide, before and after the table knows x*y
    "x*y", "x*y + q", "q*x*y", "x*y - - z", "x^ -1*y", "x^+-1*y", "x^~1*y", "0^-1*x*y",
    # exponents past the digit limit
    f"x^{BIG}*y^-{BIG} - 2*x^{BIG}", f"3*z^-{BIG}*x + z^-{BIG}*x",
]


@cache
def filled(names=("x", "y", "z")):
    """A context whose tuple of names has taken the tables past their bound:
    the printer has written 9261 distinct monomials, more than the 8192
    texts the tables hold, so they reached their cap and started over on
    the way, and the parser has read them back.  One such context serves
    every test."""
    ctx = RingCtx(names)
    cube = LaurentPoly(ctx, {(a, b, c): a - b + 2 * c or 1 for a in range(-10, 11)
                             for b in range(-10, 11) for c in range(-10, 11)})
    assert parse(str(cube), ctx) == cube
    return ctx


def unplaced(result):
    """An outcome with the position of a ParseError left out, which the
    parentheses around a text move."""
    return (result[0], result[1].rsplit(" (line ", 1)[0]) if isinstance(result, tuple) else result


def test_flat_texts_read_as_the_descent_with_the_table_cold_warm_and_full():
    names = ("x", "y", "z")
    warm, full = RingCtx(names), filled(names)
    for ctx in (None, warm, warm, full, full):
        for text in TABLE_TEXTS:
            on = ctx or RingCtx((*names, unused_name()))  # None: a cold context for each text
            got = unplaced(outcome(parse, text, on))
            assert got == unplaced(outcome(parse, f"({text})", on)), (text, ctx)
            if isinstance(got, LaurentPoly):  # only the printer's texts go into the table
                assert parse(str(got), on) == got


def test_a_printed_monomial_reads_back_through_a_fresh_equal_context():
    ctx = RingCtx((unused_name(), unused_name()))
    p = LaurentPoly(ctx, {(2, -1): 3, (0, 1): Fraction(-1, 2)})
    keys = {e: e for e in p.support()}
    fill_the_registry()
    text = str(p)
    for other in (RingCtx(ctx.names), copy.deepcopy(ctx)):  # equal, not the same object
        assert other is not ctx
        back = parse(text, other)
        assert back.renamed(ctx) == p
        assert [e for e in back.support() if keys[e] is not e] == []


def big_poly(ctx: RingCtx, side: int) -> LaurentPoly:
    """side^n distinct monomials, exponents in [-side/2, side/2)."""
    low = -(side // 2)
    exps = [()]
    for _ in ctx.names:
        exps = [(*e, a) for e in exps for a in range(low, low + side)]
    return LaurentPoly(ctx, {e: sum(e) or 1 for e in exps})


def test_texts_past_the_bound_print_and_read_back_across_two_name_tuples():
    """Two tuples of names each print and read more distinct monomials than
    the bound of 8192 texts: every text still reads back and prints as the
    reference printer does, also over a context made before the registry
    started over, and a text read then no longer finds its stored keys."""
    early = RingCtx((unused_name(), unused_name()))  # made before the drop
    small = LaurentPoly(early, {(3, -1): 2, (0, 5): Fraction(1, 3), (0, 0): -1})
    keys = {e: e for e in small.support()}
    text = str(small)
    other = RingCtx((unused_name(), unused_name(), unused_name()))
    for ctx, side in ((early, 70), (other, 21), (early, 71)):  # 4900, 9261, 5041 monomials
        big = big_poly(ctx, side)
        assert str(big) == reference_str(big)
        assert parse(str(big), ctx) == big
        assert str(big) == reference_str(big)  # again, after the registry started over
    # the tables of early's names were dropped: the text reads back fresh keys
    again = parse(text, early)
    assert again == small
    assert [e for e in again.support() if any(e) and keys[e] is e] == []
    assert str(small) == text == reference_str(small)
    assert parse(str(small), early) == small
    assert parse(text, RingCtx(early.names)) == small


def test_reads_store_nothing_so_printed_keys_outlast_any_read():
    """Only the printer writes the registry of monomial texts.  A read of
    more never-printed monomials than the bound of 8192 texts, over the
    names of a printed polynomial, stores none of them, so the registry does
    not start over and the printed text still reads back the printed key
    tuples."""
    ctx = RingCtx((unused_name(), unused_name(), unused_name()))
    p = LaurentPoly(ctx, {(2, -1, 0): 3, (0, 1, -4): Fraction(-1, 2), (1, 1, 1): 1, (0, 0, 0): 5})
    keys = {e: e for e in p.support()}
    fill_the_registry()
    text = str(p)
    x, y, z = ctx.names
    unprinted = " - ".join(
        f"{x}^{a}*{y}^{b}*{z}^-{c}" for a in range(2, 23) for b in range(2, 23) for c in range(2, 23)
    )
    assert len(parse(unprinted, ctx).support()) == 21**3
    back = parse(text, ctx)
    assert back == p
    assert [e for e in back.support() if any(e) and keys[e] is not e] == []


def test_one_bound_covers_the_texts_of_all_tuples_of_names():
    """Each context over new names keeps a few texts; 3000 of them take the
    texts of all tuples together past the bound of 8192, so the registry
    starts over and the first context's text is read afresh."""
    first = RingCtx((unused_name(), unused_name()))
    p = LaurentPoly(first, {(1, -2): 5})
    fill_the_registry()
    text = str(p)
    (key,) = parse(text, first).support()
    assert key is next(iter(p.support()))  # read through the table
    for _ in range(3000):
        q = LaurentPoly.variable(RingCtx((unused_name(),)), 0)
        assert parse(str(q), q.ctx) == q
    (fresh,) = parse(text, first).support()
    assert fresh == key and fresh is not key


def test_one_print_keeps_at_most_the_bound_of_texts():
    """A print of 27,000 distinct monomials stores texts only until the
    registry holds the bound, 8,192 texts, about 0.7 MB of them; twice the
    bound would take about 1.4 MB, and the 54,000 texts it builds about
    6 MB."""
    big = big_poly(RingCtx((unused_name(), unused_name(), unused_name())), 30)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = str(big)
        kept = tracemalloc.get_traced_memory()[0] - before - sys.getsizeof(text)
    finally:
        tracemalloc.stop()
    assert text == reference_str(big)
    assert kept < 1_000_000


def test_threads_print_and_read_while_the_tables_start_over():
    """Four threads print and read at once, over one shared tuple of names
    and one of their own, new monomials at every step: about 40,000 texts,
    so the tables start over several times while the threads run.  Every
    text and every polynomial read back is still right."""
    shared = RingCtx((unused_name(), unused_name()))
    errors = []

    def work(k):
        try:
            own = RingCtx((unused_name(), unused_name()))
            for step in range(40):
                for ctx in (shared, own):
                    p = big_poly(ctx, 8) * LaurentPoly.monomial(ctx, (step, -k))
                    text = str(p)
                    if text != reference_str(p) or parse(text, ctx) != p:
                        errors.append((k, step, text))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert [t for t in threads if t.is_alive()] == []
    assert errors == []


@given(
    st.sampled_from(CONTEXTS).flatmap(lambda ctx: polys(ctx, max_terms=12))
    | st.sampled_from((CTX_XY, CTX_XYZ)).flatmap(
        lambda ctx: polys(ctx, min_terms=20, max_terms=40, exp_bound=3)
    ),
    st.sampled_from(["", " ", "\t", "  \n"]),
)
@example(LaurentPoly(CTX_XY, {(10**5000, -(10**4300)): -1, (0, 1): 2, (0, 0): 3}), "")
@example(parse("(x - y^-1 + 2*z^-3 - 1/2)^4 + 5/3*x^-11*y^12", CTX_XYZ), " ")
def test_printed_text_reads_back_through_the_table(p, gap):
    names = p.ctx.names
    cold = RingCtx(tuple(unused_name() for _ in names))
    for ctx in (cold, p.ctx, filled(names) if len(names) == 3 else cold):
        q = p.renamed(ctx)  # the same key tuples, over ctx
        if ctx is cold:
            fill_the_registry()
        text = str(q)
        back = parse(text, ctx)
        assert back == q == parse(f"({text})", ctx)
        if ctx is cold:  # the printer stored each key it printed, and the read took it
            keys = {e: e for e in q.support()}
            assert [e for e in back.support() if any(e) and keys[e] is not e] == []
        # one more name, no other context's: a table of its own that starts empty
        wider = RingCtx((*ctx.names, unused_name()))
        assert parse(text, wider) == LaurentPoly(wider, {(*e, 0): c for e, c in q.terms.items()})
        spaced = text.replace("*", f"{gap}*{gap}").replace("^", f"{gap}^")
        assert parse(spaced, ctx) == q == parse(f"({spaced})", ctx)
        assert parse(spaced, ctx) == q  # again: a read stores nothing, so it reads the same
