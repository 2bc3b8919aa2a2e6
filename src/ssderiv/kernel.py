"""Kernel computation for diagonal derivations, in three settings.

In the localization at a slice s the kernel is freely described by the
generators u_i = x_i * s^(-w_i); every element rewrites as a polynomial in
the u_i times a power of s (slice coordinates).  Inside the polynomial ring
itself the kernel is the span of the weight-zero monomials, a monoid algebra
whose minimal generators are the Hilbert basis of {a >= 0 : <a, w> = 0}; a
brute-force enumeration of that monoid serves as an independent oracle.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import index, itemgetter
from typing import NamedTuple, Sequence

from .derivation import DiagonalDerivation
from .laurent import LaurentPoly, RingCtx


class KernelGenerators(NamedTuple):
    """Generators u_i = x_i * s^(-w_i) of the kernel in the localization at s.

    Each u_i is annihilated by the derivation and x_i = u_i * s^(w_i)
    reconstructs the variables; uctx names the u_i as formal variables.
    """

    u: tuple[LaurentPoly, ...]
    s: LaurentPoly
    uctx: RingCtx


class SliceCoordinates(NamedTuple):
    """Rewriting of a polynomial as sum over w of c_w(u) * s^w.

    components maps each occurring weight w to a polynomial in the formal
    kernel variables; substituting u_i -> x_i * s^(-w_i) and resumming the
    s powers reproduces the input exactly.
    """

    uctx: RingCtx
    components: dict[int, LaurentPoly]


class HilbertBasis(NamedTuple):
    """Minimal generating set of the weight-zero exponent monoid."""

    gens: tuple[tuple[int, ...], ...]


def _default_uctx(n: int, unames: Sequence[str] | None = None) -> RingCtx:
    names = tuple(unames) if unames is not None else tuple(f"u{i + 1}" for i in range(n))
    if len(names) != n:
        raise ValueError(f"expected {n} kernel variable names, got {len(names)}")
    return RingCtx(names)


def _require_slice(d: DiagonalDerivation, s: LaurentPoly) -> None:
    """A slice is a monomial c*x^m with <m, weights> = 1, which for a
    monomial is the same as D(s) = s (slices.verify_slice)."""
    if s.is_monomial():
        if s.ctx != d.ctx:
            raise ValueError("context mismatch")
        if d.term_weight(s.monomial_exponents()) == 1:
            return
    raise ValueError("s is not a slice: need a single monomial with D(s) = s")


def _times_slice_power(
    a: tuple[int, ...], m: tuple[int, ...], c: Fraction | int, delta: int
) -> tuple[tuple[int, ...], Fraction | int]:
    """x^a * s^delta for the slice s = c*x^m, as the exponents a + delta*m
    and the factor c^delta, which is 1 when c is 1.  It works on exponent
    tuples: building either caller from ring operations measured slower."""
    exps = tuple([x + delta * y for x, y in zip(a, m)])
    return exps, 1 if c == 1 else Fraction(c) ** delta


def _u_images(d: DiagonalDerivation, s: LaurentPoly) -> tuple[LaurentPoly, ...]:
    """The kernel generators u_i = x_i * s^(-w_i) as elements of d.ctx: for
    the slice s = c*x^m, the monomial c^(-w_i) * x^(e_i - w_i*m)."""
    m = s.monomial_exponents()
    c = s.coefficient(m)
    n = d.ctx.n
    images = []
    for i, w in enumerate(d.weights):
        exps, coeff = _times_slice_power((0,) * i + (1,) + (0,) * (n - 1 - i), m, c, -w)
        images.append(LaurentPoly.monomial(d.ctx, exps, coeff))
    return tuple(images)


def kernel_generators_localized(
    d: DiagonalDerivation,
    s: LaurentPoly,
    unames: Sequence[str] | None = None,
) -> KernelGenerators:
    """Kernel generators of the localization at the slice monomial s."""
    _require_slice(d, s)
    return KernelGenerators(u=_u_images(d, s), s=s, uctx=_default_uctx(d.ctx.n, unames))


def slice_coordinates(
    d: DiagonalDerivation,
    s: LaurentPoly,
    p: LaurentPoly,
    unames: Sequence[str] | None = None,
) -> SliceCoordinates:
    """Rewrite p in slice coordinates.

    A term x^a of weight w equals u^a * s^w after substituting back, so the
    exponent vectors carry over unchanged into the formal u variables.
    """
    _require_slice(d, s)
    uctx = _default_uctx(d.ctx.n, unames)
    components = {
        w: component.renamed(uctx)
        for w, component in d.weight_decompose(p).components.items()
    }
    return SliceCoordinates(uctx=uctx, components=components)


def reconstruct_from_slice_coordinates(
    d: DiagonalDerivation, s: LaurentPoly, coords: SliceCoordinates
) -> LaurentPoly:
    """Inverse of slice_coordinates: substitute u_i -> x_i * s^(-w_i) and
    multiply each weight-w part by s^w.

    One pass over the terms, merged once.  With s = c*x^m, a term k*u^a of
    the weight-w part becomes k * x^a * s^delta, delta = w - <a, weights>,
    that is k * c^delta * x^(a + delta*m).  Every term that slice_coordinates
    writes has delta = 0 and keeps its exponents and coefficient.
    """
    _require_slice(d, s)
    m = s.monomial_exponents()
    c = s.coefficient(m)
    n = d.ctx.n
    total: dict[tuple[int, ...], Fraction | int] = {}
    for w, part in coords.components.items():
        if part.ctx.n != n:
            raise ValueError(f"a slice coordinate has {part.ctx.n} variables, expected {n}")
        for a, coeff in part.terms.items():
            delta = w - d.term_weight(a)
            if delta:
                a, factor = _times_slice_power(a, m, c, delta)
                coeff *= factor
            total[a] = total.get(a, 0) + coeff
    return LaurentPoly(d.ctx, total)


def fraction_kernel_element(
    d: DiagonalDerivation, s: LaurentPoly, b: LaurentPoly
) -> LaurentPoly:
    """b * s^(-w) for a weight-homogeneous b of weight w; annihilated by d."""
    _require_slice(d, s)
    w = d.semi_invariant_weight(b)
    if w is None:
        raise ValueError("b is not weight-homogeneous")
    return b * s ** (-w)


# ----------------------------------------------------------------------
# the weight-zero monoid in the polynomial ring


def lambert_degree(weights: Sequence[int]) -> int:
    """L = max(1, max w+ + max |w-|), each max 0 where there is none.

    No minimal nonzero solution of <a, weights> = 0 has a larger total
    degree (J.-L. Lambert, C. R. Acad. Sci. Paris 1987), so the oracle up to
    degree L finds the whole Hilbert basis; hilbert_basis sizes its packed
    fields from L."""
    ws = tuple(map(index, weights))
    if not ws:
        raise ValueError("empty weight vector")
    return max(1, max(0, *ws) + max(0, *(-x for x in ws)))


# hilbert_basis refuses weights whose Lambert degree, after dividing them by
# their gcd, is over this bound.  A two-weight completion advances one degree
# per level, so its cost grows with L: at L = 10^5 it takes about 0.15 s and
# 9 MB (2-vCPU VM, CPython 3.11), while two consecutive 335-digit Fibonacci
# numbers (L ~ 10^335) would never finish and fill memory on the way.  The
# bound only stops degrees no completion could reach: with more weights the
# cost grows faster with L (three weights at L = 5*10^3 took 3-5 s and
# 160-320 MB on the same VM).
MAX_LAMBERT_DEGREE = 10**5


def hilbert_basis(weights: Sequence[int]) -> HilbertBasis:
    """Minimal generators of {a in Z_{>=0}^n : <a, weights> = 0} \\ {0}.

    Breadth-first completion from the unit vectors (Contejean and Devie): a
    frontier vector may grow by +e_i only when that moves its weight toward
    zero, so a vector of positive weight grows only along the coordinates of
    negative weight and one of negative weight only along those of positive
    weight; zero-weight coordinates are never grown.  Solutions are recorded
    level by level, and any candidate dominating a recorded solution
    componentwise is pruned.  Because levels are exhausted in order of total
    degree, recorded solutions are automatically minimal.  Output is sorted
    by total degree, then lexicographically.

    The domination test is indexed.  A candidate u = v + e_i grows a frontier
    vector v that survived pruning, so no solution recorded before v's level
    lies below v, and none of v's own level does either: those have v's
    degree, and v is not a solution.  Hence a solution b <= u has
    b[i] == u[i], since otherwise b <= v.  The basis is kept indexed by
    coordinate and value, and u is compared only with the solutions whose
    i-th entry equals u[i].  Every candidate is marked seen before that
    test, so a pruned one reached again along another path is not retested.

    Each vector is packed into one Python int, coordinate 0 in the most
    significant field, so int order is the lexicographic order of the
    vectors.  A field holds values up to L + 1, where L = lambert_degree(ws)
    = max(1, max w+ + max |w-|) (the largest positive weight plus the
    largest |negative weight|, each 0 where there is none), and has one
    guard bit above them.  Growing by e_i adds the int with a 1 in field i,
    and seen holds ints.  u dominates b exactly when ((u | G) - b) & G == G,
    G the mask of all guard bits: field i of u | G is u[i] plus the guard
    bit, which exceeds b[i], so no borrow crosses a field and the guard bit
    survives exactly when u[i] >= b[i].  The index keys on field i masked in
    place, u & mask_i, which saves the shift to u[i].  Only the finished
    basis is unpacked.

    Why L + 1 suffices: follow the growth path e_j = v_1, v_2, ..., v_k = v
    of a frontier vector v of nonzero weight, each v_t a vector of degree t
    that survived pruning and was grown.  A weight 0 < x <= max w+ grows by
    some w_i in [-max |w-|, -1], to a weight in [-max |w-| + 1, max w+ - 1],
    and a negative weight symmetrically, so every <v_t, w> lies in
    [-max |w-|, max w+], and none is 0: a zero-weight vector is recorded,
    not grown.  They are pairwise distinct.  If <v_s, w> = <v_t, w> with
    s < t, then v_t - v_s >= 0 is a nonzero solution of degree t - s < t,
    so some minimal solution b <= v_t of degree < t is recorded before
    level t (the completion finds every minimal solution), and v_t, which
    dominates b, would have been pruned.  That interval without 0 holds
    max w+ + max |w-| <= L integers, so k <= L: a frontier vector has degree
    at most L, a candidate at most L + 1, and no entry of either exceeds
    L + 1.

    The weights are first divided by their gcd, which leaves the basis as
    it is, and ValueError is raised, before any completion, when the
    Lambert degree of the result is over MAX_LAMBERT_DEGREE.  The last few
    results are cached, keyed by those weights as ints, so kernel_in_B, or
    any caller that asks again for weights it just passed, gets the same
    frozen result without a second completion.  Invalid weights are
    rejected before the cache and raise on every call.
    """
    ws = tuple(map(index, weights))
    if not ws:
        raise ValueError("empty weight vector")
    g = gcd(*ws)
    if g > 1:
        ws = tuple([w // g for w in ws])
    if lambert_degree(ws) > MAX_LAMBERT_DEGREE:
        raise ValueError(
            "the weights divided by their gcd have a Lambert degree over "
            f"{MAX_LAMBERT_DEGREE}, too large for the Hilbert basis completion"
        )
    return _hilbert_completion(ws)


@lru_cache(maxsize=16)
def _hilbert_completion(ws: tuple[int, ...]) -> HilbertBasis:
    """hilbert_basis on a nonempty tuple of ints, on packed vectors."""
    n = len(ws)
    # no entry of a vector in the search exceeds L + 1
    bits = (lambert_degree(ws) + 1).bit_length()
    field = (1 << bits) - 1
    shifts = [(bits + 1) * (n - 1 - i) for i in range(n)]
    units = [1 << s for s in shifts]
    guards = sum(unit << bits for unit in units)
    masks = [field << s for s in shifts]
    # by_entry[i] maps field i, masked in place, to the solutions that have it
    by_entry: list[dict[int, list[int]]] = [{} for _ in range(n)]
    # the coordinates that raise, and those that lower, the weight, each with
    # its unit, field mask, entry index and weight
    up = [(units[i], masks[i], by_entry[i], x) for i, x in enumerate(ws) if x > 0]
    down = [(units[i], masks[i], by_entry[i], x) for i, x in enumerate(ws) if x < 0]
    basis: list[int] = []
    # each frontier vector travels with its weight <v, ws>
    level = list(zip(units, ws))
    seen = {v for v, _ in level}
    while level:
        for b in sorted(v for v, w in level if w == 0):
            basis.append(b)
            for mask, entries in zip(masks, by_entry):
                entries.setdefault(b & mask, []).append(b)
        frontier = []
        for v, w in level:
            if w == 0:
                continue
            for unit, mask, entries, x in down if w > 0 else up:
                u = v + unit
                if u in seen:
                    continue
                seen.add(u)
                guarded = u | guards
                for b in entries.get(u & mask, ()):
                    if (guarded - b) & guards == guards:
                        break
                else:
                    frontier.append((u, w + x))
        level = frontier
    return HilbertBasis(tuple(tuple((b >> s) & field for s in shifts) for b in basis))


def kernel_in_B(d: DiagonalDerivation) -> list[LaurentPoly]:
    """Monomial algebra generators of the kernel inside the polynomial ring."""
    return [LaurentPoly.monomial(d.ctx, a) for a in hilbert_basis(d.weights).gens]


def weight_zero_exponents(weights: Sequence[int], degree: int) -> list[tuple[int, ...]]:
    """All a >= 0 with total degree <= degree and <a, weights> = 0, sorted by
    total degree then lexicographically in the caller's coordinates;
    includes the zero vector.

    Exact for any int weights and any number of coordinates: a depth-first
    walk over the coordinates in Python ints, iterative rather than
    recursive.  The walk visits the coordinates in order of decreasing
    |weight| (a stable sort), so the two solved in closed form at the bottom
    carry the smallest weights, which have the most solutions per branch;
    one itemgetter maps each solution back to the caller's order.  With
    partial weight s and degree budget r left, the next coordinate j takes
    only the values k for which the weights the remaining coordinates can
    still reach with budget r - k, the interval
    [s + k*w_j + (r-k)*min(0, suffix), s + k*w_j + (r-k)*max(0, suffix)],
    contains 0; two floor divisions give that range of k (_value_range).
    The walk only skips branches that cannot reach weight 0, so it lists
    every solution and shares nothing with hilbert_basis.

    The last three coordinates are one loop.  The node before the
    third-from-last coordinate (the head) runs through the head's values,
    carrying the partial weight and the budget from one value to the next,
    and for each solves the last two coordinates in closed form: within
    their range, the values k of the second-to-last coordinate that leave
    an integer last coordinate m = -(s + k*w_pen) / w_last are one residue
    class modulo |w_last| / gcd(w_pen, w_last), found with a modular
    inverse, and m moves by a fixed amount from one k to the next.  With
    fewer than three coordinates, or when w_last is 0, the walk goes down
    to the last coordinate and solves it directly: by one divmod, or, when
    w_last is 0, with every value the budget allows.  Two weights of
    opposite signs skip the walk: their solutions are the multiples
    t * (|w_2|, |w_1|) / gcd(w_1, w_2) of one primitive vector, listed
    directly, so the cost is one step per solution, not one per value of a
    coordinate.

    Solutions go into lists keyed by their total degree (a defaultdict);
    each list is sorted and the lists are joined in increasing degree.
    Nothing is allocated per unit of the degree bound, so a huge bound with
    few solutions costs no memory.
    """
    given = tuple(map(index, weights))
    n = len(given)
    if n == 0:
        raise ValueError("empty weight vector")
    degree = index(degree)
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if n == 2 and given[0] * given[1] < 0:
        # the multiples of one primitive solution, one per total degree
        g = gcd(*given)
        a, b = abs(given[1]) // g, abs(given[0]) // g
        return [(t * a, t * b) for t in range(degree // (a + b) + 1)]
    # walk order: coordinates by decreasing |weight|; back[i] is where the
    # caller's coordinate i sits in the walk
    order = sorted(range(n), key=lambda i: -abs(given[i]))
    ws = [given[i] for i in order]
    back = [0] * n
    for position, i in enumerate(order):
        back[i] = position
    restore = itemgetter(*back) if n > 1 else lambda walked: (walked[0],)
    # lows[j], highs[j]: least and greatest weight per unit of degree that
    # coordinates j.. can add, counting the option of adding nothing
    lows = [0] * (n + 1)
    highs = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        lows[j] = min(lows[j + 1], ws[j])
        highs[j] = max(highs[j + 1], ws[j])
    # total degree -> the solutions of that degree, in caller order
    buckets: defaultdict[int, list[tuple[int, ...]]] = defaultdict(list)
    # the values chosen so far, in walk order
    prefix = [0] * n
    last = n - 1
    pen = last - 1
    w_last = ws[last]
    head = -1  # none: the walk goes down to the last coordinate
    if n > 2 and w_last:
        head = pen - 1
        w_head, w_pen = ws[head], ws[pen]
        # the second-to-last coordinate's range: _value_range, inlined for
        # speed, with the slopes fixed
        low, high = lows[last], highs[last]
        slope_low, slope_high = w_pen - low, w_pen - high
        g = gcd(w_pen, w_last)
        # k*w_pen + m*w_last = -s has an integer m exactly when g divides s
        # and k == (-s/g) * inverse modulo step; m then moves by shift from
        # one such k to the next, and the total degree by advance
        step = abs(w_last) // g
        inverse = pow(w_pen // g, -1, step) if step > 1 else 0
        shift = -(w_pen // g) if w_last > 0 else w_pen // g
        advance = step + shift

        def tail(s: int, r: int, h_min: int, h_max: int) -> None:
            """Every solution below the node at partial weight s and budget
            r, whose head takes the values h_min..h_max."""
            s += h_min * w_head
            r -= h_min
            for h in range(h_min, h_max + 1):
                if not s % g:
                    k_min, k_max = 0, r
                    base = s + r * low
                    if slope_low > 0:
                        top = -base // slope_low
                        if top < k_max:
                            k_max = top
                    elif slope_low < 0:
                        bottom = -(-base // -slope_low)
                        if bottom > k_min:
                            k_min = bottom
                    elif base > 0:
                        k_max = -1
                    base = s + r * high
                    if slope_high > 0:
                        bottom = -(base // slope_high)
                        if bottom > k_min:
                            k_min = bottom
                    elif slope_high < 0:
                        top = base // -slope_high
                        if top < k_max:
                            k_max = top
                    elif base < 0:
                        k_max = -1
                    first = k_min + ((-s // g) * inverse - k_min) % step
                    if first <= k_max:
                        prefix[head] = h
                        m = (-s - first * w_pen) // w_last
                        total = degree - r + first + m
                        for k in range(first, k_max + 1, step):
                            prefix[pen] = k
                            prefix[last] = m
                            buckets[total].append(restore(prefix))
                            m += shift
                            total += advance
                s += w_head
                r -= 1

    # the walk keeps its path in arrays, not on the call stack, so any
    # number of coordinates works: before coordinate j the partial weight is
    # sums[j] and the degree left budgets[j]; tops[j] is the largest value
    # coordinate j still takes
    tops = [0] * n
    sums = [0] * n
    budgets = [0] * n
    budgets[0] = degree
    j = 0
    while True:
        s, r = sums[j], budgets[j]
        if j == last:
            if w_last == 0:
                if s == 0:
                    for k in range(r + 1):
                        prefix[last] = k
                        buckets[degree - r + k].append(restore(prefix))
            else:
                k, rest = divmod(-s, w_last)
                if not rest and 0 <= k <= r:
                    prefix[last] = k
                    buckets[degree - r + k].append(restore(prefix))
        else:
            k_min, k_max = _value_range(s, r, ws[j], lows[j + 1], highs[j + 1])
            if j == head:
                tail(s, r, k_min, k_max)
            elif k_min <= k_max:
                prefix[j], tops[j] = k_min, k_max
                sums[j + 1], budgets[j + 1] = s + k_min * ws[j], r - k_min
                j += 1
                continue
        # back up to the deepest open coordinate with a value left, and step it
        j -= 1
        while j >= 0 and prefix[j] == tops[j]:
            j -= 1
        if j < 0:
            break
        k = prefix[j] = prefix[j] + 1
        sums[j + 1], budgets[j + 1] = sums[j] + k * ws[j], budgets[j] - k
        j += 1
    return _joined(buckets)


def _value_range(s: int, r: int, w: int, low: int, high: int) -> tuple[int, int]:
    """The values k of a coordinate of weight w, at partial weight s and
    budget r, for which the coordinates after it, which add between low and
    high per unit of degree (low <= 0 <= high), can still bring the weight to
    0 with the budget r - k left; empty when k_min > k_max."""
    k_min, k_max = 0, r
    # lowest reachable weight s + r*low + k*(w - low) must be <= 0
    base, slope = s + r * low, w - low
    if slope > 0:
        top = -base // slope
        if top < k_max:
            k_max = top
    elif slope < 0:
        bottom = -(-base // -slope)
        if bottom > k_min:
            k_min = bottom
    elif base > 0:
        return 0, -1
    # highest reachable weight s + r*high + k*(w - high) must be >= 0
    base, slope = s + r * high, w - high
    if slope > 0:
        bottom = -(base // slope)
        if bottom > k_min:
            k_min = bottom
    elif slope < 0:
        top = base // -slope
        if top < k_max:
            k_max = top
    elif base < 0:
        return 0, -1
    return k_min, k_max


def _joined(buckets: dict[int, list[tuple[int, ...]]]) -> list[tuple[int, ...]]:
    """The buckets' solutions by increasing degree, each bucket sorted: the
    walk order is not the caller's."""
    return [a for total in sorted(buckets) for a in sorted(buckets[total])]


def brute_force_kernel(d: DiagonalDerivation, degree: int) -> list[tuple[int, ...]]:
    """Exhaustive oracle for the weight-zero monoid, up to a degree bound."""
    return weight_zero_exponents(d.weights, degree)
