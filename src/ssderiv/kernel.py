"""Kernel computation for diagonal derivations, in three settings.

In the localization at a slice s the kernel is freely described by the
generators u_i = x_i * s^(-w_i); every element rewrites as a polynomial in
the u_i times a power of s (slice coordinates).  Inside the polynomial ring
itself the kernel is the span of the weight-zero monomials, a monoid algebra
whose minimal generators are the Hilbert basis of {a >= 0 : <a, w> = 0}; a
brute-force enumeration of that monoid serves as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import index, itemgetter
from typing import Sequence

from .derivation import DiagonalDerivation
from .laurent import LaurentPoly, RingCtx
from .slices import verify_slice


@dataclass(frozen=True)
class KernelGenerators:
    """Generators u_i = x_i * s^(-w_i) of the kernel in the localization at s.

    Each u_i is annihilated by the derivation and x_i = u_i * s^(w_i)
    reconstructs the variables; uctx names the u_i as formal variables.
    """

    u: tuple[LaurentPoly, ...]
    s: LaurentPoly
    uctx: RingCtx


@dataclass
class SliceCoordinates:
    """Rewriting of a polynomial as sum over w of c_w(u) * s^w.

    components maps each occurring weight w to a polynomial in the formal
    kernel variables; substituting u_i -> x_i * s^(-w_i) and resumming the
    s powers reproduces the input exactly.
    """

    uctx: RingCtx
    components: dict[int, LaurentPoly]


@dataclass(frozen=True)
class HilbertBasis:
    """Minimal generating set of the weight-zero exponent monoid."""

    gens: tuple[tuple[int, ...], ...]


def _default_uctx(n: int, unames: Sequence[str] | None = None) -> RingCtx:
    names = tuple(unames) if unames is not None else tuple(f"u{i + 1}" for i in range(n))
    if len(names) != n:
        raise ValueError(f"expected {n} kernel variable names, got {len(names)}")
    return RingCtx(names)


def _require_slice(d: DiagonalDerivation, s: LaurentPoly) -> None:
    if not s.is_monomial() or not verify_slice(d, s):
        raise ValueError("s is not a slice: need a single monomial with D(s) = s")


def _u_images(d: DiagonalDerivation, s: LaurentPoly) -> tuple[LaurentPoly, ...]:
    """The kernel generators u_i = x_i * s^(-w_i) as elements of d.ctx."""
    return tuple(
        LaurentPoly.variable(d.ctx, i) * s ** (-d.weights[i]) for i in range(d.ctx.n)
    )


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
        w: LaurentPoly(uctx, component.terms)
        for w, component in d.weight_decompose(p).components.items()
    }
    return SliceCoordinates(uctx=uctx, components=components)


def reconstruct_from_slice_coordinates(
    d: DiagonalDerivation, s: LaurentPoly, coords: SliceCoordinates
) -> LaurentPoly:
    """Inverse of slice_coordinates: substitute u_i -> x_i * s^(-w_i)."""
    u_images = _u_images(d, s)
    parts = coords.components.items()
    return LaurentPoly.sum(d.ctx, (part.substitute(u_images) * s**w for w, part in parts))


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

    The last few results are cached, keyed by the weights as ints, so
    kernel_in_B, or any caller that asks again for weights it just passed,
    gets the same frozen result without a second completion.  Invalid
    weights are rejected before the cache and raise on every call.
    """
    ws = tuple(map(index, weights))
    if not ws:
        raise ValueError("empty weight vector")
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
    contains 0; two floor divisions give that range of k.  The walk only
    skips branches that cannot reach weight 0, so it lists every solution
    and shares nothing with hilbert_basis.

    The last two coordinates are solved in closed form.  Within that range,
    the values k of the second-to-last coordinate that leave an integer last
    coordinate m = -(s + k*w_pen) / w_last are one residue class modulo
    |w_last| / gcd(w_pen, w_last), found with a modular inverse.  When
    w_last is 0, or there is one coordinate, the last coordinate is solved
    directly, by one divmod.

    Solutions are collected in a dict keyed by their total degree; each
    bucket is sorted and the buckets are joined in increasing degree.
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
    # walk order: coordinates by decreasing |weight|; back[i] is where the
    # caller's coordinate i sits in the walk
    order = sorted(range(n), key=lambda i: -abs(given[i]))
    ws = [given[i] for i in order]
    back = [0] * n
    for position, i in enumerate(order):
        back[i] = position
    restore = itemgetter(*back) if n > 1 else tuple
    # lows[j], highs[j]: least and greatest weight per unit of degree that
    # coordinates j.. can add, counting the option of adding nothing
    lows = [0] * (n + 1)
    highs = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        lows[j] = min(lows[j + 1], ws[j])
        highs[j] = max(highs[j + 1], ws[j])
    last = n - 1
    w_last = ws[last]
    w_pen = ws[last - 1] if n > 1 else 0
    g = gcd(w_pen, w_last)
    # k*w_pen + m*w_last = -s has an integer m exactly when g divides s and
    # k == (-s/g) * inverse modulo step
    step = abs(w_last) // g if w_last else 0
    inverse = pow(w_pen // g, -1, step) if step > 1 else 0
    # total degree -> the solutions of that degree, in caller order
    buckets: dict[int, list[tuple[int, ...]]] = {}
    prefix = [0] * n
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
                        buckets.setdefault(degree - r + k, []).append(restore(prefix))
            else:
                k, rest = divmod(-s, w_last)
                if not rest and 0 <= k <= r:
                    prefix[last] = k
                    buckets.setdefault(degree - r + k, []).append(restore(prefix))
        else:
            w, low, high = ws[j], lows[j + 1], highs[j + 1]
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
                k_max = -1
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
                k_max = -1
            if j == last - 1 and w_last:
                if not s % g:
                    used = degree - r
                    first = k_min + ((-s // g) * inverse - k_min) % step
                    for k in range(first, k_max + 1, step):
                        prefix[j] = k
                        m = prefix[last] = (-s - k * w) // w_last
                        buckets.setdefault(used + k + m, []).append(restore(prefix))
            elif k_min <= k_max:
                prefix[j], tops[j] = k_min, k_max
                sums[j + 1], budgets[j + 1] = s + k_min * w, r - k_min
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

    # the walk order is not the caller's, so each bucket is sorted on its own
    return [a for total in sorted(buckets) for a in sorted(buckets[total])]


def brute_force_kernel(d: DiagonalDerivation, degree: int) -> list[tuple[int, ...]]:
    """Exhaustive oracle for the weight-zero monoid, up to a degree bound."""
    return weight_zero_exponents(d.weights, degree)
