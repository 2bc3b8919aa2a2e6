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
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .derivation import DiagonalDerivation, _dot
from .laurent import LaurentPoly, RingCtx, _accumulate
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
        w: LaurentPoly._trusted(uctx, dict(component.terms))
        for w, component in d.weight_decompose(p).components.items()
    }
    return SliceCoordinates(uctx=uctx, components=components)


def reconstruct_from_slice_coordinates(
    d: DiagonalDerivation, s: LaurentPoly, coords: SliceCoordinates
) -> LaurentPoly:
    """Inverse of slice_coordinates: substitute u_i -> x_i * s^(-w_i)."""
    u_images = _u_images(d, s)
    total: dict[tuple[int, ...], Fraction] = {}
    for w, component in coords.components.items():
        _accumulate(total, (component.substitute(u_images) * s**w).terms.items())
    return LaurentPoly._trusted(d.ctx, total)


def kernel_membership_localized(
    d: DiagonalDerivation, s: LaurentPoly, p: LaurentPoly
) -> bool:
    """p lies in the kernel exactly when every term has weight zero."""
    _require_slice(d, s)
    return all(d.term_weight(exps) == 0 for exps in p.terms)


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


def _dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(x >= y for x, y in zip(a, b))


def hilbert_basis(weights: Sequence[int]) -> HilbertBasis:
    """Minimal generators of {a in Z_{>=0}^n : <a, weights> = 0} \\ {0}.

    Breadth-first completion from the unit vectors: a frontier vector may
    grow by +e_i only when that moves its weight toward zero, solutions are
    recorded level by level, and any candidate dominating a recorded solution
    componentwise is pruned.  Because levels are exhausted in order of total
    degree, recorded solutions are automatically minimal.  Output is sorted
    by total degree, then lexicographically.
    """
    ws = tuple(int(w) for w in weights)
    n = len(ws)
    if n == 0:
        raise ValueError("empty weight vector")
    basis: list[tuple[int, ...]] = []
    level = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(level)
    while level:
        basis.extend(sorted(v for v in level if _dot(v, ws) == 0))
        frontier = []
        for v in level:
            w = _dot(v, ws)
            if w == 0:
                continue
            for i in range(n):
                if ws[i] * w >= 0:
                    continue
                u = v[:i] + (v[i] + 1,) + v[i + 1 :]
                if u in seen or any(_dominates(u, b) for b in basis):
                    continue
                seen.add(u)
                frontier.append(u)
        level = frontier
    basis.sort(key=lambda a: (sum(a), a))
    return HilbertBasis(tuple(basis))


def kernel_in_B(d: DiagonalDerivation) -> list[LaurentPoly]:
    """Monomial algebra generators of the kernel inside the polynomial ring."""
    return [LaurentPoly.monomial(d.ctx, a) for a in hilbert_basis(d.weights).gens]


def _compositions_upto(n: int, degree: int) -> Iterator[tuple[int, ...]]:
    if n == 1:
        for k in range(degree + 1):
            yield (k,)
        return
    for k in range(degree + 1):
        for rest in _compositions_upto(n - 1, degree - k):
            yield (k,) + rest


@lru_cache(maxsize=None)
def _exponent_grid(n: int, degree: int) -> np.ndarray:
    rows = list(_compositions_upto(n, degree))
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


def weight_zero_exponents(weights: Sequence[int], degree: int) -> list[tuple[int, ...]]:
    """All a >= 0 with total degree <= degree and <a, weights> = 0, sorted by
    total degree then lexicographically; includes the zero vector."""
    ws = tuple(int(w) for w in weights)
    grid = _exponent_grid(len(ws), int(degree))
    mask = grid @ np.array(ws, dtype=np.int64) == 0
    solutions = [tuple(int(v) for v in row) for row in grid[mask]]
    solutions.sort(key=lambda a: (sum(a), a))
    return solutions


def brute_force_kernel(d: DiagonalDerivation, degree: int) -> list[tuple[int, ...]]:
    """Exhaustive oracle for the weight-zero monoid, up to a degree bound."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return weight_zero_exponents(d.weights, degree)
