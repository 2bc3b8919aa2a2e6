"""Derivations on Laurent polynomial rings.

Two kinds are modeled.  A DiagonalDerivation has integer weights w with
D(x_i) = w_i * x_i; it is semisimple by construction, the monomials being an
eigenbasis.  A GeneralDerivation is given by arbitrary images of the
variables, extended by the Leibniz rule, and carries no semisimplicity claim;
conjugates and scalar multiples live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index, mul
from typing import Sequence, Union

from .laurent import LaurentPoly, RingCtx


@dataclass
class WeightDecomposition:
    """Grouping of a polynomial into weight-homogeneous components.

    `components` maps each occurring weight w to the (nonzero) part of the
    input on which the derivation acts as multiplication by w; the map is
    ordered by increasing weight and the components sum back to the input.
    """

    components: dict[int, LaurentPoly]

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(self.components)

    def recombine(self, ctx: RingCtx) -> LaurentPoly:
        return LaurentPoly.sum(ctx, self.components.values())


@dataclass(frozen=True)
class DiagonalDerivation:
    """D(x_i) = weights[i] * x_i on the Laurent ring over ctx."""

    ctx: RingCtx
    weights: tuple[int, ...]

    def __post_init__(self):
        weights = tuple(map(index, self.weights))
        object.__setattr__(self, "weights", weights)
        if len(weights) != self.ctx.n:
            raise ValueError(f"expected {self.ctx.n} weights, got {len(weights)}")

    def is_zero(self) -> bool:
        return not any(self.weights)

    def term_weight(self, exps: Sequence[int]) -> int:
        """The weight <exps, weights> of a monomial."""
        return sum(map(mul, exps, self.weights))

    def _require_ctx(self, p: LaurentPoly) -> None:
        if p.ctx != self.ctx:
            raise ValueError("context mismatch")

    def apply(self, p: LaurentPoly) -> LaurentPoly:
        """Each term c*x^a maps to <a, weights> * c * x^a; weight-0 terms vanish."""
        self._require_ctx(p)
        return p.scale_by(self.term_weight)

    def weight_decompose(self, p: LaurentPoly) -> WeightDecomposition:
        """Group the terms of p by weight; the components are eigenvectors."""
        self._require_ctx(p)
        return WeightDecomposition(dict(sorted(p.split(self.term_weight).items())))

    def semi_invariant_weight(self, p: LaurentPoly) -> int | None:
        """The weight w with D(p) = w*p, or None if p mixes weights."""
        self._require_ctx(p)
        if p.is_zero():
            raise ValueError("weight of zero undefined")
        seen = {self.term_weight(exps) for exps in p.support()}
        return seen.pop() if len(seen) == 1 else None

    def image_decompose(self, p: LaurentPoly) -> tuple[bool, LaurentPoly | None]:
        """Decide p in D(B) and produce a preimage.

        p lies in the image exactly when no term of p has weight 0; then the
        preimage divides each term c*x^a by its weight <a, weights>, all over
        one common denominator, and otherwise (False, None) is returned.  In
        particular nonzero constants are never hit, so the image is a proper
        subspace.
        """
        self._require_ctx(p)
        try:
            return True, p.divide_by(self.term_weight)
        except ZeroDivisionError:  # a term of weight 0
            return False, None

    def __add__(self, other: "DiagonalDerivation") -> "DiagonalDerivation":
        if not isinstance(other, DiagonalDerivation):
            return NotImplemented
        if other.ctx != self.ctx:
            raise ValueError("context mismatch")
        return DiagonalDerivation(self.ctx, tuple(a + b for a, b in zip(self.weights, other.weights)))

    def as_general(self) -> "GeneralDerivation":
        images = tuple(
            LaurentPoly.variable(self.ctx, i) * w for i, w in enumerate(self.weights)
        )
        return GeneralDerivation(self.ctx, images)


@dataclass(frozen=True)
class GeneralDerivation:
    """Derivation determined by images[i] = D(x_i), extended by Leibniz."""

    ctx: RingCtx
    images: tuple[LaurentPoly, ...]

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if len(images) != self.ctx.n:
            raise ValueError(f"expected {self.ctx.n} images, got {len(images)}")
        for image in images:
            if image.ctx != self.ctx:
                raise ValueError("context mismatch")

    def apply(self, p: LaurentPoly) -> LaurentPoly:
        """sum_i images[i] * dp/dx_i, valid for all integer exponents."""
        if p.ctx != self.ctx:
            raise ValueError("context mismatch")
        summands = (img * p.partial(i) for i, img in enumerate(self.images) if not img.is_zero())
        return LaurentPoly.sum(self.ctx, summands)


def commutator(d1: GeneralDerivation, d2: GeneralDerivation) -> GeneralDerivation:
    """[d1, d2] via its images d1(d2(x_i)) - d2(d1(x_i)).

    A derivation vanishing on all variables is zero, so all-zero images
    certify that d1 and d2 commute.
    """
    if d1.ctx != d2.ctx:
        raise ValueError("context mismatch")
    images = tuple(
        d1.apply(d2.images[i]) - d2.apply(d1.images[i]) for i in range(d1.ctx.n)
    )
    return GeneralDerivation(d1.ctx, images)


def conjugate(
    d: DiagonalDerivation,
    phi: Sequence[LaurentPoly],
    psi: Sequence[LaurentPoly],
) -> GeneralDerivation:
    """Transport d along the automorphism with variable images phi.

    psi must give the images of the inverse automorphism; both compositions
    are checked on every variable.  The result d' satisfies
    d'(phi(x_i)) = weights[i] * phi(x_i), so the transported monomial basis
    consists of eigenvectors and d' is again semisimple.
    """
    phi = tuple(phi)
    psi = tuple(psi)
    n = d.ctx.n
    if len(phi) != n or len(psi) != n:
        raise ValueError(f"expected {n} images for phi and psi")
    for p in (*phi, *psi):
        if p.ctx != d.ctx:
            raise ValueError("context mismatch")
    for i in range(n):
        xi = LaurentPoly.variable(d.ctx, i)
        if phi[i].substitute(psi) != xi or psi[i].substitute(phi) != xi:
            raise ValueError("not mutually inverse")
    images = tuple(d.apply(psi[i]).substitute(phi) for i in range(n))
    return GeneralDerivation(d.ctx, images)


def scalar_multiple_semisimple(a: LaurentPoly, d: DiagonalDerivation) -> bool:
    """Decide whether a*d is semisimple, for a in ker(d) and d nonzero.

    True exactly when a is a constant: multiplying by a nonconstant invariant
    makes the iterates of some variable grow without bound, which destroys
    local finiteness and hence semisimplicity.
    """
    if d.is_zero():
        raise ValueError("requires D != 0")
    if not a.is_zero() and d.semi_invariant_weight(a) != 0:
        raise ValueError("a is not in ker(D)")
    return a.is_constant()


# ----------------------------------------------------------------------
# local finiteness probe


@dataclass(frozen=True)
class LocallyFinite:
    """Certificate: per generator, a D-stable spanning set for its iterates.

    Every iterate in a span grew the row space by one, so each span is a
    basis and its length is the dimension."""

    spans: tuple[tuple[LaurentPoly, ...], ...]

    @property
    def span_dims(self) -> tuple[int, ...]:
        return tuple(map(len, self.spans))


@dataclass(frozen=True)
class NotLocallyFinite:
    """Certificate: a monomial iterate chain with a constant exponent shift
    of positive total degree whose coefficient recurrence never vanishes."""

    generator: int
    chain: tuple[LaurentPoly, ...]
    shift: tuple[int, ...]


@dataclass(frozen=True)
class Inconclusive:
    bound: int


FinitenessVerdict = Union[LocallyFinite, NotLocallyFinite, Inconclusive]


class _RowSpace:
    """Incremental exact row space over Q, coordinates indexed by monomials."""

    def __init__(self):
        self.rows: list[tuple[tuple[int, ...], LaurentPoly]] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, p: LaurentPoly) -> LaurentPoly:
        """The remainder of p after elimination against every stored row."""
        for pivot, row in self.rows:
            c = p.coefficient(pivot)
            if c:
                p = p + row * -c
        return p

    def add(self, p: LaurentPoly) -> bool:
        """Reduce p against the space; returns True when the dimension grew."""
        vec = self._reduce(p)
        if vec.is_zero():
            return False
        pivot = max(vec.support())
        # each row is monic at its pivot; int / int would be a float
        self.rows.append((pivot, vec * (1 / Fraction(vec.coefficient(pivot)))))
        return True

    def contains(self, p: LaurentPoly) -> bool:
        return self._reduce(p).is_zero()


def _monomial_chain_shift(chain: Sequence[LaurentPoly]) -> tuple[int, ...] | None:
    """Constant exponent shift of a chain of single monomials, if any."""
    if len(chain) < 2 or not all(p.is_monomial() for p in chain):
        return None
    exps = [p.monomial_exponents() for p in chain]
    shift = tuple(b - a for a, b in zip(exps[0], exps[1]))
    for a, b in zip(exps[1:], exps[2:]):
        if tuple(y - x for x, y in zip(a, b)) != shift:
            return None
    return shift


def _certify_unbounded(d: GeneralDerivation, chain: Sequence[LaurentPoly]) -> tuple[int, ...] | None:
    """Check that a monomial iterate chain provably grows forever.

    Requires a constant exponent shift of positive total degree and, for
    soundness, that every image that can contribute is a single monomial with
    the same shift.  Then D(c*x^a) = <coeffs, a> * c * x^(a + shift), the
    factor is an arithmetic progression along the chain, and it must stay
    nonzero for all future iterates.
    """
    shift = _monomial_chain_shift(chain)
    if shift is None or sum(shift) < 1:
        return None
    n = d.ctx.n
    last = chain[-1].monomial_exponents()
    coeffs = []
    for j in range(n):
        image = d.images[j]
        if image.is_zero() or (last[j] == 0 and shift[j] == 0):
            coeffs.append(0)  # x_j never contributes along the chain
            continue
        if not image.is_monomial():
            return None
        image_exps = image.monomial_exponents()
        image_shift = tuple(
            e - (1 if t == j else 0) for t, e in enumerate(image_exps)
        )
        if image_shift != shift:
            return None
        coeffs.append(next(iter(image.terms.values())))
    factor = sum(c * e for c, e in zip(coeffs, last))
    step = sum(c * e for c, e in zip(coeffs, shift))
    if factor == 0:
        return None  # next iterate vanishes: the orbit is finite
    if step != 0:
        root = -Fraction(factor) / step
        if root.denominator == 1 and root >= 0:
            return None  # the factor hits zero at a future iterate
    return shift


def local_finiteness_probe(d: GeneralDerivation, bound: int) -> FinitenessVerdict:
    """Probe local finiteness of d by iterating it on each variable.

    Builds the chain x_i, d(x_i), ..., up to `bound` entries, tracking the
    exact dimension of its span.  If every chain stabilizes, the iterate
    prefixes are D-stable spanning sets and d is certified locally finite.
    Otherwise a non-stabilizing chain of single monomials with a constant
    positive-degree exponent shift certifies the opposite; failing both, the
    probe is inconclusive at this bound.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    spans: list[tuple[LaurentPoly, ...]] = []
    pending: list[tuple[int, list[LaurentPoly]]] = []
    for i in range(d.ctx.n):
        chain = [LaurentPoly.variable(d.ctx, i)]
        space = _RowSpace()
        space.add(chain[0])
        stabilized = False
        while len(chain) < bound:
            nxt = d.apply(chain[-1])
            chain.append(nxt)
            if not space.add(nxt):
                stabilized = True
                break
        if stabilized:
            spans.append(tuple(chain[:-1]))
        else:
            pending.append((i, chain))
    if not pending:
        return LocallyFinite(tuple(spans))
    for i, chain in pending:
        shift = _certify_unbounded(d, chain)
        if shift is not None:
            return NotLocallyFinite(i, tuple(chain), shift)
    return Inconclusive(bound)
