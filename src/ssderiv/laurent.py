"""Sparse Laurent polynomials over Q with a parser and a canonical printer.

A polynomial is a finite map from integer exponent vectors to nonzero rational
coefficients, so negative exponents (localized monomials) are first-class.
The canonical term order is descending lexicographic on the exponent vector in
declared variable order; `parse(str(p)) == p` for every polynomial p.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import add, getitem, index
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .numtheory import decimal_to_int, int_to_decimal

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


class ParseError(ValueError):
    """Syntax or name error in an expression, with line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class RingCtx:
    """Ordered variable context of a Laurent polynomial ring over Q."""

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not names:
            raise ValueError("a ring context needs at least one variable")
        for name in names:
            if not _IDENT_RE.match(name):
                raise ValueError(f"invalid variable name {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable '{name}'") from None

    def __str__(self) -> str:
        return "Q[" + ", ".join(f"{v}^+-1" for v in self.names) + "]"


def _check_index(ctx: RingCtx, i: int) -> int:
    if not 0 <= i < ctx.n:
        raise ValueError(f"variable index {i} out of range for {ctx.n} variables")
    return i


def _canon(q: Fraction | int) -> Fraction | int:
    """The canonical form of an exact rational: an `int` when q is integral,
    else q itself, a `Fraction` with denominator > 1."""
    return q.numerator if q.denominator == 1 else q


def _accumulate(acc: dict, terms, scale=None) -> None:
    """Add `scale` times each (exponents, coefficient) pair of `terms` into
    `acc`, in place, dropping keys whose coefficients cancel.

    `acc` must be a dict the caller owns, never the `terms` of a
    polynomial; `scale`, when given, must be nonzero.  The coefficients of
    `terms` and `scale` must be canonical (see `_canon`); the results are
    too, and a sum or product of two `int`s never touches `fractions`.
    This is the package's one term-merge loop: `+`, `*`, `substitute`, the
    parser and `LaurentPoly.sum` run through it.  Code outside this module
    reaches it only through `LaurentPoly.sum` and the ring operations; the
    finiteness probe's Gaussian reduction, for one, eliminates with `+`.
    """
    get = acc.get
    for key, coeff in terms:
        if scale is not None:
            coeff = coeff * scale
        old = get(key)
        if old is not None:
            coeff = old + coeff
            if not coeff:
                del acc[key]
                continue
        acc[key] = coeff if type(coeff) is int else _canon(coeff)


class _FactorText(dict):
    """Exponent -> printed factor of one variable, "" for exponent 0, each
    text built the first time its exponent is looked up.  Created as
    `_FactorText({0: "", 1: name})`, so self[1] is the variable's name.  One
    table lives for one `__str__` call."""

    __slots__ = ()

    def __missing__(self, e: int) -> str:
        text = self[e] = f"{self[1]}^{int_to_decimal(e)}"
        return text


# Per-call factor tables pay for themselves only once exponents repeat.  In
# the `algebra` benchmark, where almost every printed polynomial has fewer
# than 24 terms or at least 64, they raise jobs/s by ~6%.  Built for every
# call, they make the small polynomials of `monoid` and `cli`, mostly kernel
# monomials, print about 2x slower.  Smaller polynomials are formatted
# factor by factor.
_TABLE_MIN_TERMS = 32


class LaurentPoly:
    """Immutable sparse Laurent polynomial.

    Invariant of `terms`: every key is a tuple of exactly ctx.n `int`
    exponents, every value is a nonzero exact rational in canonical form (a
    plain `int` when it is integral, otherwise a `Fraction` with denominator
    > 1, so each value has one representation), and the zero polynomial has
    an empty map.  The dict is never mutated after construction; all
    operations return fresh values, so sharing across threads is safe.

    The public constructor establishes the invariant from any `int` or
    `Fraction` coefficients and integer exponents, and raises TypeError for
    anything else, floats included.  `_trusted` wraps a dict as it is and is
    for this module only: its callers must uphold the invariant, normalising
    with `_canon` any value that came out of `Fraction` arithmetic, and hand
    over a dict nothing else holds.  A division must go through `Fraction`:
    `int / int` and `int ** -k` give floats.  Other modules build results
    with the public constructor, the ring operations, `sum`, `split`,
    `scale_by` and `divide_by`.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: RingCtx, terms: Mapping[Sequence[int], Fraction | int] | None = None):
        clean: dict[tuple[int, ...], Fraction | int] = {}
        if terms:
            for exps, coeff in terms.items():
                key = tuple(map(index, exps))
                if len(key) != ctx.n:
                    raise ValueError(
                        f"exponent vector of length {len(key)} in a ring with {ctx.n} variables"
                    )
                if not isinstance(coeff, (int, Fraction)):
                    raise TypeError(
                        f"coefficients must be int or Fraction, not {type(coeff).__name__}"
                    )
                if coeff:
                    clean[key] = _canon(coeff)
        self.ctx = ctx
        self.terms = clean

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def _trusted(cls, ctx: RingCtx, terms: dict[tuple[int, ...], Fraction | int]) -> "LaurentPoly":
        """Wrap `terms` without validation; see the class docstring."""
        poly = object.__new__(cls)
        poly.ctx = ctx
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls, ctx: RingCtx) -> "LaurentPoly":
        return cls(ctx)

    @classmethod
    def constant(cls, ctx: RingCtx, value) -> "LaurentPoly":
        return cls(ctx, {(0,) * ctx.n: value})

    @classmethod
    def variable(cls, ctx: RingCtx, which: int | str) -> "LaurentPoly":
        i = ctx.index(which) if isinstance(which, str) else _check_index(ctx, which)
        exps = tuple(1 if j == i else 0 for j in range(ctx.n))
        return cls._trusted(ctx, {exps: 1})

    @classmethod
    def monomial(cls, ctx: RingCtx, exps: Sequence[int], coeff=1) -> "LaurentPoly":
        return cls(ctx, {tuple(exps): coeff})

    # ------------------------------------------------------------------
    # structure queries

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return Fraction(next(iter(self.terms.values()), 0))

    def monomial_exponents(self) -> tuple[int, ...]:
        if not self.is_monomial():
            raise ValueError("not a monomial")
        return next(iter(self.terms))

    # ------------------------------------------------------------------
    # ring operations

    def _require_same_ctx(self, other: "LaurentPoly") -> None:
        if self.ctx != other.ctx:
            raise ValueError("context mismatch")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._require_same_ctx(other)
        terms = dict(self.terms)
        _accumulate(terms, other.terms.items())
        return LaurentPoly._trusted(self.ctx, terms)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            self._require_same_ctx(other)
            terms: dict[tuple[int, ...], Fraction | int] = {}
            rhs = other.terms.items()
            for e1, c1 in self.terms.items():
                _accumulate(terms, ((tuple(map(add, e1, e2)), c2) for e2, c2 in rhs), c1)
            return LaurentPoly._trusted(self.ctx, terms)
        if isinstance(other, (int, Fraction)):
            if not other:
                return LaurentPoly.zero(self.ctx)
            scalar = _canon(other)
            return LaurentPoly._trusted(
                self.ctx, {e: _canon(c * scalar) for e, c in self.terms.items()}
            )
        return NotImplemented

    def __rmul__(self, other) -> "LaurentPoly":
        return self.__mul__(other)

    def __pow__(self, power: int) -> "LaurentPoly":
        if not isinstance(power, int):
            raise TypeError("polynomial powers must be integers")
        if self.is_monomial():
            # units: c*x^a -> c^m * x^(m*a) for every integer m; a negative
            # m divides, so it goes through Fraction (int ** -m is a float)
            exps, coeff = next(iter(self.terms.items()))
            if power < 0:
                coeff = Fraction(coeff)
            return LaurentPoly._trusted(
                self.ctx, {tuple(e * power for e in exps): _canon(coeff**power)}
            )
        if power < 0:
            raise ValueError("not a unit")
        result = LaurentPoly.constant(self.ctx, 1)
        base = self
        m = power
        while m:
            if m & 1:
                result = result * base
            m >>= 1
            if m:
                base = base * base
        return result

    @classmethod
    def sum(cls, ctx: RingCtx, polys: Iterable["LaurentPoly"]) -> "LaurentPoly":
        """The sum of `polys`, all over ctx, in time linear in their terms."""
        terms: dict[tuple[int, ...], Fraction | int] = {}
        for p in polys:
            if p.ctx != ctx:
                raise ValueError("context mismatch")
            if terms:
                _accumulate(terms, p.terms.items())
            else:  # the sum so far is zero
                terms = dict(p.terms)
        return cls._trusted(ctx, terms)

    def split(self, key: Callable[[tuple[int, ...]], Hashable]) -> dict[Hashable, "LaurentPoly"]:
        """Group the terms by `key(exps)`: maps each value that occurs to the
        (nonzero) part of self whose terms give it; the parts sum to self."""
        parts: dict = {}
        for exps, coeff in self.terms.items():
            parts.setdefault(key(exps), {})[exps] = coeff
        return {k: LaurentPoly._trusted(self.ctx, terms) for k, terms in parts.items()}

    def scale_by(self, factor: Callable[[tuple[int, ...]], int]) -> "LaurentPoly":
        """Each term c*x^a times the integer factor(a); terms with factor 0 vanish."""
        return LaurentPoly._trusted(
            self.ctx, {e: _canon(c * f) for e, c in self.terms.items() if (f := factor(e))}
        )

    def divide_by(self, divisor: Callable[[tuple[int, ...]], int]) -> "LaurentPoly":
        """Each term c*x^a divided by the integer divisor(a), one exact
        division per term; an `int` coefficient stays an `int` when the
        division leaves no remainder.  Raises ZeroDivisionError when some
        divisor(a) is 0."""
        terms = {}
        for e, c in self.terms.items():
            d = divisor(e)
            if type(c) is int:
                terms[e] = Fraction(c, d) if c % d else c // d
            else:
                terms[e] = _canon(c / d)
        return LaurentPoly._trusted(self.ctx, terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ctx, frozenset(self.terms.items())))

    # ------------------------------------------------------------------
    # calculus and substitution

    def partial(self, i: int) -> "LaurentPoly":
        """Formal partial derivative: x_i^m -> m * x_i^(m-1) for every integer m."""
        _check_index(self.ctx, i)
        terms = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            key = exps[:i] + (e - 1,) + exps[i + 1 :]
            terms[key] = _canon(coeff * e)
        return LaurentPoly._trusted(self.ctx, terms)

    def substitute(self, images: Sequence["LaurentPoly"]) -> "LaurentPoly":
        """Ring-homomorphism evaluation x_i -> images[i].

        The images may live in another ring; they must share one context,
        which is that of the result.  Negative powers of x_i require
        images[i] to be a monomial (a unit in the Laurent ring); otherwise
        the result would leave the ring and ValueError("not a unit") is
        raised.

        A single-term image c*x^b (a unit; constants included) never enters
        a polynomial product: x_i^e shifts a term's exponent vector by e*b and
        multiplies its coefficient by c^e.  Each power of any other image is
        computed at most once per call, and only the product of those powers
        is merged into the result, shifted and scaled.
        """
        if len(images) != self.ctx.n:
            raise ValueError(f"expected {self.ctx.n} images, got {len(images)}")
        target = images[0].ctx
        for img in images:
            if img.ctx != target:
                raise ValueError("context mismatch")
        # per variable: the nonzero (position, b_j) of a unit image c*x^b and
        # its c, or the powers computed so far of any other image
        units: list[tuple[list[tuple[int, int]], Fraction | int] | None] = []
        powers: list[dict[int, LaurentPoly] | None] = []
        for img in images:
            if len(img.terms) == 1:
                ((b, c),) = img.terms.items()
                units.append(([(j, bj) for j, bj in enumerate(b) if bj], c))
                powers.append(None)
            else:
                units.append(None)
                powers.append({1: img})
        total: dict[tuple[int, ...], Fraction | int] = {}
        for exps, coeff in self.terms.items():
            shift = [0] * target.n
            product = None
            for i, e in enumerate(exps):
                if not e:
                    continue
                unit = units[i]
                if unit is not None:
                    b, c = unit
                    for j, bj in b:
                        shift[j] += e * bj
                    if c != 1:
                        # a negative power divides: int ** -e is a float
                        coeff = coeff * (c**e if e > 0 else Fraction(c) ** e)
                    continue
                cache = powers[i]
                power = cache.get(e)
                if power is None:
                    power = cache[e] = images[i] ** e
                product = power if product is None else product * power
            if type(coeff) is not int:
                coeff = _canon(coeff)
            key = tuple(shift)
            if product is None:
                _accumulate(total, ((key, coeff),))
            elif any(shift):
                _accumulate(
                    total, ((tuple(map(add, a, key)), c) for a, c in product.terms.items()), coeff
                )
            else:
                _accumulate(total, product.terms.items(), coeff)
        return LaurentPoly._trusted(target, total)

    # ------------------------------------------------------------------
    # printing

    def __str__(self) -> str:
        """Canonical text: terms in descending lexicographic exponent order,
        each as a sign, a coefficient (omitted when it is 1 before a
        variable) and `*`-joined factors `x`, `x^3`, `x^-2`; "0" for zero.

        In a polynomial of at least _TABLE_MIN_TERMS terms, each factor text
        is built once per call and variable, through a `_FactorText` table.
        Integers of any length are printed exactly.
        """
        if not self.terms:
            return "0"
        names = self.ctx.names
        tables = None
        if len(self.terms) >= _TABLE_MIN_TERMS:
            tables = [_FactorText({0: "", 1: name}) for name in names]
        out = []
        for exps, coeff in sorted(self.terms.items(), reverse=True):
            if type(coeff) is int:
                num, den = coeff, 1
            else:
                num, den = coeff.numerator, coeff.denominator
            if num < 0:
                out.append(" - " if out else "-")
                num = -num
            elif out:
                out.append(" + ")
            if tables is None:
                factors = "*".join(
                    [n if e == 1 else f"{n}^{int_to_decimal(e)}" for n, e in zip(names, exps) if e]
                )
            else:
                factors = "*".join(filter(None, map(getitem, tables, exps)))
            if den == 1:
                if num == 1 and factors:
                    out.append(factors)
                    continue
                out.append(int_to_decimal(num))
            else:
                out.append(f"{int_to_decimal(num)}/{int_to_decimal(den)}")
            if factors:
                out.append("*" + factors)
        return "".join(out)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


# ----------------------------------------------------------------------
# parsing
#
#   expr     := ['-'] term (('+'|'-') term)*
#   term     := factor ('*' factor)*
#   factor   := base ('^' signed_int)?
#   base     := rational | variable | '(' expr ')'
#   rational := int ('/' posint)?
#
# Input is ASCII: an int is [0-9]+, a variable [A-Za-z_][A-Za-z_0-9]*, and
# any other character that is not whitespace is an error.  Parentheses nest
# at most MAX_NESTING levels deep.  A term is built as one exponent vector
# and one coefficient; only a parenthesised factor uses polynomial * and **.

MAX_NESTING = 200

_TOKEN_RE = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z_0-9]*|[-+*/^()]")
_BAD_CHAR_RE = re.compile(r"[^0-9A-Za-z_+\-*/^()\s]")


def _fail(message: str, text: str, offset: int) -> None:
    line = text.count("\n", 0, offset) + 1
    raise ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _shown(token: str) -> str:
    return repr(token or "end of input")


class _Parser:
    """Recursive descent over the token strings; "" marks the end.  A
    token's offset is found again by rescanning, only to report an error."""

    def __init__(self, text: str, ctx: RingCtx):
        bad = _BAD_CHAR_RE.search(text)
        if bad:
            _fail(f"unexpected character {bad.group()!r}", text, bad.start())
        self.text = text
        self.tokens = _TOKEN_RE.findall(text) + [""]
        self.pos = 0
        self.ctx = ctx
        self.index = {name: i for i, name in enumerate(ctx.names)}
        self.depth = 0

    def fail(self, message: str, at: int) -> None:
        match = next(islice(_TOKEN_RE.finditer(self.text), at, None), None)
        _fail(message, self.text, len(self.text) if match is None else match.start())

    def run(self) -> LaurentPoly:
        poly = self.expr()
        if self.tokens[self.pos]:
            self.fail(f"unexpected {_shown(self.tokens[self.pos])}", self.pos)
        return poly

    def expr(self) -> LaurentPoly:
        total: dict[tuple[int, ...], Fraction | int] = {}
        negate = self.tokens[self.pos] == "-"
        if negate:
            self.pos += 1
        while True:
            self.term(total, negate)
            token = self.tokens[self.pos]
            if token != "+" and token != "-":
                return LaurentPoly._trusted(self.ctx, total)
            negate = token == "-"
            self.pos += 1

    def term(self, total: dict, negate: bool) -> None:
        """Parse one product and add it, negated if asked, into `total`."""
        tokens = self.tokens
        exps = [0] * self.ctx.n
        num = den = 1  # the coefficient, normalised once at the end
        poly = None
        while True:
            token = tokens[self.pos]
            self.pos += 1
            i = self.index.get(token)
            if i is not None:
                exps[i] += self.exponent() if tokens[self.pos] == "^" else 1
            elif token.isdigit():
                p, q = decimal_to_int(token), 1
                if tokens[self.pos] == "/":
                    self.pos += 2
                    if not tokens[self.pos - 1].isdigit():
                        self.fail("expected an integer denominator", self.pos - 1)
                    q = decimal_to_int(tokens[self.pos - 1])
                    if not q:
                        self.fail("denominator must be positive", self.pos - 1)
                if tokens[self.pos] == "^":
                    k = self.exponent()
                    if k < 0:
                        if not p:
                            raise ValueError("not a unit")
                        p, q, k = q, p, -k
                    p, q = p**k, q**k
                num *= p
                den *= q
            elif token == "(":
                self.depth += 1
                if self.depth > MAX_NESTING:
                    self.fail(f"parentheses nested more than {MAX_NESTING} deep", self.pos - 1)
                factor = self.expr()
                self.depth -= 1
                self.pos += 1
                if tokens[self.pos - 1] != ")":
                    self.fail("expected ')'", self.pos - 1)
                if tokens[self.pos] == "^":
                    factor = factor ** self.exponent()
                poly = factor if poly is None else poly * factor
            elif token.isidentifier():
                self.fail(f"unknown variable '{token}'", self.pos - 1)
            else:
                found = _shown(token)
                self.fail(f"expected a number, a variable or '(' but found {found}", self.pos - 1)
            if tokens[self.pos] != "*":
                break
            self.pos += 1
        if not num:
            return
        if negate:
            num = -num
        scale = num if den == 1 else _canon(Fraction(num, den))
        key = tuple(exps)
        if poly is None:
            _accumulate(total, ((key, scale),))
        else:
            _accumulate(total, ((tuple(map(add, e, key)), c) for e, c in poly.terms.items()), scale)

    def exponent(self) -> int:
        """Consume '^' and a signed integer."""
        self.pos += 2
        sign = self.tokens[self.pos - 1]
        if sign == "+" or sign == "-":
            self.pos += 1
        token = self.tokens[self.pos - 1]
        if not token.isdigit():
            self.fail(f"expected an integer exponent but found {_shown(token)}", self.pos - 1)
        k = decimal_to_int(token)
        return -k if sign == "-" else k


def parse(text: str, ctx: RingCtx) -> LaurentPoly:
    """Parse an ASCII expression, e.g. "3*x^2*y^-1 - 1/2", over ctx.

    Raises ParseError, with line and column, for a syntax error, a non-ASCII
    character, an unknown variable or parentheses nested more than
    MAX_NESTING (200) levels deep, and ValueError("not a unit") for a
    negative power of a non-monomial.
    """
    return _Parser(text, ctx).run()
