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
from operator import add
from typing import Iterator, Mapping, Sequence

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


def _accumulate(acc: dict, terms, scale=None) -> None:
    """Add `scale` times each (exponents, coefficient) pair of `terms` into
    `acc`, in place, dropping keys whose coefficients cancel.

    `acc` must be a dict the caller owns, never the `terms` of a
    polynomial; `scale`, when given, must be nonzero.  This is the package's
    one term-merge loop: sums, products, substitution, the parser and
    Gaussian reduction all run through it.
    """
    get = acc.get
    for key, coeff in terms:
        if scale is not None:
            coeff = coeff * scale
        old = get(key)
        if old is None:
            acc[key] = coeff
        else:
            coeff = old + coeff
            if coeff:
                acc[key] = coeff
            else:
                del acc[key]


class LaurentPoly:
    """Immutable sparse Laurent polynomial.

    Invariant of `terms`: every key is a tuple of exactly ctx.n `int`
    exponents, every value is a nonzero `Fraction`, and the zero polynomial
    has an empty map.  The dict is never mutated after construction; all
    operations return fresh values, so sharing across threads is safe.

    The public constructor establishes the invariant from arbitrary input.
    `_trusted` wraps a dict as it is and is for internal results only: its
    callers must uphold the invariant and hand over a dict nothing else
    holds.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: RingCtx, terms: Mapping[Sequence[int], Fraction | int] | None = None):
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                key = tuple(int(e) for e in exps)
                if len(key) != ctx.n:
                    raise ValueError(
                        f"exponent vector of length {len(key)} in a ring with {ctx.n} variables"
                    )
                value = Fraction(coeff)
                if value:
                    clean[key] = value
        self.ctx = ctx
        self.terms = clean

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def _trusted(cls, ctx: RingCtx, terms: dict[tuple[int, ...], Fraction]) -> "LaurentPoly":
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
        return cls(ctx, {(0,) * ctx.n: Fraction(value)})

    @classmethod
    def variable(cls, ctx: RingCtx, which: int | str) -> "LaurentPoly":
        i = ctx.index(which) if isinstance(which, str) else _check_index(ctx, which)
        exps = tuple(1 if j == i else 0 for j in range(ctx.n))
        return cls._trusted(ctx, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, ctx: RingCtx, exps: Sequence[int], coeff=1) -> "LaurentPoly":
        return cls(ctx, {tuple(exps): Fraction(coeff)})

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
        return next(iter(self.terms.values()), Fraction(0))

    def monomial_exponents(self) -> tuple[int, ...]:
        if not self.is_monomial():
            raise ValueError("not a monomial")
        return next(iter(self.terms))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in canonical order: descending lexicographic exponent vectors."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        return iter(self.sorted_terms())

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
            terms: dict[tuple[int, ...], Fraction] = {}
            rhs = other.terms.items()
            for e1, c1 in self.terms.items():
                _accumulate(terms, ((tuple(map(add, e1, e2)), c2) for e2, c2 in rhs), c1)
            return LaurentPoly._trusted(self.ctx, terms)
        if isinstance(other, (int, Fraction)):
            scalar = Fraction(other)
            if not scalar:
                return LaurentPoly.zero(self.ctx)
            return LaurentPoly._trusted(self.ctx, {e: c * scalar for e, c in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other) -> "LaurentPoly":
        return self.__mul__(other)

    def __pow__(self, power: int) -> "LaurentPoly":
        if not isinstance(power, int):
            raise TypeError("polynomial powers must be integers")
        if self.is_monomial():
            # units: c*x^a -> c^m * x^(m*a) for every integer m
            exps, coeff = next(iter(self.terms.items()))
            return LaurentPoly._trusted(self.ctx, {tuple(e * power for e in exps): coeff**power})
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
            terms[key] = coeff * e
        return LaurentPoly._trusted(self.ctx, terms)

    def substitute(self, images: Sequence["LaurentPoly"]) -> "LaurentPoly":
        """Ring-homomorphism evaluation x_i -> images[i].

        Negative powers of x_i require images[i] to be a monomial (a unit in
        the Laurent ring); otherwise the result would leave the ring.
        """
        if len(images) != self.ctx.n:
            raise ValueError(f"expected {self.ctx.n} images, got {len(images)}")
        target = images[0].ctx
        for img in images:
            if img.ctx != target:
                raise ValueError("context mismatch")
        total: dict[tuple[int, ...], Fraction] = {}
        one = ((0,) * target.n, Fraction(1))
        for exps, coeff in self.terms.items():
            term = None
            for img, e in zip(images, exps):
                if e:
                    term = img**e if term is None else term * img**e
            _accumulate(total, [one] if term is None else term.terms.items(), coeff)
        return LaurentPoly._trusted(target, total)

    # ------------------------------------------------------------------
    # printing

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        rendered = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.ctx.names, exps):
                if e == 1:
                    factors.append(name)
                elif e != 0:
                    factors.append(f"{name}^{e}")
            magnitude = abs(coeff)
            if not factors:
                body = str(magnitude)
            elif magnitude == 1:
                body = "*".join(factors)
            else:
                body = str(magnitude) + "*" + "*".join(factors)
            rendered.append(("-" if coeff < 0 else "+", body))
        sign, body = rendered[0]
        out = ("-" + body) if sign == "-" else body
        for sign, body in rendered[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


# ----------------------------------------------------------------------
# parsing
#
#   expr   := ['-'] term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := base ('^' signed_int)?
#   base   := rational | variable | '(' expr ')'
#   rational := int ('/' posint)?


@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "name", one of "+-*/^()", or "end"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col, i = 1, 1, 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "end of input", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, ctx: RingCtx):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ctx = ctx

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    @staticmethod
    def fail(message: str, token: _Token) -> None:
        raise ParseError(message, token.line, token.col)

    def run(self) -> LaurentPoly:
        poly = self.expr()
        token = self.peek()
        if token.kind != "end":
            self.fail(f"unexpected {token.text!r}", token)
        return poly

    def expr(self) -> LaurentPoly:
        total: dict[tuple[int, ...], Fraction] = {}
        sign = None
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        while True:
            _accumulate(total, self.term().terms.items(), sign)
            if self.peek().kind not in ("+", "-"):
                return LaurentPoly._trusted(self.ctx, total)
            sign = -1 if self.advance().kind == "-" else None

    def term(self) -> LaurentPoly:
        poly = self.factor()
        while self.peek().kind == "*":
            self.advance()
            poly = poly * self.factor()
        return poly

    def factor(self) -> LaurentPoly:
        poly = self.base()
        if self.peek().kind == "^":
            self.advance()
            poly = poly ** self.signed_int()
        return poly

    def base(self) -> LaurentPoly:
        token = self.advance()
        if token.kind == "int":
            numerator = int(token.text)
            if self.peek().kind == "/":
                self.advance()
                den_token = self.advance()
                if den_token.kind != "int":
                    self.fail("expected an integer denominator", den_token)
                denominator = int(den_token.text)
                if denominator == 0:
                    self.fail("denominator must be positive", den_token)
                return LaurentPoly.constant(self.ctx, Fraction(numerator, denominator))
            return LaurentPoly.constant(self.ctx, numerator)
        if token.kind == "name":
            if token.text not in self.ctx.names:
                self.fail(f"unknown variable '{token.text}'", token)
            return LaurentPoly.variable(self.ctx, token.text)
        if token.kind == "(":
            poly = self.expr()
            closing = self.advance()
            if closing.kind != ")":
                self.fail("expected ')'", closing)
            return poly
        self.fail(f"expected a number, a variable or '(' but found {token.text!r}", token)
        raise AssertionError("unreachable")

    def signed_int(self) -> int:
        sign = 1
        token = self.advance()
        if token.kind in ("+", "-"):
            sign = -1 if token.kind == "-" else 1
            token = self.advance()
        if token.kind != "int":
            self.fail(f"expected an integer exponent but found {token.text!r}", token)
        return sign * int(token.text)


def parse(text: str, ctx: RingCtx) -> LaurentPoly:
    """Parse an ASCII expression, e.g. "3*x^2*y^-1 - 1/2", over ctx."""
    return _Parser(text, ctx).run()
