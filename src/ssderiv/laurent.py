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
from math import gcd, lcm
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


# Coefficient form.  A polynomial stores integer numerators over one common
# denominator: a dict from exponent tuple to a nonzero `int`, and an `int`
# denominator >= 1 that has no factor > 1 in common with all of them (the
# content and primitive-part form of computer algebra).  Every rational
# polynomial thus has one stored form, a polynomial with integer coefficients
# has denominator 1, and the ring operations are integer arithmetic plus at
# most one gcd over the numerators to reduce the result.  `LaurentPoly.terms`
# shows each coefficient as one exact rational: a plain `int` when it is
# integral, otherwise a `fractions.Fraction` with denominator > 1.  Nothing
# here divides with `/` or `** -k`, which give floats on ints.


def _accumulate(acc: dict, terms, scale: int = 1) -> None:
    """Add `scale` times each (exponents, numerator) pair of `terms` into
    `acc`, in place, dropping keys whose numerators cancel.

    `acc` must be a dict the caller owns, never the numerators of a
    polynomial, and it and `terms` must be over the same denominator;
    `scale` must be a nonzero `int`.  This is the package's one term-merge
    loop: `+`, `*`, `substitute`, the parser and `LaurentPoly.sum` run
    through it.  Code outside this module reaches it only through
    `LaurentPoly.sum` and the ring operations; the finiteness probe's
    Gaussian reduction, for one, eliminates with `+`.
    """
    get = acc.get
    for key, coeff in terms:
        if scale != 1:
            coeff *= scale
        old = get(key)
        if old is not None:
            coeff += old
            if not coeff:
                del acc[key]
                continue
        acc[key] = coeff


def _widen(acc: dict, common: int, den: int) -> tuple[int, int]:
    """Put the numerators of `acc`, which are over `common`, over
    lcm(common, den), in place.  Returns that lcm and the factor that puts a
    numerator over `den` over it.  Callers skip the call when den == common."""
    wide = lcm(common, den)
    if wide != common:
        factor = wide // common
        for key in acc:
            acc[key] *= factor
    return wide, wide // den


def _lowest(num: dict, den: int) -> tuple[dict, int]:
    """The numerators `num` and the denominator `den` > 1, with their
    greatest common factor divided out.  Callers skip the call when den == 1."""
    g = gcd(den, *num.values())
    if g == 1:
        return num, den
    return {e: c // g for e, c in num.items()}, den // g


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

    Storage, in the coefficient form described above: `_num` maps each
    exponent tuple, exactly ctx.n `int`s, to a nonzero `int` numerator, and
    `_den` is their common denominator, an `int` >= 1 with
    gcd(_den, every numerator) == 1; the zero polynomial is ({}, 1).  Each
    value has one stored form, which `==` and `hash` compare.  Nothing is
    mutated after construction; all operations return fresh values, so
    sharing across threads is safe.

    The public constructor takes any `int` or `Fraction` coefficients and
    integer exponents, and raises TypeError for anything else, floats
    included.  `_trusted` wraps a numerator dict and a denominator as they
    are, after dividing out their common factor, and is for this module
    only: its callers hand over nonzero `int` numerators, in a dict nothing
    else holds.  Other modules build results with the public constructor,
    the ring operations, `sum`, `split`, `scale_by` and `divide_by`, and read
    coefficients through `terms`.
    """

    __slots__ = ("ctx", "_num", "_den", "_view")

    def __init__(self, ctx: RingCtx, terms: Mapping[Sequence[int], Fraction | int] | None = None):
        num: dict[tuple[int, ...], int] = {}
        den = 1
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
                    scale = 1
                    if coeff.denominator != den:
                        den, scale = _widen(num, den, coeff.denominator)
                    num[key] = coeff.numerator * scale
        if den != 1:  # a value given for a key twice may have widened den
            num, den = _lowest(num, den)
        self.ctx = ctx
        self._num = num
        self._den = den
        self._view = None

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction | int]:
        """The coefficients as exact rationals: a plain `int` where the value
        is integral, otherwise a `Fraction` with denominator > 1.  Over
        denominator 1 this is the numerator dict itself; otherwise it is
        built on the first read and kept.  Callers must not mutate it."""
        den = self._den
        if den == 1:
            return self._num
        view = self._view
        if view is None:
            view = self._view = {
                e: c // den if c % den == 0 else Fraction(c, den) for e, c in self._num.items()
            }
        return view

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def _trusted(cls, ctx: RingCtx, num: dict[tuple[int, ...], int], den: int = 1) -> "LaurentPoly":
        """`num` over `den`, reduced, without validation; see the class docstring."""
        if den != 1:
            num, den = _lowest(num, den)
        poly = object.__new__(cls)
        poly.ctx = ctx
        poly._num = num
        poly._den = den
        poly._view = None
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
        return not self._num

    def is_constant(self) -> bool:
        return all(not any(e) for e in self._num)

    def is_monomial(self) -> bool:
        return len(self._num) == 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return Fraction(next(iter(self._num.values()), 0), self._den)

    def monomial_exponents(self) -> tuple[int, ...]:
        if not self.is_monomial():
            raise ValueError("not a monomial")
        return next(iter(self._num))

    # ------------------------------------------------------------------
    # ring operations

    def _require_same_ctx(self, other: "LaurentPoly") -> None:
        if self.ctx != other.ctx:
            raise ValueError("context mismatch")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._require_same_ctx(other)
        terms = dict(self._num)
        den, scale = self._den, 1
        if other._den != den:
            den, scale = _widen(terms, den, other._den)
        _accumulate(terms, other._num.items(), scale)
        return LaurentPoly._trusted(self.ctx, terms, den)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted(self.ctx, {e: -c for e, c in self._num.items()}, self._den)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            self._require_same_ctx(other)
            terms: dict[tuple[int, ...], int] = {}
            rhs = other._num.items()
            for e1, c1 in self._num.items():
                _accumulate(terms, ((tuple(map(add, e1, e2)), c2) for e2, c2 in rhs), c1)
            return LaurentPoly._trusted(self.ctx, terms, self._den * other._den)
        if isinstance(other, (int, Fraction)):
            if not other:
                return LaurentPoly.zero(self.ctx)
            scalar = other.numerator
            return LaurentPoly._trusted(
                self.ctx,
                {e: c * scalar for e, c in self._num.items()},
                self._den * other.denominator,
            )
        return NotImplemented

    def __rmul__(self, other) -> "LaurentPoly":
        return self.__mul__(other)

    def __pow__(self, power: int) -> "LaurentPoly":
        if not isinstance(power, int):
            raise TypeError("polynomial powers must be integers")
        if self.is_monomial():
            # units: (n/d)*x^a -> (n/d)^m * x^(m*a) for every integer m; a
            # negative m raises the reciprocal, its sign on the numerator
            ((exps, num),) = self._num.items()
            den, k = self._den, power
            if k < 0:
                num, den, k = (den, num, -k) if num > 0 else (-den, -num, -k)
            return LaurentPoly._trusted(self.ctx, {tuple(e * power for e in exps): num**k}, den**k)
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
        terms: dict[tuple[int, ...], int] = {}
        den = 1
        for p in polys:
            if p.ctx != ctx:
                raise ValueError("context mismatch")
            if terms:
                scale = 1
                if p._den != den:
                    den, scale = _widen(terms, den, p._den)
                _accumulate(terms, p._num.items(), scale)
            else:  # the sum so far is zero
                terms = dict(p._num)
                den = p._den
        return cls._trusted(ctx, terms, den)

    def split(self, key: Callable[[tuple[int, ...]], Hashable]) -> dict[Hashable, "LaurentPoly"]:
        """Group the terms by `key(exps)`: maps each value that occurs to the
        (nonzero) part of self whose terms give it; the parts sum to self."""
        parts: dict = {}
        for exps, coeff in self._num.items():
            parts.setdefault(key(exps), {})[exps] = coeff
        return {k: LaurentPoly._trusted(self.ctx, terms, self._den) for k, terms in parts.items()}

    def scale_by(self, factor: Callable[[tuple[int, ...]], int]) -> "LaurentPoly":
        """Each term c*x^a times the integer factor(a); terms with factor 0 vanish."""
        return LaurentPoly._trusted(
            self.ctx, {e: c * f for e, c in self._num.items() if (f := factor(e))}, self._den
        )

    def divide_by(self, divisor: Callable[[tuple[int, ...]], int]) -> "LaurentPoly":
        """Each term c*x^a divided by the integer divisor(a), exactly: the
        numerators go over the lcm of the divisors.  Raises
        ZeroDivisionError when some divisor(a) is 0."""
        divisors = [divisor(e) for e in self._num]
        common = lcm(*divisors)
        if not common:
            raise ZeroDivisionError("division of a term by zero")
        terms = {e: c * (common // d) for (e, c), d in zip(self._num.items(), divisors)}
        return LaurentPoly._trusted(self.ctx, terms, self._den * common)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.ctx == other.ctx and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self.ctx, self._den, frozenset(self._num.items())))

    # ------------------------------------------------------------------
    # calculus and substitution

    def partial(self, i: int) -> "LaurentPoly":
        """Formal partial derivative: x_i^m -> m * x_i^(m-1) for every integer m."""
        _check_index(self.ctx, i)
        terms = {}
        for exps, coeff in self._num.items():
            e = exps[i]
            if e == 0:
                continue
            terms[exps[:i] + (e - 1,) + exps[i + 1 :]] = coeff * e
        return LaurentPoly._trusted(self.ctx, terms, self._den)

    def substitute(self, images: Sequence["LaurentPoly"]) -> "LaurentPoly":
        """Ring-homomorphism evaluation x_i -> images[i].

        The images may live in another ring; they must share one context,
        which is that of the result.  Negative powers of x_i require
        images[i] to be a monomial (a unit in the Laurent ring); otherwise
        the result would leave the ring and ValueError("not a unit") is
        raised.

        A single-term image c*x^b (a unit; constants included) never enters
        a polynomial product: x_i^e shifts a term's exponent vector by e*b and
        multiplies its numerator and denominator by those of c^e.  Each power
        of any other image is computed at most once per call, and only the
        product of those powers is merged into the result, shifted and
        scaled.  The result's numerators are kept over the lcm of the terms'
        denominators so far.
        """
        if len(images) != self.ctx.n:
            raise ValueError(f"expected {self.ctx.n} images, got {len(images)}")
        target = images[0].ctx
        for img in images:
            if img.ctx != target:
                raise ValueError("context mismatch")
        # per variable: the nonzero (position, b_j) of a unit image (n/d)*x^b
        # with n and d, or the powers computed so far of any other image
        units: list[tuple[list[tuple[int, int]], int, int] | None] = []
        powers: list[dict[int, LaurentPoly] | None] = []
        for img in images:
            if len(img._num) == 1:
                ((b, c),) = img._num.items()
                units.append(([(j, bj) for j, bj in enumerate(b) if bj], c, img._den))
                powers.append(None)
            else:
                units.append(None)
                powers.append({1: img})
        total: dict[tuple[int, ...], int] = {}
        common = 1  # the denominator of total
        for exps, num in self._num.items():
            den = 1
            shift = [0] * target.n
            product = None
            for i, e in enumerate(exps):
                if not e:
                    continue
                unit = units[i]
                if unit is not None:
                    b, c, d = unit
                    for j, bj in b:
                        shift[j] += e * bj
                    if e < 0:  # (c/d)^e == (d/c)^-e
                        c, d = d, c
                    if c != 1:
                        num *= c ** abs(e)
                    if d != 1:
                        den *= d ** abs(e)
                    continue
                cache = powers[i]
                power = cache.get(e)
                if power is None:
                    power = cache[e] = images[i] ** e
                product = power if product is None else product * power
            if product is not None:
                den *= product._den
            if den != common:
                if den < 0:
                    num, den = -num, -den
                common, scale = _widen(total, common, den)
                num *= scale
            key = tuple(shift)
            if product is None:
                _accumulate(total, ((key, num),))
            elif any(shift):
                _accumulate(
                    total, ((tuple(map(add, a, key)), c) for a, c in product._num.items()), num
                )
            else:
                _accumulate(total, product._num.items(), num)
        return LaurentPoly._trusted(target, total, common * self._den)

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
        if not self._num:
            return "0"
        names = self.ctx.names
        tables = None
        if len(self._num) >= _TABLE_MIN_TERMS:
            tables = [_FactorText({0: "", 1: name}) for name in names]
        common = self._den
        out = []
        for exps, num in sorted(self._num.items(), reverse=True):
            den = common
            if den != 1:  # num/den in lowest terms
                g = gcd(num, den)
                if g != 1:
                    num //= g
                    den //= g
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
        total: dict[tuple[int, ...], int] = {}
        common = 1  # the denominator of total
        negate = self.tokens[self.pos] == "-"
        if negate:
            self.pos += 1
        while True:
            common = self.term(total, common, negate)
            token = self.tokens[self.pos]
            if token != "+" and token != "-":
                return LaurentPoly._trusted(self.ctx, total, common)
            negate = token == "-"
            self.pos += 1

    def term(self, total: dict, common: int, negate: bool) -> int:
        """Parse one product and add it, negated if asked, into the
        numerators `total` over `common`; returns their new denominator."""
        tokens = self.tokens
        exps = [0] * self.ctx.n
        num = den = 1  # the scalar coefficient num/den
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
            return common
        if negate:
            num = -num
        if poly is not None:
            den *= poly._den
        if den != common:
            common, scale = _widen(total, common, den)
            num *= scale
        key = tuple(exps)
        if poly is None:
            _accumulate(total, ((key, num),))
        else:
            _accumulate(total, ((tuple(map(add, e, key)), c) for e, c in poly._num.items()), num)
        return common

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
