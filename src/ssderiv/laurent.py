"""Sparse Laurent polynomials over Q with a parser and a canonical printer.

A polynomial is a finite map from integer exponent vectors to nonzero rational
coefficients, so negative exponents (localized monomials) are first-class.
The canonical term order is descending lexicographic on the exponent vector in
declared variable order; `parse(str(p)) == p` for every polynomial p.

`parse` has two paths with one error source.  Text without parentheses, which
includes everything the printer writes, is first read by a fast path of
string splits; on any text it does not fully accept, that path gives up
without raising, and the recursive descent reads the text instead.  The
descent is the only path for parenthesised text and the only source of
ParseError.  The printer keeps, per ring context, a bounded table from
exponent vector to factor text, so a monomial printed before costs one lookup.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import add, index
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
    """Ordered variable context of a Laurent polynomial ring over Q.

    Each instance also carries the printer's factor-text table (see
    `LaurentPoly.__str__`).  It is not a dataclass field, so equality, hash,
    repr and `dataclasses.replace` never see it.
    """

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_factor_text", {})
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


def _rational(num: int, den: int) -> Fraction | int:
    """num/den as `terms` shows it: an `int` when integral, else a `Fraction`."""
    return num // den if num % den == 0 else Fraction(num, den)


# The most entries a ring context's factor-text table takes; a full table
# stops growing and the printer builds the text of any other monomial each
# time.  The largest context of the `algebra` benchmark reaches 1,106.
_FACTOR_TEXT_LIMIT = 4096


class LaurentPoly:
    """Immutable sparse Laurent polynomial.

    Storage, in the coefficient form described above: `_num` maps each
    exponent tuple, exactly ctx.n `int`s, to a nonzero `int` numerator, and
    `_den` is their common denominator, an `int` >= 1 with
    gcd(_den, every numerator) == 1; the zero polynomial is ({}, 1).  Each
    value has one stored form, which `==` and `hash` compare.  Nothing is
    mutated after construction; all operations return fresh values, so
    sharing across threads is safe.  (The printer's table on the ring
    context does grow, one whole entry at a time: threads that print at
    once may both build a text, and may each add one entry past the
    table's bound.)

    The public constructor takes any `int` or `Fraction` coefficients and
    integer exponents, and raises TypeError for anything else, floats
    included.  `_trusted` wraps a numerator dict and a denominator as they
    are, after dividing out their common factor, and is for this module
    only: its callers hand over nonzero `int` numerators, in a dict nothing
    else holds.  Other modules build results with the public constructor,
    `monomial`, the ring operations, `sum`, `split`, `scale_by`, `divide_by`
    and `renamed`, and read
    coefficients through `terms`, `coefficient` and `support`.
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
            view = self._view = {e: _rational(c, den) for e, c in self._num.items()}
        return view

    def coefficient(self, exps: tuple[int, ...]) -> Fraction | int:
        """The coefficient of the monomial with exponent tuple `exps`, as
        `terms` shows it, or 0 when it has no term; builds no `terms` view."""
        num = self._num.get(exps)
        if num is None:
            return 0
        return num if self._den == 1 else _rational(num, self._den)

    def support(self):
        """The exponent tuples of the terms, as a read-only keys view."""
        return self._num.keys()

    def renamed(self, ctx: RingCtx) -> "LaurentPoly":
        """The same terms over ctx, a context with as many variables: the
        variables renamed, in order."""
        if ctx.n != self.ctx.n:
            raise ValueError(f"a ring with {ctx.n} variables cannot take {self.ctx.n}")
        return LaurentPoly._trusted(ctx, dict(self._num), self._den)

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
        """coeff * x^exps; a tuple of ctx.n ints with the int coefficient 1
        is taken as it is, anything else is checked as by the constructor."""
        if (
            type(coeff) is int
            and coeff == 1
            and type(exps) is tuple
            and len(exps) == ctx.n
            and all([type(e) is int for e in exps])
        ):
            return cls._trusted(ctx, {exps: 1})
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

        The factor text of a monomial ("x^2*y^-1", "" for the constant) is
        built once per ring context: the context's table keeps it for every
        later print, until the table holds _FACTOR_TEXT_LIMIT entries.
        Integers of any length are printed exactly.
        """
        nums = self._num
        if not nums:
            return "0"
        names = self.ctx.names
        table = self.ctx._factor_text
        common = self._den
        out = []
        for exps in sorted(nums, reverse=True):
            num = nums[exps]
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
            factors = table.get(exps)
            if factors is None:
                try:
                    factors = "*".join(
                        [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
                    )
                except ValueError:  # an exponent past the interpreter's digit limit
                    factors = "*".join(
                        [n if e == 1 else f"{n}^{int_to_decimal(e)}" for n, e in zip(names, exps) if e]
                    )
                if len(table) < _FACTOR_TEXT_LIMIT:
                    table[exps] = factors
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

# A power of a number in the text, p^k or (p/q)^k, is refused before it is
# taken when k times the bit length of the larger of p and q is over this
# bound, about 1.26 million decimal digits; a power of 0 or 1 is never
# refused.  Text such as 10^ followed by a 30-digit exponent would otherwise
# ask for an integer of ~10^29 digits.
MAX_POWER_BITS = 1 << 22


def _power_too_big(p: int, q: int, k: int) -> bool:
    """Whether (p/q)^k, for p >= 0, q >= 1 and k >= 0, is over MAX_POWER_BITS."""
    return (p > 1 or q > 1) and k * max(p, q).bit_length() > MAX_POWER_BITS


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
                    if _power_too_big(p, q, k):
                        self.fail(f"power of a number over {MAX_POWER_BITS} bits", self.pos - 1)
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
                    k = self.exponent()
                    if factor.is_monomial():
                        (top,) = factor._num.values()
                        if _power_too_big(abs(top), factor._den, abs(k)):
                            self.fail(f"power of a number over {MAX_POWER_BITS} bits", self.pos - 1)
                    factor = factor**k
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


def _ascii_int(text: str) -> int | None:
    """The value of `text`, stripped of whitespace, when that is ASCII
    digits (any number of them), else None."""
    if not (text.isdigit() and text.isascii()):
        text = text.strip()
        if not (text.isdigit() and text.isascii()):
            return None
    return decimal_to_int(text)


def _flat_factor(factor: str, names: tuple[str, ...]) -> tuple[int, int, int] | None:
    """One factor of a flat term: (i, k, 1) for names[i]^k, (-1, p, q) for
    the rational p/q (a power of one included), or None where `factor` is
    not plainly well formed, is a negative power of 0 or is a power over
    MAX_POWER_BITS.  A '~' right after the '^' stands for the exponent's
    '-'."""
    base, caret, power = factor.partition("^")
    k = 1
    if caret:
        negative = power[:1] == "~"
        k = _ascii_int(power[1:] if negative else power)
        if k is None:
            return None
        if negative:
            k = -k
    base = base.strip()
    if base in names:
        return names.index(base), k, 1
    p, slash, q = base.partition("/")
    p = _ascii_int(p)
    q = _ascii_int(q) if slash else 1
    if p is None or not q:  # q is None or 0
        return None
    if k < 0:
        if not p:
            return None  # not a unit
        p, q, k = q, p, -k
    if caret and _power_too_big(p, q, k):
        return None
    return -1, p**k, q**k


def _parse_flat(text: str, ctx: RingCtx) -> LaurentPoly | None:
    """The polynomial of a parenthesis-free `text`, read with string splits,
    or None wherever the text is not plainly well formed.  Never raises.

    A sign right after '^' belongs to the exponent: it is marked '~' (a
    character no accepted text contains) before the text is split into terms
    on the other signs, each term into factors on '*', and each factor on
    '^' and '/'.  Whitespace may surround every piece and is stripped; inside
    a piece it fails the digit and name checks, so two tokens with only
    whitespace between them are never accepted.  A sign after '^' and
    whitespace, a negative power of 0, a power over MAX_POWER_BITS and every
    syntax error give None, and the recursive descent decides them.  Each
    distinct factor text is read once per call.
    """
    if "(" in text or ")" in text or "~" in text:
        return None
    if "^" in text:
        text = text.replace("^-", "^~").replace("^+", "^")
    pieces = text.replace("-", "+-").split("+")
    if not pieces[0] or pieces[0].isspace():
        # a sign starts the text: it must be a single '-'
        if len(pieces) == 1 or pieces[1][:1] != "-":
            return None
        del pieces[0]
    names = ctx.names
    read: dict[str, tuple[int, int, int]] = {}
    zero = [0] * len(names)
    terms, dens = [], []
    for piece in pieces:
        negate = piece[:1] == "-"
        if negate:
            piece = piece[1:]
        exps = zero[:]
        num = den = 1
        for factor in piece.split("*"):
            value = read.get(factor)
            if value is None:
                value = read[factor] = _flat_factor(factor, names)
                if value is None:
                    return None
            i, a, b = value
            if i < 0:
                num *= a
                den *= b
            else:
                exps[i] += a
        if num:
            terms.append((tuple(exps), -num if negate else num))
            dens.append(den)
    common = lcm(*dens)
    if common != 1:
        terms = [(key, num * (common // den)) for (key, num), den in zip(terms, dens)]
    total: dict[tuple[int, ...], int] = {}
    _accumulate(total, terms)
    return LaurentPoly._trusted(ctx, total, common)


def parse(text: str, ctx: RingCtx) -> LaurentPoly:
    """Parse an ASCII expression, e.g. "3*x^2*y^-1 - 1/2", over ctx.

    Text without parentheses is read by a fast path of string splits first;
    the recursive descent reads whatever that path does not fully accept,
    and all parenthesised text.  Both give the same polynomial, and only
    the descent raises.

    Raises ParseError, with line and column, for a syntax error, a non-ASCII
    character, an unknown variable, parentheses nested more than
    MAX_NESTING (200) levels deep or a power of a number, or of a
    parenthesised monomial's coefficient, over MAX_POWER_BITS (2^22) bits,
    and ValueError("not a unit") for a negative power of a non-monomial.
    """
    poly = _parse_flat(text, ctx)
    return poly if poly is not None else _Parser(text, ctx).run()
