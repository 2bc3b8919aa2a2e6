"""Sparse Laurent polynomials over Q with a parser and a canonical printer.

A polynomial is a finite map from integer exponent vectors to nonzero rational
coefficients, so negative exponents (localized monomials) are first-class.
The canonical term order is descending lexicographic on the exponent vector in
declared variable order; `parse(str(p)) == p` for every polynomial p.

`parse` has two paths with one error source.  Text in the printer's form
is first read by a fast path of string splits; on any other text that path
gives up without raising, and the recursive descent reads the text instead.
The descent is the only source of ParseError and the only reader of a power
of a number, so it alone applies MAX_POWER_BITS.

Monomial texts depend on the variable names only, so every ring context
over one tuple of names, a copied or unpickled context included, shares
one entry of the module's registry of monomial texts, `_MONOMIAL_TEXTS`.
An entry is a two-way table.  From exponent vector to factor text
("x^2*y^-1"), which only the printer fills, a monomial printed before
costs one lookup.  From factor text to exponent vector, which the printer
fills with every text it builds and the parser's fast path with every
monomial it reads, a monomial printed or read before is read again with
one lookup; the printer writes each factor as the fast path reads it, so
an entry is the tuple that reading its text factor by factor gives, and
a lookup changes no result.  The printer joins a new factor text from the
tuple's power texts ("y^-1"), which the entry keeps too.  The count of
entries and texts stored since the registry last started over has one
hard cap, _MONOMIAL_TEXT_LIMIT: nothing is stored once the count reaches
it, and a print or a read that finds it there first clears the registry.
So the registry never holds more than _MONOMIAL_TEXT_LIMIT texts.

`+` is a two-term `LaurentPoly.sum`.  `substitute` and the descent add each
term they build, a rational times a monomial times a product of powers, to
their running sum through one step, `_merge_term`.
"""

from __future__ import annotations

import re
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


class Frozen:
    """Base of the immutable value classes: RingCtx and the derivations.

    A subclass names its fields in `__match_args__`, lists them and any
    private attributes in `__slots__`, and sets each once in `__init__`
    through `object.__setattr__`.  `==`, `hash`, `repr` and pickling read
    the fields only; assigning or deleting an attribute raises AttributeError.
    Pickling and `copy.deepcopy` rebuild a value through its constructor.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RingCtx(Frozen):
    """Ordered variable context of a Laurent polynomial ring over Q.

    The only field, and the only attribute, is `names`.  The printer and
    the parser find a context's monomial texts by its names, in the
    registry of monomial texts that the module docstring describes.
    """

    __slots__ = ("names",)
    __match_args__ = ("names",)

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if not names:
            raise ValueError("a ring context needs at least one variable")
        for name in names:
            if not _IDENT_RE.match(name):
                raise ValueError(f"invalid variable name {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be pairwise distinct")
        object.__setattr__(self, "names", names)

    # every ring operation compares its operands' contexts, so these two
    # skip the generic field walk
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.names == other.names
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.names,))

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
    loop: `LaurentPoly.sum` (and so `+`), `*`, `_merge_term` (and so
    `substitute` and the descent) and the parser's fast path run through
    it.  Code outside this module reaches it only through
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


def _merge_term(
    total: dict, common: int, num: int, den: int, key: tuple, product: LaurentPoly | None
) -> int:
    """Add num/den * x^key * product into the numerators `total` over
    `common`, in place, and return their new denominator.

    `num` and `den` are nonzero `int`s, `den` of either sign; `key` is an
    exponent tuple and `product` a `LaurentPoly` over the same context, or
    None for 1."""
    if product is not None:
        den *= product._den
    if den != common:
        if den < 0:
            num, den = -num, -den
        common, scale = _widen(total, common, den)
        num *= scale
    if product is None:
        _accumulate(total, ((key, num),))
    elif any(key):
        _accumulate(total, ((tuple(map(add, a, key)), c) for a, c in product._num.items()), num)
    else:
        _accumulate(total, product._num.items(), num)
    return common


# The hard cap on the registry's count of entries and texts: twice 4,096,
# the most that one ring context's two-way table once held.  The largest
# tuple of the `algebra` benchmark reaches about 1,130 entries either way
# in one job.
_MONOMIAL_TEXT_LIMIT = 2 * 4096


class _PowerTexts(dict):
    """Exponent -> the printer's text of one variable to that power: "" for
    0, the name, which is kept as the entry for 1, and "name^e" for any
    other e, built on first use and kept, and counted, below the cap."""

    __slots__ = ()

    def __missing__(self, e: int) -> str:
        global _texts_kept
        text = f"{self[1]}^{int_to_decimal(e)}"
        if _texts_kept < _MONOMIAL_TEXT_LIMIT:
            self[e] = text
            _texts_kept += 1
        return text


class _MonomialTexts:
    """The monomial texts of one tuple of variable names: `factor_text`,
    from exponent tuple to factor text ("x^2*y^-1"); `factor_exps`, from
    factor text in the fast parser's form ("x^2*y^~1") back to the exponent
    tuple; and `power_text`, each variable's `_PowerTexts`."""

    __slots__ = ("factor_text", "factor_exps", "power_text")

    def __init__(self, names: tuple[str, ...]):
        self.factor_text: dict[tuple[int, ...], str] = {}
        self.factor_exps: dict[str, tuple[int, ...]] = {}
        self.power_text = tuple([_PowerTexts({0: "", 1: name}) for name in names])


# tuple of variable names -> its monomial texts, and the count of entries
# and texts stored since the registry last started over
_MONOMIAL_TEXTS: dict[tuple[str, ...], _MonomialTexts] = {}
_texts_kept = 0


def _monomial_texts(names: tuple[str, ...]) -> _MonomialTexts:
    """The registry's entry for `names`, made and counted on first use,
    after the registry starts over if its count has reached the cap."""
    global _texts_kept
    if _texts_kept >= _MONOMIAL_TEXT_LIMIT:
        _MONOMIAL_TEXTS.clear()
        _texts_kept = 0
    texts = _MONOMIAL_TEXTS.get(names)
    if texts is None:
        texts = _MONOMIAL_TEXTS[names] = _MonomialTexts(names)
        _texts_kept += 1
    return texts


class LaurentPoly:
    """Immutable sparse Laurent polynomial.

    Storage, in the coefficient form described above: `_num` maps each
    exponent tuple, exactly ctx.n `int`s, to a nonzero `int` numerator, and
    `_den` is their common denominator, an `int` >= 1 with
    gcd(_den, every numerator) == 1; the zero polynomial is ({}, 1).  Each
    value has one stored form, which `==` and `hash` compare.  Nothing is
    mutated after construction; all operations return fresh values, so
    sharing across threads is safe.  (The registry of monomial texts in the
    module docstring does grow, one whole text at a time, and threads that
    print or parse at once may miscount it, so under threads its cap holds
    only roughly.)

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

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        """The two-term `LaurentPoly.sum` of self and other, which merges
        other's terms into a copy of self's; both must share one context."""
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly.sum(self.ctx, (self, other))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted(self.ctx, {e: -c for e, c in self._num.items()}, self._den)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if self.ctx != other.ctx:
                raise ValueError("context mismatch")
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
            common = _merge_term(total, common, num, den, tuple(shift), product)
        return LaurentPoly._trusted(target, total, common * self._den)

    # ------------------------------------------------------------------
    # printing

    def __str__(self) -> str:
        """Canonical text: terms in descending lexicographic exponent order,
        each as a sign, a coefficient (omitted when it is 1 before a
        variable) and `*`-joined factors `x`, `x^3`, `x^-2`; "0" for zero.

        The factor text of a monomial ("x^2*y^-1", "" for the constant) and
        the way back from it go into the registry of monomial texts that the
        module docstring describes.
        Coefficients are formatted with `str`, and the whole text again with
        `int_to_decimal` when one of them is past the interpreter's digit
        limit; power texts fall back the same way.  So integers of any
        length are printed exactly.
        """
        if not self._num:
            return "0"
        try:
            return self._text(str)
        except ValueError:  # an integer past the interpreter's digit limit
            return self._text(int_to_decimal)

    def _text(self, decimal: Callable[[int], str]) -> str:
        """The text `__str__` describes, with integers formatted by `decimal`."""
        global _texts_kept
        nums = self._num
        texts = _monomial_texts(self.ctx.names)
        powers = texts.power_text
        table = texts.factor_text
        back = texts.factor_exps
        common = self._den
        out = []
        for exps in sorted(nums, reverse=True):
            num = nums[exps]
            suffix = ""
            if common != 1:  # num/common in lowest terms
                g = gcd(num, common)
                if g != common:
                    suffix = "/" + decimal(common // g)
                if g != 1:
                    num //= g
            if num < 0:
                out.append(" - " if out else "-")
                num = -num
            elif out:
                out.append(" + ")
            factors = table.get(exps)
            if factors is None:
                factors = "*".join(filter(None, map(getitem, powers, exps)))
                if _texts_kept < _MONOMIAL_TEXT_LIMIT:
                    table[exps] = factors
                    _texts_kept += 1
                    if factors and _texts_kept < _MONOMIAL_TEXT_LIMIT:
                        back[factors.replace("^-", "^~")] = exps
                        _texts_kept += 1
            if not factors:
                out.append(decimal(num) + suffix)
            elif num == 1 and not suffix:
                out.append(factors)
            else:
                out.append(f"{decimal(num)}{suffix}*{factors}")
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

    @staticmethod
    def _power_too_big(p: int, q: int, k: int) -> bool:
        """Whether (p/q)^k, for p >= 0, q >= 1 and k >= 0, is over
        MAX_POWER_BITS.  Only the descent reads a power of a number."""
        return (p > 1 or q > 1) and k * max(p, q).bit_length() > MAX_POWER_BITS

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
                    if self._power_too_big(p, q, k):
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
                        if self._power_too_big(abs(top), factor._den, abs(k)):
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
        return _merge_term(total, common, num, den, tuple(exps), poly)

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
    """The value of `text` when it is ASCII digits (any number of them),
    else None."""
    if not (text.isdigit() and text.isascii()):
        return None
    return decimal_to_int(text)


def _flat_coefficient(text: str) -> tuple[int, int] | None:
    """(p, q) for a coefficient text `p` or `p/q` of ASCII digits with
    q > 0, or None for any other text."""
    p, slash, q = text.partition("/")
    p = _ascii_int(p)
    q = _ascii_int(q) if slash else 1
    if p is None or not q:  # q is None or 0
        return None
    return p, q


def _flat_power(text: str, names: tuple[str, ...]) -> tuple[int, int] | None:
    """(i, k) for a factor text `name` or `name^k` of the variable names[i],
    where a '~' in front of the ASCII digits of k stands for its '-', or
    None for any other text."""
    name, caret, power = text.partition("^")
    if name not in names:
        return None
    k = 1
    if caret:
        negative = power[:1] == "~"
        k = _ascii_int(power[1:] if negative else power)
        if k is None:
            return None
        if negative:
            k = -k
    return names.index(name), k


def _parse_flat(text: str, ctx: RingCtx) -> LaurentPoly | None:
    """The polynomial of `text` in the printer's form, read with string
    splits, or None for any other text.  Never raises.

    The printer's form is an optional leading '-' and terms joined by '+'
    and '-'.  A term is a coefficient `p` or `p/q`, or an optional
    coefficient and '*' followed by '*'-joined factors `name` or `name^k`,
    where p, q and k are ASCII digits and k may have a '-'.  Whitespace may
    stand around the signs and at the ends, and nowhere else.  Any other
    text, whatever it means to the descent (a power of a number, a number
    after a variable, a '^+', whitespace inside a term), gives None, and
    the recursive descent reads it and decides it.

    A '-' right after '^' belongs to the exponent: it is marked '~' (a
    character no accepted text contains) before the text is split into terms
    on the other signs.  A monomial text that the registry of monomial
    texts (see the module docstring) knows gives its exponent tuple with
    one lookup; any other is split into factors on '*', and stored.
    """
    global _texts_kept
    if "(" in text or ")" in text or "~" in text:
        return None
    pieces = text.replace("^-", "^~").replace("-", "+-").split("+")
    if not pieces[0] or pieces[0].isspace():
        # a sign starts the text: it must be a single '-'
        if len(pieces) == 1 or pieces[1][:1] != "-":
            return None
        del pieces[0]
    names = ctx.names
    known = _monomial_texts(names).factor_exps
    constant = (0,) * len(names)
    terms, dens = [], []
    for piece in pieces:
        negate = piece[:1] == "-"
        piece = (piece[1:] if negate else piece).strip()
        num = den = 1
        if piece[:1].isdigit():  # a coefficient, then '*' and a monomial or nothing
            head, star, piece = piece.partition("*")
            value = _flat_coefficient(head)
            if value is None:
                return None
            num, den = value
            if not star:
                if num:
                    terms.append((constant, -num if negate else num))
                    dens.append(den)
                continue
        exps = known.get(piece)  # never "", which would accept an empty term
        if exps is None:
            vector = list(constant)
            for factor in piece.split("*"):
                value = _flat_power(factor, names)
                if value is None:
                    return None
                i, k = value
                vector[i] += k
            exps = tuple(vector)
            if _texts_kept < _MONOMIAL_TEXT_LIMIT:
                known[piece] = exps
                _texts_kept += 1
        if num:
            terms.append((exps, -num if negate else num))
            dens.append(den)
    common = lcm(*dens)
    if common != 1:
        terms = [(key, num * (common // den)) for (key, num), den in zip(terms, dens)]
    total: dict[tuple[int, ...], int] = {}
    _accumulate(total, terms)
    return LaurentPoly._trusted(ctx, total, common)


def parse(text: str, ctx: RingCtx) -> LaurentPoly:
    """Parse an ASCII expression, e.g. "3*x^2*y^-1 - 1/2", over ctx.

    Text in the printer's form (see `_parse_flat`) is read by a fast path
    of string splits first; the recursive descent reads all other text.
    Both give the same polynomial, and only the descent raises.  The fast
    path reads each term as an optional coefficient and a monomial text,
    which it looks up in the registry of monomial texts that the module
    docstring describes.

    Raises ParseError, with line and column, for a syntax error, a non-ASCII
    character, an unknown variable, parentheses nested more than
    MAX_NESTING (200) levels deep or a power of a number, or of a
    parenthesised monomial's coefficient, over MAX_POWER_BITS (2^22) bits,
    and ValueError("not a unit") for a negative power of a non-monomial.
    """
    poly = _parse_flat(text, ctx)
    return poly if poly is not None else _Parser(text, ctx).run()
