"""Exact arithmetic in the extended nonnegative rationals [0, oo].

A finite value is stored as a coprime pair of plain ints, a numerator and a
positive denominator, and the distinguished infinity as the numerator None.
Sums, products and comparisons compute on the pair with `math.gcd`, the
way `fractions.Fraction` does, and skip the gcd when both denominators are
1; `frac` gives the equal `Fraction`, and `hash` is that Fraction's hash.
A value equals, is ordered against and computes with the int or `Fraction`
of its value, never a string: `<`, `<=`, `>`, `>=`, `+`, `*`, `-` and `/`,
reflected forms included, raise `InvalidValueType` for a string operand.
The conventions are oo + x = oo, oo * x = oo for x > 0, and oo * 0 = 0 (the
one needed for positive linear combinations with coefficients in (0, oo]).
Besides the partial subtraction there is the total, truncated one, `monus`.
`ratio(p, q)` builds p/q from two ints with no `Fraction` on the way.

Strings are read by one grammar, on plain ints: after whitespace is
stripped at both ends, a string is `inf`, `p` or `p/q`, where p and q are
ASCII decimal digits and q is not 0.  Signs, decimal points, exponents,
underscores and inner whitespace are rejected.  A malformed value raises a
`MalformedValue`, which is also the builtin error for it: `InvalidValue`
(a `ValueError`) for a negative number, difference or a string outside
the grammar, `ZeroDenominator` (a `ZeroDivisionError`) for `p/0` or a
division by 0 or oo, and `InvalidValueType` (a `TypeError`) for a float
or a non-rational.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd

from .errors import (
    InfinityIndeterminate, InvalidValue, InvalidValueType, ZeroDenominator
)


_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


class ExtRat:
    """A nonnegative rational or infinity. Immutable and hashable."""

    __slots__ = ("_num", "_den")

    def __init__(self, value=0):
        if type(value) is int:
            num, den = value, 1
        elif type(value) is Fraction:
            num, den = value.numerator, value.denominator
        elif isinstance(value, str):
            self._num, self._den = _parse(value)
            return
        elif isinstance(value, float):
            raise InvalidValueType("floats are not allowed; use Fraction or 'p/q' strings")
        else:
            try:
                frac = Fraction(value)
            except TypeError as exc:
                raise InvalidValueType(f"{value!r} is not a rational") from exc
            except ValueError as exc:  # a NaN Decimal
                raise InvalidValue(f"{value!r} is not a rational") from exc
            num, den = frac.numerator, frac.denominator
        if num < 0:
            raise InvalidValue(f"negative value {Fraction(num, den)} not in [0, oo]")
        self._num, self._den = num, den

    @property
    def is_infinite(self) -> bool:
        return self._num is None

    @property
    def is_finite(self) -> bool:
        return self._num is not None

    @property
    def frac(self) -> Fraction:
        if self._num is None:
            raise InfinityIndeterminate("infinite value has no finite part")
        return Fraction(self._num, self._den)

    def __add__(self, other):
        if type(other) is not ExtRat:
            other = _comparable(other)
        a, c = self._num, other._num
        if a is None or c is None:
            return INF
        b, d = self._den, other._den
        if b == 1 and d == 1:
            return _finite(a + c, 1)
        # as Fraction adds: only the gcd of the denominators can cancel
        g = gcd(b, d)
        if g == 1:
            return _finite(a * d + b * c, b * d)
        s = b // g
        t = a * (d // g) + c * s
        g2 = gcd(t, g)
        if g2 == 1:
            return _finite(t, s * d)
        return _finite(t // g2, s * (d // g2))

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is not ExtRat:
            other = _comparable(other)
        a, c = self._num, other._num
        if a is None or c is None:
            # oo * 0 = 0; a None operand never equals 0
            return ZERO if a == 0 or c == 0 else INF
        b, d = self._den, other._den
        if b == 1 and d == 1:
            return _finite(a * c, 1)
        g1 = gcd(a, d)
        if g1 > 1:
            a //= g1
            d //= g1
        g2 = gcd(c, b)
        if g2 > 1:
            c //= g2
            b //= g2
        return _finite(a * c, b * d)

    __rmul__ = __mul__

    def __sub__(self, other):
        """Partial subtraction: defined when the result stays in [0, oo]."""
        if type(other) is not ExtRat:
            other = _comparable(other)
        if other.is_infinite:
            raise InfinityIndeterminate("cannot subtract infinity")
        if self.is_infinite:
            return INF
        if self < other:
            raise InvalidValue(f"{self} - {other} would be negative")
        return _reduced(
            self._num * other._den - other._num * self._den, self._den * other._den
        )

    def __truediv__(self, other):
        if type(other) is not ExtRat:
            other = _comparable(other)
        if other == ZERO or other.is_infinite:
            raise ZeroDenominator("division by zero or infinity")
        if self.is_infinite:
            return INF
        return _reduced(self._num * other._den, self._den * other._num)

    def __eq__(self, other):
        if type(other) is not ExtRat:
            if isinstance(other, str):  # "1" hashes apart from ONE, so is not equal to it
                return NotImplemented
            try:
                other = ext(other)
            except (TypeError, ValueError):
                return NotImplemented
        # both pairs are in lowest terms, and oo is (None, 1)
        return self._num == other._num and self._den == other._den

    def __lt__(self, other):
        if type(other) is not ExtRat:
            other = _comparable(other)
        a, c = self._num, other._num
        if a is None:
            return False
        if c is None:
            return True
        return a * other._den < c * self._den

    def __le__(self, other):
        if type(other) is not ExtRat:
            other = _comparable(other)
        a, c = self._num, other._num
        if c is None:
            return True
        if a is None:
            return False
        return a * other._den <= c * self._den

    def __gt__(self, other):
        if type(other) is not ExtRat:
            other = _comparable(other)
        return other < self

    def __ge__(self, other):
        if type(other) is not ExtRat:
            other = _comparable(other)
        return other <= self

    def __hash__(self):
        # the hash of the equal Fraction, by the rule for numeric hashes
        if self._num is None:
            return hash(None)
        if self._den == 1:
            return hash(self._num)
        try:
            inverse = pow(self._den, -1, _HASH_MODULUS)
        except ValueError:  # the denominator is a multiple of the modulus
            return _HASH_INF
        return hash(self._num * inverse)

    def __bool__(self):
        return self._num != 0

    def __repr__(self):
        return f"ExtRat({str(self)!r})"

    def __str__(self):
        if self._num is None:
            return "inf"
        if self._den == 1:
            return str(self._num)
        return f"{self._num}/{self._den}"


def _comparable(value) -> ExtRat:
    """The operand of an order comparison or of arithmetic as an ExtRat:
    an int or a `Fraction`, never a string, which equality does not accept
    either; `ext` is the string parser."""
    if isinstance(value, str):
        raise InvalidValueType(
            f"an ExtRat is not ordered against the string {value!r}"
            " or combined with it; parse it with ext()"
        )
    return ext(value)


def _finite(num: int, den: int) -> ExtRat:
    """The ExtRat num/den of a coprime pair with num >= 0 and den > 0, such
    as a sum or product of two, or oo for the pair (None, 1); it skips the
    checks of `ExtRat(...)`."""
    value = object.__new__(ExtRat)
    value._num = num
    value._den = den
    return value


def _reduced(num: int, den: int) -> ExtRat:
    """The ExtRat num/den of any pair with num >= 0 and den > 0."""
    g = gcd(num, den)
    return _finite(num // g, den // g)


def ratio(num: int, den: int) -> ExtRat:
    """The ExtRat num/den of two ints, equal to ExtRat(Fraction(num, den))
    and raising the same errors, but building no Fraction: InvalidValue
    for a negative ratio and ZeroDenominator for den == 0."""
    if type(num) is not int or type(den) is not int:
        raise InvalidValueType(f"ratio takes two ints, not {num!r} and {den!r}")
    if den == 0:
        raise ZeroDenominator(f"rational {num}/{den} has denominator 0")
    if den < 0:
        num, den = -num, -den
    if num < 0:
        raise InvalidValue(f"negative value {Fraction(num, den)} not in [0, oo]")
    return _reduced(num, den)


INF = _finite(None, 1)
ZERO = ExtRat(0)
ONE = ExtRat(1)


def _parse(text: str) -> tuple[int | None, int]:
    """The coprime pair of a string by the module's grammar, with the
    numerator None for 'inf'."""
    body = text.strip()
    if body == "inf":
        return None, 1
    num, slash, den = body.partition("/")
    if (
        num.isdigit() and num.isascii()
        and (not slash or den.isdigit() and den.isascii())
    ):
        try:
            p = int(num)
            q = int(den) if slash else 1
        except ValueError as exc:  # more digits than int() converts
            raise InvalidValue(f"rational {text!r} is too long") from exc
        if q == 0:
            raise ZeroDenominator(f"rational {text!r} has denominator 0")
        g = gcd(p, q)
        return p // g, q // g
    raise InvalidValue(f"{text!r} is not 'inf', 'p' or 'p/q' in decimal digits")


def ext(value) -> ExtRat:
    """Coerce ints, Fractions, and 'p', 'p/q' and 'inf' strings to ExtRat."""
    if isinstance(value, ExtRat):
        return value
    if isinstance(value, str):
        num, den = _parse(value)
        return INF if num is None else _finite(num, den)
    return ExtRat(value)


def sgn(value: ExtRat) -> bool:
    """True iff the value is strictly positive (infinity counts)."""
    if type(value) is not ExtRat:
        value = ext(value)
    return value._num != 0


def monus(a: ExtRat, b: ExtRat) -> ExtRat:
    """Truncated subtraction a - b: the least c with a <= b + c.

    It is 0 when a <= b, so oo - oo = 0, and oo - b = oo for finite b.
    """
    if a <= b:
        return ZERO
    return a - b
