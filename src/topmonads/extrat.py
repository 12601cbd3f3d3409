"""Exact arithmetic in the extended nonnegative rationals [0, oo].

Values are `Fraction`s or the distinguished infinity.  The conventions are
oo + x = oo, oo * x = oo for x > 0, and oo * 0 = 0 (the one needed for
positive linear combinations with coefficients in (0, oo]).  Besides the
partial subtraction there is the total, truncated one, `monus`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering

from .errors import InfinityIndeterminate


@total_ordering
class ExtRat:
    """A nonnegative rational or infinity. Immutable and hashable."""

    __slots__ = ("_frac",)

    def __init__(self, value=0, _inf=False):
        if _inf:
            self._frac = None
            return
        if isinstance(value, float):
            raise TypeError("floats are not allowed; use Fraction or 'p/q' strings")
        frac = Fraction(value)
        if frac < 0:
            raise ValueError(f"negative value {frac} not in [0, oo]")
        self._frac = frac

    @property
    def is_infinite(self) -> bool:
        return self._frac is None

    @property
    def is_finite(self) -> bool:
        return self._frac is not None

    @property
    def frac(self) -> Fraction:
        if self._frac is None:
            raise InfinityIndeterminate("infinite value has no finite part")
        return self._frac

    def __add__(self, other):
        if type(other) is not ExtRat:
            other = ext(other)
        a, b = self._frac, other._frac
        if a is None or b is None:
            return INF
        return _finite(a + b)

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is not ExtRat:
            other = ext(other)
        a, b = self._frac, other._frac
        if a is None or b is None:
            # oo * 0 = 0; a None operand never equals 0
            return ZERO if a == 0 or b == 0 else INF
        return _finite(a * b)

    __rmul__ = __mul__

    def __sub__(self, other):
        """Partial subtraction: defined when the result stays in [0, oo]."""
        other = ext(other)
        if other.is_infinite:
            raise InfinityIndeterminate("cannot subtract infinity")
        if self.is_infinite:
            return INF
        if self._frac < other._frac:
            raise ValueError(f"{self} - {other} would be negative")
        return ExtRat(self._frac - other._frac)

    def __truediv__(self, other):
        other = ext(other)
        if other == ZERO or other.is_infinite:
            raise ZeroDivisionError("division by zero or infinity")
        if self.is_infinite:
            return INF
        return ExtRat(self._frac / other._frac)

    def __eq__(self, other):
        if not isinstance(other, ExtRat):
            try:
                other = ext(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self._frac == other._frac

    def __lt__(self, other):
        if type(other) is not ExtRat:
            other = ext(other)
        a, b = self._frac, other._frac
        if a is None:
            return False
        return b is None or a < b

    def __le__(self, other):
        if type(other) is not ExtRat:
            other = ext(other)
        a, b = self._frac, other._frac
        if b is None:
            return True
        return a is not None and a <= b

    def __hash__(self):
        return hash(self._frac)

    def __bool__(self):
        return self.is_infinite or self._frac != 0

    def __repr__(self):
        return f"ExtRat({str(self)!r})"

    def __str__(self):
        if self.is_infinite:
            return "inf"
        if self._frac.denominator == 1:
            return str(self._frac.numerator)
        return f"{self._frac.numerator}/{self._frac.denominator}"


def _finite(frac: Fraction) -> ExtRat:
    """The ExtRat of a Fraction known to be nonnegative, such as a sum or
    product of two; it skips the checks and the rebuild of `ExtRat(...)`."""
    value = object.__new__(ExtRat)
    value._frac = frac
    return value


INF = ExtRat(_inf=True)
ZERO = ExtRat(0)
ONE = ExtRat(1)


def ext(value) -> ExtRat:
    """Coerce ints, Fractions, and 'p/q' / 'inf' strings to ExtRat."""
    if isinstance(value, ExtRat):
        return value
    if isinstance(value, str):
        if value.strip() == "inf":
            return INF
        return ExtRat(Fraction(value))
    return ExtRat(value)


def sgn(value: ExtRat) -> bool:
    """True iff the value is strictly positive (infinity counts)."""
    return bool(ext(value))


def monus(a: ExtRat, b: ExtRat) -> ExtRat:
    """Truncated subtraction a - b: the least c with a <= b + c.

    It is 0 when a <= b, so oo - oo = 0, and oo - b = oo for finite b.
    """
    if a <= b:
        return ZERO
    return a - b
