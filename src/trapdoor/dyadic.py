"""Exact dyadic rationals: arbitrary-precision integers scaled by a power of two.

Every probability, conditional entropy, and weight vector entry handled by
this package has the form a / 2**e, so a dedicated scalar type keeps the core
computations completely free of rounding.  Values are normalized: the
numerator is odd whenever the exponent is positive, and zero is stored as
0 / 2**0.  Dyadics are closed under +, -, * and under division by (signed)
powers of two; any other division raises.  Sums, differences and the
order bring both operands to the larger exponent in one place, ``_align``.
The order is defined against Dyadics and integers only (a Fraction or a
float raises TypeError); equality also accepts Fractions and floats.
"""

from __future__ import annotations

import functools
import numbers
from fractions import Fraction

from . import config


@functools.total_ordering
class Dyadic:
    """Immutable exact rational ``num / 2**exp`` with ``exp >= 0``."""

    __slots__ = ("num", "exp")

    num: int
    exp: int

    def __init__(self, num: int = 0, exp: int = 0) -> None:
        if not (type(num) is int and type(exp) is int):  # plain ints skip the rule
            num, exp = config.integer(num, "numerator"), config.integer(exp, "exponent")
        if exp < 0:
            raise ValueError("exponent must be non-negative (use Dyadic.shift for 2**k)")
        if num == 0:
            exp = 0
        elif exp > 0 and num % 2 == 0:
            # strip common powers of two, but never push exp below zero
            shift = min(exp, ((num & -num).bit_length() - 1))
            num >>= shift
            exp -= shift
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Dyadic is immutable")

    # -- conversions --------------------------------------------------------

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __float__(self) -> float:
        return self.num / (1 << self.exp)

    def __bool__(self) -> bool:
        return self.num != 0

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other: object) -> "Dyadic | None":
        if isinstance(other, Dyadic):
            return other
        if isinstance(other, numbers.Integral):
            return Dyadic(int(other), 0)
        return None

    def _align(self, other: object) -> "tuple[int, int, int] | None":
        """(a, b, e) with self == a / 2**e and other == b / 2**e; None unless other is dyadic."""
        o = self._coerce(other)
        if o is None:
            return None
        e = max(self.exp, o.exp)
        return self.num << (e - self.exp), o.num << (e - o.exp), e

    def __add__(self, other: object) -> "Dyadic":
        t = self._align(other)
        return NotImplemented if t is None else Dyadic(t[0] + t[1], t[2])

    __radd__ = __add__

    def __sub__(self, other: object) -> "Dyadic":
        t = self._align(other)
        return NotImplemented if t is None else Dyadic(t[0] - t[1], t[2])

    def __rsub__(self, other: object) -> "Dyadic":
        t = self._align(other)
        return NotImplemented if t is None else Dyadic(t[1] - t[0], t[2])

    def __mul__(self, other: object) -> "Dyadic":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dyadic(self.num * o.num, self.exp + o.exp)

    __rmul__ = __mul__

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.exp)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.num), self.exp)

    def __truediv__(self, other: object) -> "Dyadic":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num == 0:
            raise ZeroDivisionError("division by zero")
        mag = abs(o.num)
        if mag & (mag - 1):
            raise ValueError(
                f"dyadics are closed under division by powers of two only, not {o}"
            )
        res = self.shift(o.exp - (mag.bit_length() - 1))
        return res if o.num > 0 else -res

    def shift(self, k: int) -> "Dyadic":
        """Return ``self * 2**k`` for any integer k."""
        if k >= 0:
            return Dyadic(self.num << k, self.exp)
        return Dyadic(self.num, self.exp - k)

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (Fraction, float)):
                return self.as_fraction() == other
            return NotImplemented
        return self.num == o.num and self.exp == o.exp

    def __lt__(self, other: object) -> bool:
        # <=, > and >= come from functools.total_ordering
        t = self._align(other)
        return NotImplemented if t is None else t[0] < t[1]

    def __hash__(self) -> int:
        # matches the numeric hash of equal ints / Fractions
        return hash(self.as_fraction())

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/{1 << self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.exp})"
