"""Exact arithmetic in Q and in real quadratic extensions Q(sqrt(d)).

All comparisons are decided with rational arithmetic only; sqrt(d) always
denotes the positive real root, so the induced order is the one inherited
from the reals.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import mul
from typing import Optional, Union

RatLike = Union[int, Fraction, "QuadExt"]


class Ordered:
    """Rich comparisons derived from a three-way `cmp(other)` returning
    -1, 0 or 1; each comparison calls `cmp` exactly once."""

    __slots__ = ()

    def __lt__(self, other) -> bool:
        return self.cmp(other) < 0

    def __le__(self, other) -> bool:
        return self.cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self.cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self.cmp(other) >= 0


# Largest radicand accepted: squarefreeness is decided by trial division up
# to sqrt(d), so this bound caps the check at 10**6 steps.
RADICAND_BOUND = 10 ** 12


@functools.lru_cache(maxsize=256)
def _is_squarefree(n: int) -> bool:
    if n > RADICAND_BOUND:
        raise ValueError(f"radicand {n} exceeds the bound {RADICAND_BOUND}")
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def _check_radicand(d: int) -> None:
    if not _is_squarefree(d):
        raise ValueError(f"radicand must be squarefree >= 2, got {d}")


def _surd_sign(a, b, d: Optional[int]) -> int:
    """Exact sign of a + b*sqrt(d) for rational a, b.

    When a and b disagree in sign the comparison a + b*sqrt(d) <> 0 is
    squared: the sign is that of a^2 - b^2 d carried by the dominant part.
    Squarefreeness rules out a^2 == b^2 d for b != 0.
    """
    if not b:
        return (a > 0) - (a < 0)
    if not a:
        return (b > 0) - (b < 0)
    sa = 1 if a > 0 else -1
    if (b > 0) == (sa > 0):
        return sa
    n = a * a - d * b * b
    if n == 0:
        raise ArithmeticError("squarefree radicand cannot have zero norm")
    return sa if n > 0 else -sa


class QuadExt(Ordered):
    """A real number a + b*sqrt(d) with a, b rational.

    d is either None (plain rational, b must be 0) or a squarefree integer
    from 2 to RADICAND_BOUND shared by every value it is combined with.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: RatLike, b: RatLike = 0, d: Optional[int] = None):
        if isinstance(a, QuadExt) or isinstance(b, QuadExt):
            raise TypeError("components must be rational")
        if type(a) is not Fraction:
            a = Fraction(a)
        if type(b) is not Fraction:
            b = Fraction(b)
        if b == 0:
            d = None
        else:
            if d is None:
                raise ValueError("irrational part requires a radicand")
            _check_radicand(d)
        self.a = a
        self.b = b
        self.d = d

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def of(value: RatLike, d: Optional[int] = None) -> "QuadExt":
        if isinstance(value, QuadExt):
            return value
        return QuadExt(value)

    @staticmethod
    def sqrt(d: int) -> "QuadExt":
        return QuadExt(0, 1, d)

    def _join_radicand(self, other: "QuadExt") -> Optional[int]:
        if self.d is None:
            return other.d
        if other.d is None or other.d == self.d:
            return self.d
        raise ValueError(f"mixed radicands {self.d} and {other.d}")

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: RatLike) -> "QuadExt":
        other = QuadExt.of(other)
        if not other.b:
            return QuadExt(self.a + other.a, self.b, self.d)
        if not self.b:
            return QuadExt(self.a + other.a, other.b, other.d)
        d = self._join_radicand(other)
        return QuadExt(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other: RatLike) -> "QuadExt":
        return self + (-QuadExt.of(other))

    def __rsub__(self, other: RatLike) -> "QuadExt":
        return QuadExt.of(other) + (-self)

    def __mul__(self, other: RatLike) -> "QuadExt":
        other = QuadExt.of(other)
        if not other.b:
            return QuadExt(self.a * other.a, self.b * other.a, self.d)
        if not self.b:
            return QuadExt(self.a * other.a, self.a * other.b, other.d)
        d = self._join_radicand(other)
        dd = 0 if d is None else d
        return QuadExt(
            self.a * other.a + self.b * other.b * dd,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """Field norm a^2 - d*b^2; nonzero whenever the value is nonzero."""
        dd = 0 if self.d is None else self.d
        return self.a * self.a - dd * self.b * self.b

    def inverse(self) -> "QuadExt":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if not self.b:
            return QuadExt(1 / self.a)
        n = self.norm()
        return QuadExt(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other: RatLike) -> "QuadExt":
        return self * QuadExt.of(other).inverse()

    def __rtruediv__(self, other: RatLike) -> "QuadExt":
        return QuadExt.of(other) * self.inverse()

    def __pow__(self, n: int) -> "QuadExt":
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, lambda: QuadExt(1))

    # -- order ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Exact sign, decided by rational arithmetic."""
        return _surd_sign(self.a, self.b, self.d)

    def cmp(self, other: RatLike) -> int:
        return (self - QuadExt.of(other)).sign()

    def __eq__(self, other: object) -> bool:
        """Componentwise equality, which is equality in the field: with d
        squarefree, 1 and sqrt(d) are linearly independent over Q, so
        a + b*sqrt(d) has exactly one pair (a, b).  Two irrational values
        over different radicands raise ValueError, as their difference
        does."""
        if isinstance(other, QuadExt):
            if self.b and other.b:
                self._join_radicand(other)
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __abs__(self) -> "QuadExt":
        return -self if self.sign() < 0 else self

    # -- structure ------------------------------------------------------------

    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError("value is irrational")
        return self.a

    def floor(self) -> int:
        """Exact integer floor."""
        if self.b == 0:
            return math.floor(self.a)
        # floor(b*sqrt(d)) via isqrt on b^2 d scaled to an integer.
        num = self.b.numerator * self.b.numerator * self.d
        den = self.b.denominator * self.b.denominator
        root = math.isqrt(num * den) // den  # floor of |b| sqrt(d)
        irr = root if self.b > 0 else -root - 1
        n = math.floor(self.a) + irr
        while QuadExt(n + 1) <= self:
            n += 1
        while QuadExt(n) > self:
            n -= 1
        return n

    def __repr__(self) -> str:
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d!r})"

    def __str__(self) -> str:
        return format_coeff(self)


def _power(base, n: int, one, times=mul):
    """base^n for n >= 0 by square-and-multiply, with products `times`.
    The product starts from the first power of base it needs, so the
    identity one() is built only for n = 0, and no square is built after
    the last exponent bit."""
    if not n:
        return one()
    while not n & 1:
        base = times(base, base)
        n >>= 1
    out = base
    while n := n >> 1:
        base = times(base, base)
        if n & 1:
            out = times(out, base)
    return out


def format_coeff(x: QuadExt) -> str:
    """Canonical text form, e.g. '3/2', 'sqrt(2)', '1-2*sqrt(5)'."""
    if x.b == 0:
        return str(x.a)
    if x.b == 1:
        s = f"sqrt({x.d})"
    elif x.b == -1:
        s = f"-sqrt({x.d})"
    else:
        s = f"{x.b}*sqrt({x.d})"
    if x.a == 0:
        return s
    if s.startswith("-"):
        return f"{x.a}{s}"
    return f"{x.a}+{s}"


def rational_between(lo: QuadExt, hi: QuadExt) -> Fraction:
    """A rational strictly between lo < hi, found by dyadic refinement."""
    if lo.cmp(hi) >= 0:
        raise ValueError("empty interval")
    scale = 1
    while True:
        n = (lo * scale).floor() + 1
        q = Fraction(n, scale)
        if lo < q < hi:
            return q
        scale *= 2

