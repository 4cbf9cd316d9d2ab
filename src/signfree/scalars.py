"""Exact arithmetic in the quadratic extension Q(sqrt 3).

Every quantity handled by this package is a value ``q + r*sqrt(3)`` with
rational ``q`` and ``r``.  That is enough to hold all the constants the
vector and matrix systems need (1/3, sqrt(3)/3, ...) without rounding,
so identities can be checked by exact equality instead of tolerances.
Floating point appears only at the output boundary (`float()`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
from typing import Callable, TypeVar

__all__ = ["ExactScalar", "SQRT3", "as_scalar", "power", "require_nonneg"]

_SQRT3_FLOAT = math.sqrt(3.0)

_T = TypeVar("_T")


def _fraction_sign(value: Fraction) -> int:
    return (value > 0) - (value < 0)


def as_scalar(value: "ExactScalar | Fraction | int | str") -> "ExactScalar":
    """Coerce ints, Fractions and numeric strings (incl. decimals) exactly."""
    if isinstance(value, ExactScalar):
        return value
    if isinstance(value, (int, Fraction, str)):
        return ExactScalar(Fraction(value))
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact scalar")


def require_nonneg(value: "ExactScalar | Fraction | int | str", what: str) -> "ExactScalar":
    scalar = as_scalar(value)
    if scalar.sign() < 0:
        raise ValueError(f"{what} must be nonnegative, got {scalar}")
    return scalar


def power(base: _T, exponent: int, one: Callable[[], _T]) -> _T:
    """``base ** exponent`` for ``exponent >= 0``: the one power loop.

    Square-and-multiply with ``bit_length(n) + popcount(n) - 2`` products
    for ``n >= 1``, none by one; `one()` gives the result for ``n == 0``.
    """
    if exponent == 0:
        return one()
    result = None
    while True:
        if exponent & 1:
            result = base if result is None else result * base
        exponent >>= 1
        if not exponent:
            return result
        base = base * base


@total_ordering
class ExactScalar:
    """A value ``rat + root*sqrt(3)`` with exact rational components."""

    __slots__ = ("_rat", "_root")

    def __init__(self, rat: Fraction | int | str = 0, root: Fraction | int | str = 0) -> None:
        self._rat = rat if isinstance(rat, Fraction) else Fraction(rat)
        self._root = root if isinstance(root, Fraction) else Fraction(root)

    @property
    def rat(self) -> Fraction:
        return self._rat

    @property
    def root(self) -> Fraction:
        return self._root

    @staticmethod
    def _coerce(value: object) -> "ExactScalar | None":
        if isinstance(value, ExactScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return ExactScalar(value)
        return None

    def __add__(self, other: object) -> "ExactScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactScalar(self._rat + o._rat, self._root + o._root)

    __radd__ = __add__

    def __sub__(self, other: object) -> "ExactScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactScalar(self._rat - o._rat, self._root - o._root)

    def __rsub__(self, other: object) -> "ExactScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self._rat, -self._root)

    def __pos__(self) -> "ExactScalar":
        return self

    def __mul__(self, other: object) -> "ExactScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (q1 + r1 s)(q2 + r2 s) with s^2 = 3
        return ExactScalar(
            self._rat * o._rat + 3 * self._root * o._root,
            self._rat * o._root + self._root * o._rat,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "ExactScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # Rationalize with the conjugate q - r*sqrt(3).  The denominator
        # q^2 - 3 r^2 vanishes only for q = r = 0 (sqrt 3 is irrational).
        denom = o._rat * o._rat - 3 * o._root * o._root
        if denom == 0:
            raise ZeroDivisionError("division by zero scalar")
        num = self * ExactScalar(o._rat, -o._root)
        return ExactScalar(num._rat / denom, num._root / denom)

    def __rtruediv__(self, other: object) -> "ExactScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, exponent: int) -> "ExactScalar":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return ExactScalar(1) / self ** (-exponent)
        return power(self, exponent, lambda: ExactScalar(1))

    def sign(self) -> int:
        """Exact sign of the value, decided without floating point."""
        sq = _fraction_sign(self._rat)
        sr = _fraction_sign(self._root)
        if sr == 0:
            return sq
        if sq == 0 or sq == sr:
            return sr
        # Components pull in opposite directions: compare q^2 with 3 r^2.
        # Equality is impossible for nonzero rationals.
        return sq if self._rat * self._rat > 3 * self._root * self._root else sr

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._rat == o._rat and self._root == o._root

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __hash__(self) -> int:
        if self._root == 0:
            # matches hash(int)/hash(Fraction) so x == n implies equal hashes
            return hash(self._rat)
        return hash((self._rat, self._root))

    def __bool__(self) -> bool:
        return bool(self._rat) or bool(self._root)

    def __float__(self) -> float:
        q, r = self._rat, self._root
        if (q < 0 < r) or (r < 0 < q):
            # Rounded apart, q and r*sqrt3 of opposite signs cancel.  The
            # conjugate form (q^2 - 3r^2) / (q - r*sqrt3) adds like signs
            # only.  Scaling both parts by 2**-e keeps the squares in range.
            e = max(math.frexp(float(q))[1], math.frexp(float(r))[1])
            unit = Fraction(2) ** -e
            q2, r2 = q * unit, r * unit
            scaled = float(q2 * q2 - 3 * r2 * r2) / (float(q2) - float(r2) * _SQRT3_FLOAT)
            try:
                return math.ldexp(scaled, e)
            except OverflowError:  # near the largest float, where the plain sum is finite
                pass
        return float(q) + float(r) * _SQRT3_FLOAT

    def __str__(self) -> str:
        if self._root == 0:
            return str(self._rat)
        root_part = f"{self._root}*sqrt3" if self._root > 0 else f"{-self._root}*sqrt3"
        if self._rat == 0:
            return root_part if self._root > 0 else f"-{root_part}"
        joiner = "+" if self._root > 0 else "-"
        return f"{self._rat}{joiner}{root_part}"

    def __repr__(self) -> str:
        return f"ExactScalar({self._rat}, {self._root})"


SQRT3 = ExactScalar(0, 1)
