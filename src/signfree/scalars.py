"""Exact arithmetic in the quadratic extension Q(sqrt 3).

Every quantity handled by this package is a value ``q + r*sqrt(3)`` with
rational ``q`` and ``r``.  That is enough to hold all the constants the
vector and matrix systems need (1/3, sqrt(3)/3, ...) without rounding,
so identities can be checked by exact equality instead of tolerances.
Floating point appears only at the output boundary (`float()`).

An `ExactScalar` is stored as three Python ints ``(p, q, d)`` standing
for ``(p + q*sqrt(3)) / d``, with ``d > 0`` and ``gcd(p, q, d) == 1``.
That form is unique, so equality compares three ints, and each sum,
product or quotient is integer multiplies and adds plus one gcd.
`Fraction`s are built only at the boundaries: the constructor accepts
only them, ints and numeric strings, and the `rat`/`root` properties and
the hash of a value with a sqrt(3) part return or use them.  `str` and
`repr` print ``p/d`` and ``q/d`` with one gcd each; `_text` prints any
``(p, q, d)`` ints that way, so pairs, triples and matrices print their
parts with no scalar built.  One rule, `_scaled`, brings any such ints
into float range: `_float` (so `float()`, `to_complex` and `characters()`,
each part one rounding of exact ints, psi_0 being `row_sums`) and the triple
and matrix `norm` read it, with no gcd taken.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction
from functools import total_ordering

__all__ = ["ExactScalar", "SQRT3", "as_scalar", "power"]

_SQRT3_FLOAT = math.sqrt(3.0)


def as_scalar(value: "ExactScalar | Fraction | int | str") -> "ExactScalar":
    """Coerce ints, Fractions and numeric strings (incl. decimals) exactly."""
    return value if isinstance(value, ExactScalar) else ExactScalar(value)


def _from_str(value: object) -> Fraction:
    """A numeric str read exactly; any type but str is refused."""
    if not isinstance(value, str):
        raise TypeError(f"cannot interpret {type(value).__name__} as an exact scalar")
    return Fraction(value)


def power(
    base: object, exponent: int, one: Callable[[], object], squares: "list | None" = None
) -> object:
    """``base ** exponent`` for ``exponent >= 0``: the one power loop.

    Square-and-multiply with ``bit_length(n) + popcount(n) - 2`` products
    for ``n >= 1``, none by one; `one()` gives the result for ``n == 0``.
    `squares`, if given, is ``[base, base**2, base**4, ...]``, at least
    `base` itself: the loop reads base**(2**k) from it and appends each
    square it has to make, so a later call given the same list makes only
    the ``popcount(n) - 1`` products that join them.  The squares and
    products, and their order, are those made without it.  The list is
    extended in place, so callers that share squares across threads pass
    each call a copy, as `units._unit_power` does.
    """
    if exponent == 0:
        return one()
    if squares is None:
        squares = [base]
    result = None
    k = 0
    while True:
        if exponent & 1:
            result = base if result is None else result * base
        exponent >>= 1
        if not exponent:
            return result
        k += 1
        if k == len(squares):
            squares.append(base * base)
        base = squares[k]


def _int_sign(p: int, q: int) -> int:
    """Exact sign of ``p + q*sqrt(3)`` for integers ``p`` and ``q``."""
    if q == 0:
        return (p > 0) - (p < 0)
    sq = 1 if q > 0 else -1
    if p == 0 or (p > 0) == (q > 0):
        return sq
    # The parts pull in opposite directions: compare p^2 with 3 q^2.
    # Equality is impossible for nonzero integers (sqrt 3 is irrational).
    return -sq if p * p > 3 * q * q else sq


def _scaled_float(n: int, d: int, k: int) -> float:
    """``n * 2**k / d`` correctly rounded, as `float(Fraction)` would give it."""
    return (n << k) / d if k >= 0 else n / (d << -k)


def _scaled(p: int, q: int, d: int) -> "tuple[float, int]":
    """``(f, e)`` with ``(p + q*sqrt(3)) / d == f * 2**e`` and ``|f|`` near 1, for
    ``d > 0``: the one rule by which float views reach float range.  Each int
    quotient is scaled near 1 by exact bit lengths before it is rounded."""
    e = max(p.bit_length(), q.bit_length()) - d.bit_length()
    if (p < 0 < q) or (q < 0 < p):
        # Rounded apart, p and q*sqrt3 of opposite signs cancel: the conjugate form
        # (p^2 - 3q^2) / (p - q*sqrt3) / d adds like signs only.  Its numerator, far
        # below p^2 when they nearly cancel, is scaled by its own bit length.
        n = p * p - 3 * q * q
        s = n.bit_length() - 2 * d.bit_length()
        top = _scaled_float(n, d * d, -s)
        return top / (_scaled_float(p, d, -e) - _scaled_float(q, d, -e) * _SQRT3_FLOAT), s - e
    return _scaled_float(p, d, -e) + _scaled_float(q, d, -e) * _SQRT3_FLOAT, e


def _float(p: int, q: int, d: int) -> float:
    """``(p + q*sqrt(3)) / d`` as a float, for ``d > 0``: by `_scaled` if the parts
    have opposite signs, else the plain sum, which rounds each part once also where
    it is subnormal.  The ints need not be in lowest terms.  Raises `OverflowError`
    past float range."""
    if (p < 0 < q) or (q < 0 < p):
        try:
            return math.ldexp(*_scaled(p, q, d))
        except OverflowError:  # near the largest float, where the plain sum is finite
            pass
    approx = p / d + q / d * _SQRT3_FLOAT  # p / d raises OverflowError past float range
    if math.isinf(approx):  # q / d * sqrt3, or the sum, past float range
        raise OverflowError("exact scalar too large for a float")
    return approx


@total_ordering
class ExactScalar:
    """A value ``rat + root*sqrt(3)`` with exact rational components."""

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, rat: Fraction | int | str = 0, root: Fraction | int | str = 0) -> None:
        r = rat if isinstance(rat, (int, Fraction)) else _from_str(rat)
        s = root if isinstance(root, (int, Fraction)) else _from_str(root)
        rd, sd = r.denominator, s.denominator
        # Both parts are in lowest terms, so over their lcm gcd(p, q, d) == 1.
        d = math.lcm(rd, sd)
        self._p = r.numerator * (d // rd)
        self._q = s.numerator * (d // sd)
        self._d = d

    @property
    def rat(self) -> Fraction:
        return Fraction(self._p, self._d)

    @property
    def root(self) -> Fraction:
        return Fraction(self._q, self._d)

    @staticmethod
    def _parts(value: object) -> "tuple[int, int, int] | None":
        """``(p, q, d)`` of a scalar, int or Fraction; None for anything else."""
        if isinstance(value, ExactScalar):
            return value._p, value._q, value._d
        if isinstance(value, (int, Fraction)):
            return value.numerator, 0, value.denominator
        return None

    def __add__(self, other: object) -> "ExactScalar":
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return _sum(self._p, self._q, self._d, *o)

    __radd__ = __add__

    def __sub__(self, other: object) -> "ExactScalar":
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p, q, d = o
        return _sum(self._p, self._q, self._d, -p, -q, d)

    def __rsub__(self, other: object) -> "ExactScalar":
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return _sum(*o, -self._p, -self._q, self._d)

    def __neg__(self) -> "ExactScalar":
        return _normalised(-self._p, -self._q, self._d)

    def __pos__(self) -> "ExactScalar":
        return self

    def __mul__(self, other: object) -> "ExactScalar":
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p1, q1, d1 = self._p, self._q, self._d
        p2, q2, d2 = o
        # (p1 + q1 s)(p2 + q2 s) with s^2 = 3
        return _normalised(p1 * p2 + 3 * q1 * q2, p1 * q2 + q1 * p2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "ExactScalar":
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return _quotient(self._p, self._q, self._d, *o)

    def __rtruediv__(self, other: object) -> "ExactScalar":
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return _quotient(*o, self._p, self._q, self._d)

    def __pow__(self, exponent: int) -> "ExactScalar":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return ExactScalar(1) / self ** (-exponent)
        return power(self, exponent, lambda: ExactScalar(1))

    def sign(self) -> int:
        """Exact sign of the value, decided without floating point."""
        return _int_sign(self._p, self._q)

    def __eq__(self, other: object) -> bool:
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return o == (self._p, self._q, self._d)

    def __lt__(self, other: object) -> bool:
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p, q, d = o
        # the sign of self - other, over the positive denominator d * self._d
        return _int_sign(self._p * d - p * self._d, self._q * d - q * self._d) < 0

    def __hash__(self) -> int:
        if self._q == 0:
            # matches hash(int)/hash(Fraction) so x == n implies equal hashes
            return hash(self._p) if self._d == 1 else hash(Fraction(self._p, self._d))
        return hash((self.rat, self.root))

    def __bool__(self) -> bool:
        return self._p != 0 or self._q != 0

    def __float__(self) -> float:
        return _float(self._p, self._q, self._d)

    def __str__(self) -> str:
        return _text(self._p, self._q, self._d)

    def __repr__(self) -> str:
        return f"ExactScalar({_ratio(self._p, self._d)}, {_ratio(self._q, self._d)})"


def _text(p: int, q: int, d: int) -> str:
    """The printed form of ``(p + q*sqrt(3)) / d`` for ``d > 0``.

    Each ratio is reduced on its own, so the ints need not be in lowest terms.
    """
    if q == 0:
        return _ratio(p, d)
    root_part = _ratio(abs(q), d) + "*sqrt3"
    joiner = "+" if q > 0 else "-"
    if p == 0:
        return root_part if q > 0 else joiner + root_part
    return _ratio(p, d) + joiner + root_part


def _ratio(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for ``d > 0``, without building the Fraction."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _normalised(p: int, q: int, d: int) -> ExactScalar:
    """The scalar ``(p + q*sqrt(3)) / d`` for ``d > 0``, divided through by the gcd."""
    g = math.gcd(p, q, d)
    scalar = object.__new__(ExactScalar)
    scalar._p, scalar._q, scalar._d = p // g, q // g, d // g
    return scalar


def _sum(p1: int, q1: int, d1: int, p2: int, q2: int, d2: int) -> ExactScalar:
    """``(p1 + q1*sqrt(3)) / d1 + (p2 + q2*sqrt(3)) / d2`` over ``d1 * d2``;
    `_normalised` divides out the gcd."""
    return _normalised(p1 * d2 + p2 * d1, q1 * d2 + q2 * d1, d1 * d2)


def _quotient(p1: int, q1: int, d1: int, p2: int, q2: int, d2: int) -> ExactScalar:
    """``(p1 + q1*sqrt(3)) / d1`` divided by ``(p2 + q2*sqrt(3)) / d2``."""
    # Rationalize with the conjugate p2 - q2*sqrt(3).  The norm
    # p2^2 - 3 q2^2 vanishes only for p2 = q2 = 0 (sqrt 3 is irrational).
    norm = p2 * p2 - 3 * q2 * q2
    if norm == 0:
        raise ZeroDivisionError("division by zero scalar")
    if norm < 0:
        norm, d2 = -norm, -d2
    return _normalised((p1 * p2 - 3 * q1 * q2) * d2, (q1 * p2 - p1 * q2) * d2, d1 * norm)


SQRT3 = ExactScalar(0, 1)
