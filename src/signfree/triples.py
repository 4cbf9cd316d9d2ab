"""Cyclic three-component vectors: complex numbers without signs.

A :class:`CyclicTriple` ``t{a,b,c}`` has nonnegative components and the
cyclic product rule (second basis element squared gives the third, and
so on around).  Adding a constant vector ``(k, k, k)`` never changes the
encoded value, so equality compares reduced forms.  Under that quotient
the system is the complex plane: ``(a, b, c)`` stands for
``a + b*w + c*w**2`` with ``w = exp(2*pi*i/3)``.  The arithmetic is
the shared cyclic core (:mod:`signfree._cyclic`) with three parts:
Q(sqrt 3)[C3].
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._cyclic import CyclicElement
from .scalars import ExactScalar, as_scalar, require_nonneg

__all__ = ["CyclicTriple"]

_HALF = Fraction(1, 2)
_THIRD = Fraction(1, 3)


class CyclicTriple(CyclicElement):
    """Nonnegative ``(a, b, c)`` with cyclic multiplication."""

    __slots__ = ()
    _NOUN = "triples"

    def __init__(self, a: object = 0, b: object = 0, c: object = 0) -> None:
        self._parts = (
            require_nonneg(a, "component a"),
            require_nonneg(b, "component b"),
            require_nonneg(c, "component c"),
        )

    @classmethod
    def from_signed(cls, value: object) -> "CyclicTriple":
        """Embed a real number: v >= 0 as (v,0,0), v < 0 as (0,-v,-v)."""
        scalar = as_scalar(value)
        if scalar.sign() < 0:
            return cls(0, -scalar, -scalar)
        return cls(scalar, 0, 0)

    @classmethod
    def from_complex(cls, value: complex, digits: int = 12) -> "CyclicTriple":
        """Reduced representative of a complex number.

        The real and imaginary parts are rationalized to `digits` decimal
        places, so the round trip through :meth:`to_complex` is accurate
        to roughly 10**-digits.
        """
        z = complex(value)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError("cannot represent a non-finite complex value")
        scale = 10**digits
        x = Fraction(round(Fraction(z.real) * scale), scale)
        y = Fraction(round(Fraction(z.imag) * scale), scale)
        triple = cls(x, 0, 0) if x >= 0 else cls(0, -x, -x)
        if y >= 0:
            # y * (sqrt3/3) * (1, 2, 0) contributes exactly i*y
            triple = triple + cls(ExactScalar(0, y * _THIRD), ExactScalar(0, 2 * y * _THIRD), 0)
        else:
            triple = triple + cls(ExactScalar(0, -y * _THIRD), 0, ExactScalar(0, -2 * y * _THIRD))
        return triple.reduce()

    @property
    def a(self) -> ExactScalar:
        return self._parts[0]

    @property
    def b(self) -> ExactScalar:
        return self._parts[1]

    @property
    def c(self) -> ExactScalar:
        return self._parts[2]

    def __mul__(self, other: object) -> "CyclicTriple":
        return self._times(other)

    __rmul__ = __mul__

    def reduce(self) -> "CyclicTriple":
        """Subtract the minimum component from all three; idempotent."""
        return self._reduce()

    def norm_sq(self) -> ExactScalar:
        """Exact squared length: a^2 + b^2 + c^2 - ab - ac - bc.

        Invariant under adding constant vectors, multiplicative, and zero
        exactly when a = b = c.
        """
        a, b, c = self._parts
        return a * a + b * b + c * c - a * b - a * c - b * c

    def norm(self) -> float:
        return math.sqrt(max(0.0, float(self.norm_sq())))

    def conj(self) -> "CyclicTriple":
        """Swap b and c: the complex conjugate under the quotient."""
        a, b, c = self._parts
        return self._make((a, c, b))

    def to_complex(self) -> complex:
        a, b, c = self._parts
        re = a - (b + c) * ExactScalar(_HALF)
        im = (b - c) * ExactScalar(0, _HALF)
        return complex(float(re), float(im))

    def __eq__(self, other: object) -> bool:
        return super().__eq__(other)  # an own entry, see signfree._cyclic

    __hash__ = CyclicElement.__hash__

    def __str__(self) -> str:
        return "t{{{},{},{}}}".format(*self._parts)

    def __repr__(self) -> str:
        return "CyclicTriple({}, {}, {})".format(*self._parts)
