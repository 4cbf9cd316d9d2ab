"""Signed reals written as a pair of nonnegative components.

An :class:`UnsignedPair` ``p{plus,minus}`` encodes the real number
``plus - minus``.  Addition and multiplication are subtraction-free, so
components never go negative; any common excess in the two components
is redundant history that :meth:`UnsignedPair.reduce` strips.  Equality
compares reduced forms.  The arithmetic is the shared cyclic core
(:mod:`signfree._cyclic`) with two parts: Q(sqrt 3)[C2].
"""

from __future__ import annotations

from ._cyclic import CyclicElement
from .scalars import ExactScalar, as_scalar, require_nonneg

__all__ = ["UnsignedPair"]


class UnsignedPair(CyclicElement):
    """A real number as ``{plus, minus}`` with both parts >= 0."""

    __slots__ = ()
    _NOUN = "pairs"

    def __init__(self, plus: object = 0, minus: object = 0) -> None:
        self._parts = (
            require_nonneg(plus, "plus component"),
            require_nonneg(minus, "minus component"),
        )

    @classmethod
    def from_signed(cls, value: object) -> "UnsignedPair":
        """Reduced pair for a real number of either sign."""
        scalar = as_scalar(value)
        if scalar.sign() < 0:
            return cls(0, -scalar)
        return cls(scalar, 0)

    def to_signed(self) -> ExactScalar:
        return self.plus - self.minus

    @property
    def plus(self) -> ExactScalar:
        return self._parts[0]

    @property
    def minus(self) -> ExactScalar:
        return self._parts[1]

    def reduce(self) -> "UnsignedPair":
        """Subtract the smaller component from both; idempotent."""
        return self._reduce()

    def __mul__(self, other: object) -> "UnsignedPair":
        return self._times(other)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return "p{{{},{}}}".format(*self._parts)

    def __repr__(self) -> str:
        return "UnsignedPair({}, {})".format(*self._parts)
