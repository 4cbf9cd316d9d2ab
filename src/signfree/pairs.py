"""Signed reals written as a pair of nonnegative components.

An :class:`UnsignedPair` ``p{plus,minus}`` encodes the real number
``plus - minus``.  Addition and multiplication are subtraction-free, so
components never go negative; any common excess in the two components
is redundant history that :meth:`UnsignedPair.reduce` strips and that
equality ignores.  The arithmetic is the shared cyclic core
(:mod:`signfree._cyclic`) with two parts: Q(sqrt 3)[C2].
"""

from __future__ import annotations

from ._cyclic import CyclicElement, checked_payload
from .scalars import ExactScalar, _normalised

__all__ = ["UnsignedPair"]


class UnsignedPair(CyclicElement):
    """A real number as ``{plus, minus}`` with both parts >= 0."""

    __slots__ = ()
    _NOUN = "pairs"
    _ORDERS = (2,)

    def __init__(self, plus: object = 0, minus: object = 0) -> None:
        self._num, self._den = checked_payload((plus, minus), ("plus component", "minus component"))

    def to_signed(self) -> ExactScalar:
        p, q, r, s = self._num
        return _normalised(p - r, q - s, self._den)

    @property
    def plus(self) -> ExactScalar:
        return self._part(0)

    @property
    def minus(self) -> ExactScalar:
        return self._part(1)

    def reduce(self) -> "UnsignedPair":
        """Subtract the smaller component from both; idempotent."""
        return self._reduce()

    def __mul__(self, other: object) -> "UnsignedPair":
        return self._times(other)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return "p{{{},{}}}".format(*self.components)

    def __repr__(self) -> str:
        return "UnsignedPair({}, {})".format(*self.components)
