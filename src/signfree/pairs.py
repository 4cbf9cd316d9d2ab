"""Signed reals written as a pair of nonnegative components.

An :class:`UnsignedPair` ``p{plus,minus}`` (its `_LITERAL`) encodes the
real number ``plus - minus``.  Addition and multiplication are
subtraction-free, so components never go negative; any common excess in
the two components is redundant history that `reduce` strips and that
equality ignores.  Arithmetic, printing and the literal's reading are
the shared cyclic core (:mod:`signfree._cyclic`) on Q(sqrt 3)[C2].
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
    _LITERAL = "p{0,1}"
    _ENTRIES = ("plus component", "minus component")

    def __init__(self, plus: object = 0, minus: object = 0) -> None:
        self._num, self._den = checked_payload((plus, minus), self._ENTRIES)

    def to_signed(self) -> ExactScalar:
        p, q, r, s = self._num
        return _normalised(p - r, q - s, self._den)

    @property
    def plus(self) -> ExactScalar:
        return self._part(0)

    @property
    def minus(self) -> ExactScalar:
        return self._part(1)
