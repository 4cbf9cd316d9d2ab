"""Shared core of pairs, triples and matrices: Q(sqrt 3)[C_n] modulo constants.

An element is a tuple of n nonnegative parts.  Parts add componentwise
and multiply by the cyclic convolution ``out[k] = sum_i x[i]*y[(k-i) mod n]``.
Pairs (n = 2) and triples (n = 3) have scalar parts; a matrix has three
triple parts, which makes it Q(sqrt 3)[C3 x C3].

A constant vector acts as zero, and equality needs no ordering to see
that: x ~ y exactly when x[i] - x[0] == y[i] - y[0] for every i, so
equality and hashing compare the parts less the first part (`_key`).
`reduce()`, which subtracts the minimum part, gives the printed form.

Nonnegativity is checked where values come from outside: in the public
constructors and on scale factors.  Sums, products and reductions of
nonnegative parts stay nonnegative, so results are built unchecked by
:meth:`CyclicElement._make`.  The public classes define their own
``__mul__``, ``reduce`` and so on as thin calls into this class, so that
per-class instrumentation (``bench/tracing.py``) can wrap each apart.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import ExactScalar, power, require_nonneg

SCALAR_TYPES = (ExactScalar, int, Fraction, str)


def convolve(x: tuple, y: tuple) -> tuple:
    """Cyclic convolution ``out[k] = sum_i x[i] * y[(k - i) mod n]``."""
    out = []
    for k in range(len(x)):
        acc = x[0] * y[k]
        for i in range(1, len(x)):
            acc = acc + x[i] * y[k - i]  # a negative index wraps mod n
        out.append(acc)
    return tuple(out)


class CyclicElement:
    """Nonnegative parts of a cyclic group algebra element, as a tuple.

    Subclasses set `_NOUN`, their plural for error texts.
    """

    __slots__ = ("_parts",)

    @classmethod
    def _make(cls, parts: tuple) -> "CyclicElement":
        """An element from parts known to be nonnegative, unchecked."""
        element = object.__new__(cls)
        element._parts = parts
        return element

    @classmethod
    def zero(cls) -> "CyclicElement":
        return cls()

    @classmethod
    def one(cls) -> "CyclicElement":
        return cls(1)

    @property
    def components(self) -> tuple:
        return self._parts

    def __add__(self, other: object) -> "CyclicElement":
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._make(tuple(x + y for x, y in zip(self._parts, other._parts)))

    def _times(self, other: object) -> "CyclicElement":
        if isinstance(other, type(self)):
            return self._make(convolve(self._parts, other._parts))
        if isinstance(other, SCALAR_TYPES):
            factor = require_nonneg(other, "scale factor")
            return self._make(tuple(factor * x for x in self._parts))
        return NotImplemented

    def __pow__(self, exponent: int) -> "CyclicElement":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError(f"negative powers are not defined for {self._NOUN}")
        return power(self, exponent, self.one)

    def _reduce(self) -> "CyclicElement":
        low = min(self._parts)
        return self._make(tuple(x - low for x in self._parts))

    @property
    def is_reduced(self) -> bool:
        return min(self._parts).sign() == 0

    def _key(self) -> tuple:
        """The parts less the first part: equal exactly for equivalent elements."""
        first = self._parts[0]
        return tuple(x - first for x in self._parts[1:])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__,) + self._key())
