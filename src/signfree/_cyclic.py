"""Shared core of pairs, triples and matrices: Q(sqrt 3)[G] modulo constants.

G is a finite abelian group: C2 for pairs, C3 for triples and C3 x C3
for matrices, whose part ``3*s + r`` is row r of column s.  Parts add
componentwise and multiply by the convolution over G,
``out[k] = sum of x[i]*y[j] over i + j == k``, read from a small index
table built once per shape (`convolution_table`).

An element holds its n parts as one flat tuple of ints
``(p0, q0, p1, q1, ...)`` over one shared denominator ``d > 0``: part i
is ``(p_i + q_i*sqrt(3)) / d``.  The ints and ``d`` have no common
factor, so each operation is int multiplies and adds plus one gcd over
the whole tuple, with no `ExactScalar` in between.  Scalars and triples
are built only at the boundary: constructors, accessors, printing and
the float views.

The parts fall into runs of consecutive parts (the whole element for
pairs and triples, one column for matrices), and a run that is a
constant vector acts as zero.  Equality needs no ordering to see that:
x ~ y exactly when, in every run, x[i] - x[first] == y[i] - y[first],
so equality and hashing compare those differences over ``d`` in lowest
terms (`_key`).  `reduce()`, which subtracts each run's minimum part,
gives the printed form.

Nonnegativity is checked once, where values come from outside: every
constructor and every scale factor passes its entries through
`checked_payload`, which reads each entry as ``(p, q, d)`` ints, tests
its sign with one `_int_sign` and joins the entries over one
denominator.  Sums, products and reductions of nonnegative parts stay
nonnegative, so results are built unchecked by
:meth:`CyclicElement._make`.  The public classes define their own
``__mul__``, ``reduce`` and so on as thin calls into this class, so that
per-class instrumentation (``bench/tracing.py``) can wrap each apart.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Iterable

from .scalars import ExactScalar, _int_sign, _normalised, as_scalar, power

SCALAR_TYPES = (ExactScalar, int, Fraction, str)


def convolution_table(*orders: int) -> tuple:
    """For each part k of C_orders[0] x C_orders[1] x ..., the offsets
    ``(2*i, 2*j)`` into two flat int tuples of the parts with i + j == k.

    Parts are numbered in mixed radix, the last order fastest.
    """
    elements = list(product(*(range(n) for n in orders)))
    index = {element: k for k, element in enumerate(elements)}
    table = [[] for _ in elements]
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            k = index[tuple((a + b) % n for a, b, n in zip(x, y, orders))]
            table[k].append((2 * i, 2 * j))
    return tuple(map(tuple, table))


def convolve(x: tuple, y: tuple, table: tuple) -> list:
    """The flat ints of the product of the flat parts x and y (s^2 = 3)."""
    out = []
    for pairs in table:
        p = r = q = 0
        for i, j in pairs:
            xp, xq, yp, yq = x[i], x[i + 1], y[j], y[j + 1]
            p += xp * yp
            r += xq * yq
            q += xp * yq + xq * yp
        out += (p + 3 * r, q)
    return out


def join(payloads: "list[tuple[tuple, int]]") -> "tuple[tuple, int]":
    """``(ints, d)`` payloads in lowest terms, joined over the lcm of the ``d``.

    The result is in lowest terms too: a prime power that divides the lcm
    exactly divides some payload's ``d``, and that payload's ints are not
    all divisible by the prime.
    """
    den = math.lcm(*[d for _, d in payloads])
    return tuple([n * (den // d) for num, d in payloads for n in num]), den


def checked_payload(entries: "Iterable[object]", names: "Iterable[str]") -> "tuple[tuple, int]":
    """The ``(ints, d)`` payload of outside entries, one part each.

    An entry is an `ExactScalar`, int, Fraction or numeric str; each must
    be nonnegative, and its name in `names` says which one is not.  Ints
    and Fractions are read as they are, with no `ExactScalar` built.
    """
    payloads = []
    for value, what in zip(entries, names):
        p, q, d = ExactScalar._parts(value) or ExactScalar._parts(as_scalar(value))
        if _int_sign(p, q) < 0:
            raise ValueError(f"{what} must be nonnegative, got {_normalised(p, q, d)}")
        payloads.append(((p, q), d))
    return join(payloads)


class CyclicElement:
    """Nonnegative parts of a group algebra element, as ints over one denominator.

    Subclasses set `_NOUN`, their plural for error texts, and `_ORDERS`,
    the cyclic factors of their group; the last factor's order is the
    length of a run.
    """

    __slots__ = ("_num", "_den")

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._TABLE = convolution_table(*cls._ORDERS)
        cls._SIZE = size = 2 * math.prod(cls._ORDERS)  # flat ints per element
        cls._RUN = run = 2 * cls._ORDERS[-1]  # flat ints per run
        # (i, j): flat int i and the same int (p or q) of its run's first part
        cls._KEY_PAIRS = tuple(
            (start + i, start + i % 2) for start in range(0, size, run) for i in range(2, run)
        )

    @classmethod
    def _make(cls, num: "tuple | list", den: int) -> "CyclicElement":
        """An element from nonnegative parts ``num`` over ``den``, in lowest terms."""
        g = math.gcd(*num, den)
        element = object.__new__(cls)
        if g == 1:
            element._num, element._den = tuple(num), den
        else:
            element._num, element._den = tuple([n // g for n in num]), den // g
        return element

    @classmethod
    def zero(cls) -> "CyclicElement":
        return cls._make([0] * cls._SIZE, 1)

    @classmethod
    def one(cls) -> "CyclicElement":
        return cls._make([1] + [0] * (cls._SIZE - 1), 1)

    @classmethod
    def from_signed(cls, value: object) -> "CyclicElement":
        """A real number v, reduced: v >= 0 as part 0, v < 0 as -v in the
        other parts of the first run."""
        scalar = as_scalar(value)
        p, q = scalar._p, scalar._q
        num = [0] * cls._SIZE
        if _int_sign(p, q) < 0:
            num[2 : cls._RUN] = [-p, -q] * (cls._RUN // 2 - 1)
        else:
            num[:2] = p, q
        return cls._make(num, scalar._d)

    def _part(self, i: int) -> ExactScalar:
        return _normalised(self._num[2 * i], self._num[2 * i + 1], self._den)

    @property
    def components(self) -> tuple:
        return tuple(self._part(i) for i in range(len(self._num) // 2))

    def __add__(self, other: object) -> "CyclicElement":
        if not isinstance(other, type(self)):
            return NotImplemented
        dx, dy = self._den, other._den
        if dx == dy:
            return self._make([x + y for x, y in zip(self._num, other._num)], dx)
        return self._make([x * dy + y * dx for x, y in zip(self._num, other._num)], dx * dy)

    def _times(self, other: object) -> "CyclicElement":
        if isinstance(other, type(self)):
            return self._make(convolve(self._num, other._num, self._TABLE), self._den * other._den)
        if isinstance(other, SCALAR_TYPES):
            (p, q), d = checked_payload((other,), ("scale factor",))
            num = self._num
            out = []
            for i in range(0, len(num), 2):
                x, y = num[i], num[i + 1]
                out += (x * p + 3 * y * q, x * q + y * p)
            return self._make(out, self._den * d)
        return NotImplemented

    def __pow__(self, exponent: int) -> "CyclicElement":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError(f"negative powers are not defined for {self._NOUN}")
        return power(self, exponent, self.one)

    def _reduce(self) -> "CyclicElement":
        """Each run less its minimum part, found by exact signs over the common ``d``."""
        num, run = self._num, self._RUN
        out = []
        for start in range(0, len(num), run):
            lp, lq = num[start], num[start + 1]
            for i in range(start + 2, start + run, 2):
                if _int_sign(num[i] - lp, num[i + 1] - lq) < 0:
                    lp, lq = num[i], num[i + 1]
            for i in range(start, start + run, 2):
                out += (num[i] - lp, num[i + 1] - lq)
        return self._make(out, self._den)

    @property
    def is_reduced(self) -> bool:
        return self._reduce()._num == self._num

    def _key(self) -> tuple:
        """Each run's parts less its first part, over ``d`` in lowest terms:
        equal exactly for equivalent elements."""
        num = self._num
        diffs = [num[i] - num[j] for i, j in self._KEY_PAIRS]
        g = math.gcd(*diffs, self._den)
        if g != 1:
            diffs = [n // g for n in diffs]
        return tuple(diffs), self._den // g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))
