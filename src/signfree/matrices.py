"""3x3 nonnegative matrices built from three cyclic-triple columns.

A :class:`CyclicMatrix` is stored and printed with rows a, b, c top to
bottom and columns A, B, C left to right.  Each column is a
:class:`~signfree.triples.CyclicTriple`, and the columns themselves
follow the same cyclic rule (B*B lands in C, B*C in A, C*C in B), which
makes the product commutative, associative and distributive: it is the
shared cyclic core (:mod:`signfree._cyclic`) with three triple parts,
Q(sqrt 3)[C3 x C3].

Two families of additive zeros exist:

* absolute zeros -- every column constant; adding one never changes an
  element's class, so equality quotients by them (column-wise reduce);
* rotation zeros -- one positive entry per row (27 patterns); they have
  norm zero and absorb products to norm zero, but are *not* equivalent
  to the zero class in general.

``characters()`` gives three complex fingerprints that are additive and
multiplicative modulo absolute zeros and separate equivalence classes;
they serve as an independent cross-check on the exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iter_product
from typing import Iterable

from ._cyclic import CyclicElement
from .scalars import ExactScalar, as_scalar, require_nonneg
from .triples import CyclicTriple

__all__ = [
    "CyclicMatrix",
    "RowSelector",
    "absolute_zero",
    "rotation_zero",
    "find_square_roots",
    "characters_close",
]

_OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)
_OMEGA2 = complex(-0.5, -math.sqrt(3.0) / 2.0)

_ROWS = ("a", "b", "c")
_COLUMNS = ("A", "B", "C")


@dataclass(frozen=True)
class RowSelector:
    """Choice of one column per row: the support pattern of a rotation zero."""

    a: str = "A"
    b: str = "B"
    c: str = "C"

    def __post_init__(self) -> None:
        for row, column in zip(_ROWS, (self.a, self.b, self.c)):
            if column not in _COLUMNS:
                raise ValueError(f"row {row} must select one of {_COLUMNS}, got {column!r}")

    @property
    def choices(self) -> tuple[str, str, str]:
        return (self.a, self.b, self.c)

    @classmethod
    def identity(cls) -> "RowSelector":
        return cls("A", "B", "C")

    @classmethod
    def all(cls) -> tuple["RowSelector", ...]:
        return tuple(cls(*choice) for choice in _iter_product(_COLUMNS, repeat=3))

    def __str__(self) -> str:
        return " ".join(f"{row}->{col}" for row, col in zip(_ROWS, self.choices))


def _as_column(value: object, which: str) -> CyclicTriple:
    if isinstance(value, CyclicTriple):
        return value
    if isinstance(value, (tuple, list)) and len(value) == 3:
        return CyclicTriple(*value)
    raise TypeError(f"column {which} must be a CyclicTriple or a 3-sequence")


class CyclicMatrix(CyclicElement):
    """Three cyclic-triple columns A, B, C multiplying cyclically."""

    __slots__ = ()
    _NOUN = "matrices"

    def __init__(self, col_a: object, col_b: object, col_c: object) -> None:
        self._parts = (_as_column(col_a, "A"), _as_column(col_b, "B"), _as_column(col_c, "C"))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[object]]) -> "CyclicMatrix":
        """Build from the printed layout (three rows, top to bottom)."""
        grid = [list(row) for row in rows]
        if len(grid) != 3 or any(len(row) != 3 for row in grid):
            raise ValueError("expected a 3x3 grid of entries")
        return cls(
            CyclicTriple(grid[0][0], grid[1][0], grid[2][0]),
            CyclicTriple(grid[0][1], grid[1][1], grid[2][1]),
            CyclicTriple(grid[0][2], grid[1][2], grid[2][2]),
        )

    @classmethod
    def zero(cls) -> "CyclicMatrix":
        return cls(CyclicTriple.zero(), CyclicTriple.zero(), CyclicTriple.zero())

    @classmethod
    def one(cls) -> "CyclicMatrix":
        return cls(CyclicTriple.one(), CyclicTriple.zero(), CyclicTriple.zero())

    @classmethod
    def from_signed(cls, value: object) -> "CyclicMatrix":
        """Embed a real number into column A."""
        return cls(CyclicTriple.from_signed(value), CyclicTriple.zero(), CyclicTriple.zero())

    @property
    def col_a(self) -> CyclicTriple:
        return self._parts[0]

    @property
    def col_b(self) -> CyclicTriple:
        return self._parts[1]

    @property
    def col_c(self) -> CyclicTriple:
        return self._parts[2]

    @property
    def columns(self) -> tuple[CyclicTriple, CyclicTriple, CyclicTriple]:
        return self._parts

    def rows(self) -> tuple[tuple[ExactScalar, ExactScalar, ExactScalar], ...]:
        """Entries in the printed layout (rows top to bottom)."""
        cols = [col.components for col in self._parts]
        return tuple(tuple(cols[s][r] for s in range(3)) for r in range(3))

    def __mul__(self, other: object) -> "CyclicMatrix":
        return self._times(other)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "CyclicMatrix":
        return super().__pow__(exponent)  # an own entry, see signfree._cyclic

    def reduce(self) -> "CyclicMatrix":
        """Reduce each column independently by its own minimum; idempotent."""
        return self._make(tuple(col.reduce() for col in self._parts))

    @property
    def is_reduced(self) -> bool:
        return all(col.is_reduced for col in self._parts)

    def row_sums(self) -> CyclicTriple:
        """The triple of row sums; an exact homomorphism onto triples."""
        col_a, col_b, col_c = self._parts
        return col_a + col_b + col_c

    def norm_sq(self) -> ExactScalar:
        return self.row_sums().norm_sq()

    def norm(self) -> float:
        return self.row_sums().norm()

    def characters(self) -> tuple[complex, complex, complex]:
        """Three complex fingerprints, constant on equivalence classes."""
        pa, pb, pc = (col.to_complex() for col in self._parts)
        return (
            pa + pb + pc,
            pa + _OMEGA * pb + _OMEGA2 * pc,
            pa + _OMEGA2 * pb + _OMEGA * pc,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CyclicMatrix):
            return NotImplemented
        # column by column, stopping at the first unequal one
        return all(mine == theirs for mine, theirs in zip(self._parts, other._parts))

    def __hash__(self) -> int:
        return hash(("CyclicMatrix",) + tuple(col.reduce().components for col in self._parts))

    def __str__(self) -> str:
        rows = self.rows()
        body = ";".join("[" + ",".join(str(entry) for entry in row) + "]" for row in rows)
        return f"m{{{body}}}"

    def __repr__(self) -> str:
        return "CyclicMatrix({!r}, {!r}, {!r})".format(*self._parts)


def absolute_zero(xi: object, zeta: object, eta: object) -> CyclicMatrix:
    """Constant-column matrix: a member of the zero class."""
    x = require_nonneg(xi, "column A constant")
    z = require_nonneg(zeta, "column B constant")
    e = require_nonneg(eta, "column C constant")
    return CyclicMatrix(CyclicTriple(x, x, x), CyclicTriple(z, z, z), CyclicTriple(e, e, e))


def rotation_zero(selector: RowSelector, xi: object) -> CyclicMatrix:
    """Matrix with entry xi at (row, selector(row)) for each row.

    All 27 such matrices have norm zero, absorb any product to norm
    zero, and leave norms unchanged under addition -- yet in general
    they are not equivalent to the zero class.
    """
    value = as_scalar(xi)
    if value.sign() <= 0:
        raise ValueError(f"rotation zeros need a positive entry, got {value}")
    zero = ExactScalar(0)
    grid = [[zero] * 3 for _ in range(3)]
    for row_index, column in enumerate(selector.choices):
        grid[row_index][_COLUMNS.index(column)] = value
    return CyclicMatrix.from_rows(grid)


def find_square_roots(target: CyclicMatrix, candidates: Iterable[CyclicMatrix]) -> list[CyclicMatrix]:
    """Candidates whose square is equivalent to `target`."""
    return [candidate for candidate in candidates if candidate * candidate == target]


def characters_close(x: CyclicMatrix, y: CyclicMatrix, tol: float = 1e-9) -> bool:
    """Whether all three character fingerprints agree within `tol`."""
    return all(abs(cx - cy) <= tol for cx, cy in zip(x.characters(), y.characters()))
