"""3x3 nonnegative matrices built from three cyclic-triple columns.

A :class:`CyclicMatrix` is printed with rows a, b, c top to bottom and
columns A, B, C left to right.  Each column is a
:class:`~signfree.triples.CyclicTriple`, and the columns themselves
follow the same cyclic rule (B*B lands in C, B*C in A, C*C in B), which
makes the product commutative, associative and distributive: it is
Q(sqrt 3)[C3 x C3].  The shared cyclic core (:mod:`signfree._cyclic`)
holds a matrix as one 9-part element, entry (row r, column s) being
part ``3*s + r``: 18 ints over one shared denominator, multiplied by
the C3 x C3 convolution.  Columns, rows and entries are built from
those ints when asked for.

Two families of additive zeros exist:

* absolute zeros -- every column constant; adding one never changes an
  element's class, so equality quotients by them (column by column);
* rotation zeros -- one positive entry per row (27 patterns); they have
  norm zero and absorb products to norm zero, but are *not* equivalent
  to the zero class in general.

``characters()`` gives three complex fingerprints that are additive and
multiplicative modulo absolute zeros and separate equivalence classes;
they serve as an independent cross-check on the exact arithmetic.  Each
is one rounding of exact ints from ``_character_ints``, whose first six
are ``row_sums``; ``_from_characters`` reads that transform backwards for
the sixteen units, whose characters are 1, -1, i or -i.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import product as _iter_product

from ._cyclic import CyclicElement, checked_payload, join
from ._record import record
from .scalars import ExactScalar, _int_sign, _normalised, _text, as_scalar
from .triples import _CHARACTER_INTS, _COMPONENTS, CyclicTriple, _complex, _norm_sq_ints, _root

__all__ = [
    "CyclicMatrix",
    "RowSelector",
    "absolute_zero",
    "rotation_zero",
    "find_square_roots",
    "characters_close",
]

_ROWS = ("a", "b", "c")
_COLUMNS = ("A", "B", "C")
_COLUMN_INDEX = {column: s for s, column in enumerate(_COLUMNS)}


@record(frozen=True)
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
        return _SELECTORS

    def __str__(self) -> str:
        return " ".join(f"{row}->{col}" for row, col in zip(_ROWS, self.choices))


# all 27 patterns, a -> A first and c fastest; values are immutable, so one tuple serves
_SELECTORS = tuple(RowSelector(*choice) for choice in _iter_product(_COLUMNS, repeat=3))


def _character_ints(num: tuple) -> "tuple[int, ...]":
    """The 18 ints of psi_0, psi_1, psi_2 from a matrix's 18: psi_k is A + w^k*B + w^2k*C
    of the columns, and w*(x, y, z) is (z, x, y), so each power of w shifts a column's
    parts.  psi_0 is the row sums, which `_norm_ints` sums in its own pass."""
    a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5, c0, c1, c2, c3, c4, c5 = num  # columns A, B, C
    return (
        a0 + b0 + c0, a1 + b1 + c1, a2 + b2 + c2, a3 + b3 + c3, a4 + b4 + c4, a5 + b5 + c5,
        a0 + b4 + c2, a1 + b5 + c3, a2 + b0 + c4, a3 + b1 + c5, a4 + b2 + c0, a5 + b3 + c1,
        a0 + b2 + c4, a1 + b3 + c5, a2 + b4 + c0, a3 + b5 + c1, a4 + b0 + c2, a5 + b1 + c3,
    )


def _norm_ints(m: "CyclicMatrix") -> "tuple[int, int, int]":
    """``m.norm_sq()``, the norm of its row sums, as ``(p, q, d)`` ints before the gcd, with ``d > 0``."""
    a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5, c0, c1, c2, c3, c4, c5 = m._num  # columns A, B, C
    return _norm_sq_ints(a0 + b0 + c0, a1 + b1 + c1, a2 + b2 + c2, a3 + b3 + c3, a4 + b4 + c4, a5 + b5 + c5, m._den)


def _column_payload(value: object, which: str) -> "tuple[tuple, int]":
    if isinstance(value, CyclicTriple):
        return value._num, value._den
    if isinstance(value, (tuple, list)) and len(value) == 3:
        return checked_payload(value, _COMPONENTS)
    raise TypeError(f"column {which} must be a CyclicTriple or a 3-sequence")


class CyclicMatrix(CyclicElement):
    """Three cyclic-triple columns A, B, C multiplying cyclically."""

    __slots__ = ()
    _NOUN = "matrices"
    _ORDERS = (3, 3)

    def __init__(self, col_a: object, col_b: object, col_c: object) -> None:
        columns = zip((col_a, col_b, col_c), _COLUMNS)
        self._num, self._den = join([_column_payload(col, which) for col, which in columns])

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[object]]) -> "CyclicMatrix":
        """Build from the printed layout (three rows, top to bottom)."""
        grid = [list(row) for row in rows]
        if len(grid) != 3 or any(len(row) != 3 for row in grid):
            raise ValueError("expected a 3x3 grid of entries")
        # checked column by column, each top to bottom, named by row
        entries = [row[s] for s in range(3) for row in grid]
        return cls._make(*checked_payload(entries, _COMPONENTS * 3))

    @property
    def col_a(self) -> CyclicTriple:
        return self._column(0)

    @property
    def col_b(self) -> CyclicTriple:
        return self._column(1)

    @property
    def col_c(self) -> CyclicTriple:
        return self._column(2)

    def _column(self, s: int) -> CyclicTriple:
        return CyclicTriple._make(self._num[6 * s : 6 * s + 6], self._den)

    @property
    def columns(self) -> tuple[CyclicTriple, CyclicTriple, CyclicTriple]:
        return (self._column(0), self._column(1), self._column(2))

    components = columns

    def rows(self) -> tuple[tuple[ExactScalar, ExactScalar, ExactScalar], ...]:
        """Entries in the printed layout (rows top to bottom)."""
        return tuple(tuple(self._part(3 * s + r) for s in range(3)) for r in range(3))

    def row_sums(self) -> CyclicTriple:
        """The triple of row sums, psi_0; an exact homomorphism onto triples."""
        return CyclicTriple._make(_character_ints(self._num)[:6], self._den)

    def norm_sq(self) -> ExactScalar:
        return _normalised(*_norm_ints(self))

    def norm(self) -> float:
        return _root(*_norm_ints(self))

    def characters(self) -> tuple[complex, complex, complex]:
        """Three complex fingerprints, constant on equivalence classes, each rounded once."""
        chars, den = _character_ints(self._num), self._den
        return _complex(*chars[:6], den), _complex(*chars[6:12], den), _complex(*chars[12:], den)

    def __str__(self) -> str:
        num, d = self._num, self._den
        entries = [_text(num[i], num[i + 1], d) for i in range(0, 18, 2)]  # part 3*s + r is row r of column s
        return "m{" + ";".join("[" + ",".join(entries[r::3]) + "]" for r in range(3)) + "}"

    def __repr__(self) -> str:
        return "CyclicMatrix({!r}, {!r}, {!r})".format(*self.columns)


def _from_characters(pattern: "tuple[complex, complex, complex]") -> CyclicMatrix:
    """The reduced matrix whose `characters()` are `pattern`, each in {1, -1, i, -i}.

    Column s is (1/3) * sum of w^(-k*s) * psi_k over k, and w^-1 is w^2:
    `_character_ints` read on (psi_0, psi_2, psi_1) as columns gives 3 times
    the columns plus constant ones, which `reduce` takes off.
    """
    psi0, psi1, psi2 = (_CHARACTER_INTS[value] for value in pattern)
    return CyclicMatrix._make(_character_ints(psi0 + psi2 + psi1), 9).reduce()


def absolute_zero(xi: object, zeta: object, eta: object) -> CyclicMatrix:
    """Constant-column matrix: a member of the zero class."""
    names = [f"column {column} constant" for column in _COLUMNS]
    (xp, xq, zp, zq, ep, eq), den = checked_payload((xi, zeta, eta), names)
    return CyclicMatrix._make((xp, xq) * 3 + (zp, zq) * 3 + (ep, eq) * 3, den)


def rotation_zero(selector: RowSelector, xi: object) -> CyclicMatrix:
    """Matrix with entry xi at (row, selector(row)) for each row.

    All 27 such matrices have norm zero, absorb any product to norm
    zero, and leave norms unchanged under addition -- yet in general
    they are not equivalent to the zero class.
    """
    p, q, d = ExactScalar._parts(xi) or ExactScalar._parts(as_scalar(xi))
    if _int_sign(p, q) <= 0:
        raise ValueError(f"rotation zeros need a positive entry, got {_normalised(p, q, d)}")
    num = [0] * 18
    for row, column in enumerate(selector.choices):
        k = 2 * (3 * _COLUMN_INDEX[column] + row)  # entry (row, column) is part 3*s + r
        num[k : k + 2] = p, q
    return CyclicMatrix._make(num, d)


def find_square_roots(target: CyclicMatrix, candidates: Iterable[CyclicMatrix]) -> list[CyclicMatrix]:
    """Candidates whose square is equivalent to `target`."""
    return [candidate for candidate in candidates if candidate * candidate == target]


def characters_close(x: CyclicMatrix, y: CyclicMatrix, tol: float = 1e-9) -> bool:
    """Whether all three character fingerprints agree within `tol`."""
    return all(abs(cx - cy) <= tol for cx, cy in zip(x.characters(), y.characters()))
