"""The sixteen named unit constants and their multiplication tables.

Eight constants square to the class of +1 (labels 1, -1, J, -J, K, -K,
L, -L) and eight square to the class of -1 (labels i, -i, j, -j, k, -k,
l, -l).  Their entries need 1/3, sqrt(3)/3 and sqrt(3)/9, which is why
the whole package computes over Q(sqrt 3).

Only the sixteen unit matrices and the plus-one table are data.  The
imaginary family is i times the plus-one family, so the imaginary table
is the plus-one table relabelled U -> -U ((iU)(iV) = -UV), the mixed
table is it relabelled U -> iU (U(iV) = i*UV), and the root families
are the units scaled by 3 and 3*sqrt(3).  :func:`verify_unit_table`
recomputes every cell with exact matrix multiplication and compares
classes exactly, by their equality keys: each unit's key is taken once
per table, each product's once, and a product is named by looking its
key up in a key -> unit map in which the first listed unit wins (two
units may be equal in a substituted set).  :func:`match_unit` builds
that map from the units it is given on every call, so it never reads a
stale copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, NamedTuple

from .matrices import CyclicMatrix
from .scalars import ExactScalar

__all__ = [
    "UnitName",
    "PLUS_FAMILY",
    "IMAGINARY_FAMILY",
    "UNIT_VALUES",
    "unit_value",
    "match_unit",
    "Table",
    "TABLES",
    "TABLE_IDS",
    "CellCheck",
    "TableReport",
    "verify_unit_table",
    "ROOTS_OF_NINE",
    "NINE",
    "SCALED_IMAGINARY_ROOTS",
    "MINUS_TWENTY_SEVEN",
]


class UnitName(Enum):
    """The sixteen labels; member names double as CLI tokens."""

    ONE = "1"
    NEG1 = "-1"
    J = "J"
    NJ = "-J"
    K = "K"
    NK = "-K"
    L = "L"
    NL = "-L"
    I = "i"
    NI = "-i"
    JJ = "j"
    NJJ = "-j"
    KK = "k"
    NKK = "-k"
    LL = "l"
    NLL = "-l"

    @property
    def label(self) -> str:
        return self.value

    @classmethod
    def from_label(cls, label: str) -> "UnitName":
        for member in cls:
            if member.value == label:
                return member
        raise ValueError(f"unknown unit label {label!r}")


# the enum lists the plus-one family first, then i times each of its members
PLUS_FAMILY = tuple(UnitName)[:8]
IMAGINARY_FAMILY = tuple(UnitName)[8:]

_ONE_SCALE = ExactScalar(1)
_THIRD = ExactScalar(Fraction(1, 3))
_ROOT_THIRD = ExactScalar(0, Fraction(1, 3))  # sqrt(3)/3
_ROOT_NINTH = ExactScalar(0, Fraction(1, 9))  # sqrt(3)/9

# (scale, printed rows) for every unit
_UNIT_DEFS: dict[UnitName, tuple[ExactScalar, tuple[tuple[int, int, int], ...]]] = {
    UnitName.ONE: (_ONE_SCALE, ((1, 0, 0), (0, 0, 0), (0, 0, 0))),
    UnitName.NEG1: (_ONE_SCALE, ((0, 0, 0), (1, 0, 0), (1, 0, 0))),
    UnitName.J: (_THIRD, ((1, 2, 2), (0, 2, 0), (0, 0, 2))),
    UnitName.NJ: (_THIRD, ((0, 0, 0), (1, 0, 2), (1, 2, 0))),
    UnitName.K: (_THIRD, ((1, 2, 2), (0, 0, 2), (0, 2, 0))),
    UnitName.NK: (_THIRD, ((0, 0, 0), (1, 2, 0), (1, 0, 2))),
    UnitName.L: (_THIRD, ((1, 0, 0), (0, 2, 2), (0, 2, 2))),
    UnitName.NL: (_THIRD, ((0, 2, 2), (1, 0, 0), (1, 0, 0))),
    UnitName.I: (_ROOT_THIRD, ((1, 0, 0), (2, 0, 0), (0, 0, 0))),
    UnitName.NI: (_ROOT_THIRD, ((1, 0, 0), (0, 0, 0), (2, 0, 0))),
    UnitName.JJ: (_ROOT_NINTH, ((1, 0, 4), (2, 4, 2), (0, 2, 0))),
    UnitName.NJJ: (_ROOT_NINTH, ((1, 4, 0), (0, 0, 2), (2, 2, 4))),
    UnitName.KK: (_ROOT_NINTH, ((1, 4, 0), (2, 2, 4), (0, 0, 2))),
    UnitName.NKK: (_ROOT_NINTH, ((1, 0, 4), (0, 2, 0), (2, 4, 2))),
    UnitName.LL: (_ROOT_NINTH, ((1, 2, 2), (2, 0, 0), (0, 4, 4))),
    UnitName.NLL: (_ROOT_NINTH, ((1, 2, 2), (0, 4, 4), (2, 0, 0))),
}

UNIT_VALUES: dict[UnitName, CyclicMatrix] = {
    name: scale * CyclicMatrix.from_rows(rows) for name, (scale, rows) in _UNIT_DEFS.items()
}


def unit_value(unit: "UnitName | str") -> CyclicMatrix:
    """The exact constant matrix for a unit (by member or label)."""
    if isinstance(unit, str):
        unit = UnitName.from_label(unit)
    return UNIT_VALUES[unit]


def _unit_keys(
    units: "Mapping[UnitName, CyclicMatrix]",
) -> "tuple[dict[UnitName, tuple], dict[tuple, UnitName]]":
    """Each unit's equality key, and the unit named by each key: the first
    listed unit with that key, as equal units share one."""
    keys = {name: value._key() for name, value in units.items()}
    names: dict[tuple, UnitName] = {}
    for name, key in keys.items():
        names.setdefault(key, name)
    return keys, names


def match_unit(
    matrix: object, units: "Mapping[UnitName, CyclicMatrix] | None" = None
) -> "UnitName | None":
    """The first listed unit a matrix is equivalent to, if any; None for
    anything that is not a `CyclicMatrix`."""
    if not isinstance(matrix, CyclicMatrix):
        return None
    _, names = _unit_keys(UNIT_VALUES if units is None else units)
    return names.get(matrix._key())


@dataclass(frozen=True)
class Table:
    """An 8x8 product table with fixed row/column unit orders."""

    name: str
    row_units: tuple[UnitName, ...]
    col_units: tuple[UnitName, ...]
    cells: tuple[tuple[UnitName, ...], ...]

    def expected(self, row: UnitName, col: UnitName) -> UnitName:
        return self.cells[self.row_units.index(row)][self.col_units.index(col)]


# the plus-one table: row U, column V holds UV
_PLUS_GRID = tuple(
    tuple(UnitName.from_label(label) for label in row.split())
    for row in (
        "1 -1 J -J K -K L -L",
        "-1 1 -J J -K K -L L",
        "J -J 1 -1 -L L -K K",
        "-J J -1 1 L -L K -K",
        "K -K -L L 1 -1 -J J",
        "-K K L -L -1 1 J -J",
        "L -L -K K -J J 1 -1",
        "-L L K -K J -J -1 1",
    )
)


def _relabel(image: "Mapping[UnitName, UnitName]") -> "tuple[tuple[UnitName, ...], ...]":
    """The plus-one grid with each cell U replaced by image[U]."""
    return tuple(tuple(image[unit] for unit in row) for row in _PLUS_GRID)


# each family alternates U, -U, and IMAGINARY_FAMILY[k] is i * PLUS_FAMILY[k]
_NEGATIVE = {unit: PLUS_FAMILY[k ^ 1] for k, unit in enumerate(PLUS_FAMILY)}
_TIMES_I = dict(zip(PLUS_FAMILY, IMAGINARY_FAMILY))

TABLES: dict[str, Table] = {
    table.name: table
    for table in (
        Table("plus-one-table", PLUS_FAMILY, PLUS_FAMILY, _PLUS_GRID),
        # (iU)(iV) = -UV
        Table("imaginary-table", IMAGINARY_FAMILY, IMAGINARY_FAMILY, _relabel(_NEGATIVE)),
        # U(iV) = i*UV
        Table("mixed-table", PLUS_FAMILY, IMAGINARY_FAMILY, _relabel(_TIMES_I)),
    )
}

TABLE_IDS = tuple(TABLES)


class CellCheck(NamedTuple):
    """One table cell; `computed` is the raw, unreduced product."""

    row: UnitName
    col: UnitName
    expected: UnitName
    computed: CyclicMatrix
    computed_name: "UnitName | None"
    passed: bool


@dataclass
class TableReport:
    table: str
    cells: list[CellCheck]

    @property
    def n_passed(self) -> int:
        return sum(cell.passed for cell in self.cells)

    @property
    def passed(self) -> bool:
        return self.n_passed == len(self.cells)

    @property
    def failures(self) -> list[CellCheck]:
        return [cell for cell in self.cells if not cell.passed]


def verify_unit_table(
    which: str, units: "Mapping[UnitName, CyclicMatrix] | None" = None
) -> TableReport:
    """Recompute every cell of a table and compare classes exactly.

    `units` lets callers substitute a different (for example corrupted)
    set of constants; failures land in the report, never in exceptions.
    """
    if which not in TABLES:
        raise ValueError(f"unknown table {which!r}; expected one of {TABLE_IDS}")
    table = TABLES[which]
    values = UNIT_VALUES if units is None else units
    keys, names = _unit_keys(values)
    cells: list[CellCheck] = []
    for row, expected_row in zip(table.row_units, table.cells):
        for col, expected in zip(table.col_units, expected_row):
            computed = values[row] * values[col]
            key = computed._key()
            cells.append(CellCheck(row, col, expected, computed, names.get(key), key == keys[expected]))
    return TableReport(which, cells)


# 3U (U in the plus-one family) squares to 9 and 3*sqrt(3)*U (U in the
# imaginary family) to -27; all sixteen are integer matrices.
_THREE, _THREE_ROOT_THREE = ExactScalar(3), ExactScalar(0, 3)
ROOTS_OF_NINE: tuple[CyclicMatrix, ...] = tuple(_THREE * UNIT_VALUES[unit] for unit in PLUS_FAMILY)
NINE = ExactScalar(9) * UNIT_VALUES[UnitName.ONE]
SCALED_IMAGINARY_ROOTS: tuple[CyclicMatrix, ...] = tuple(
    _THREE_ROOT_THREE * UNIT_VALUES[unit] for unit in IMAGINARY_FAMILY
)
MINUS_TWENTY_SEVEN = ExactScalar(27) * UNIT_VALUES[UnitName.NEG1]
