"""The sixteen named unit constants and their multiplication tables.

Eight constants square to the class of +1 (labels 1, -1, J, -J, K, -K,
L, -L) and eight square to the class of -1 (labels i, -i, j, -j, k, -k,
l, -l).  Their entries need 1/3, sqrt(3)/3 and sqrt(3)/9, which is why
the whole package computes over Q(sqrt 3).

The three 8x8 tables (plus-one family, imaginary family, and the mixed
products) are stored as data; :func:`verify_unit_table` recomputes every
cell with exact matrix multiplication and compares classes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping

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


PLUS_FAMILY = (
    UnitName.ONE,
    UnitName.NEG1,
    UnitName.J,
    UnitName.NJ,
    UnitName.K,
    UnitName.NK,
    UnitName.L,
    UnitName.NL,
)
IMAGINARY_FAMILY = (
    UnitName.I,
    UnitName.NI,
    UnitName.JJ,
    UnitName.NJJ,
    UnitName.KK,
    UnitName.NKK,
    UnitName.LL,
    UnitName.NLL,
)

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


def match_unit(
    matrix: CyclicMatrix, units: "Mapping[UnitName, CyclicMatrix] | None" = None
) -> "UnitName | None":
    """The unit a matrix is equivalent to, if any."""
    table = UNIT_VALUES if units is None else units
    return next((name for name, value in table.items() if value == matrix), None)


@dataclass(frozen=True)
class Table:
    """An 8x8 product table with fixed row/column unit orders."""

    name: str
    row_units: tuple[UnitName, ...]
    col_units: tuple[UnitName, ...]
    cells: tuple[tuple[UnitName, ...], ...]

    def expected(self, row: UnitName, col: UnitName) -> UnitName:
        return self.cells[self.row_units.index(row)][self.col_units.index(col)]


def _grid(rows: list[str]) -> tuple[tuple[UnitName, ...], ...]:
    return tuple(tuple(UnitName.from_label(label) for label in row.split()) for row in rows)


TABLES: dict[str, Table] = {
    "plus-one-table": Table(
        "plus-one-table",
        PLUS_FAMILY,
        PLUS_FAMILY,
        _grid(
            [
                "1 -1 J -J K -K L -L",
                "-1 1 -J J -K K -L L",
                "J -J 1 -1 -L L -K K",
                "-J J -1 1 L -L K -K",
                "K -K -L L 1 -1 -J J",
                "-K K L -L -1 1 J -J",
                "L -L -K K -J J 1 -1",
                "-L L K -K J -J -1 1",
            ]
        ),
    ),
    "imaginary-table": Table(
        "imaginary-table",
        IMAGINARY_FAMILY,
        IMAGINARY_FAMILY,
        _grid(
            [
                "-1 1 -J J -K K -L L",
                "1 -1 J -J K -K L -L",
                "-J J -1 1 L -L K -K",
                "J -J 1 -1 -L L -K K",
                "-K K L -L -1 1 J -J",
                "K -K -L L 1 -1 -J J",
                "-L L K -K J -J -1 1",
                "L -L -K K -J J 1 -1",
            ]
        ),
    ),
    "mixed-table": Table(
        "mixed-table",
        PLUS_FAMILY,
        IMAGINARY_FAMILY,
        _grid(
            [
                "i -i j -j k -k l -l",
                "-i i -j j -k k -l l",
                "j -j i -i -l l -k k",
                "-j j -i i l -l k -k",
                "k -k -l l i -i -j j",
                "-k k l -l -i i j -j",
                "l -l -k k -j j i -i",
                "-l l k -k j -j -i i",
            ]
        ),
    ),
}

TABLE_IDS = tuple(TABLES)


@dataclass(frozen=True)
class CellCheck:
    """One table cell; `computed` is the raw, unreduced product."""

    table: str
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
    values = dict(UNIT_VALUES if units is None else units)
    cells: list[CellCheck] = []
    for row in table.row_units:
        for col in table.col_units:
            expected = table.expected(row, col)
            computed = values[row] * values[col]
            passed = computed == values[expected]
            cells.append(
                CellCheck(
                    table=which,
                    row=row,
                    col=col,
                    expected=expected,
                    computed=computed,
                    computed_name=match_unit(computed, values),
                    passed=passed,
                )
            )
    return TableReport(which, cells)


# The eight integer matrices whose squares are all equivalent to 9
# (they are 3x the plus-one family).
ROOTS_OF_NINE: tuple[CyclicMatrix, ...] = tuple(
    CyclicMatrix.from_rows(rows)
    for rows in (
        ((3, 0, 0), (0, 0, 0), (0, 0, 0)),
        ((0, 0, 0), (3, 0, 0), (3, 0, 0)),
        ((1, 2, 2), (0, 2, 0), (0, 0, 2)),
        ((0, 0, 0), (1, 0, 2), (1, 2, 0)),
        ((1, 2, 2), (0, 0, 2), (0, 2, 0)),
        ((0, 0, 0), (1, 2, 0), (1, 0, 2)),
        ((1, 0, 0), (0, 2, 2), (0, 2, 2)),
        ((0, 2, 2), (1, 0, 0), (1, 0, 0)),
    )
)
NINE = CyclicMatrix.from_rows(((9, 0, 0), (0, 0, 0), (0, 0, 0)))

# The eight integer matrices (3*sqrt(3) times the imaginary family)
# whose squares are all equivalent to -27.
SCALED_IMAGINARY_ROOTS: tuple[CyclicMatrix, ...] = tuple(
    CyclicMatrix.from_rows(rows)
    for rows in (
        ((3, 0, 0), (6, 0, 0), (0, 0, 0)),
        ((3, 0, 0), (0, 0, 0), (6, 0, 0)),
        ((1, 0, 4), (2, 4, 2), (0, 2, 0)),
        ((1, 4, 0), (0, 0, 2), (2, 2, 4)),
        ((1, 4, 0), (2, 2, 4), (0, 0, 2)),
        ((1, 0, 4), (0, 2, 0), (2, 4, 2)),
        ((1, 2, 2), (2, 0, 0), (0, 4, 4)),
        ((1, 2, 2), (0, 4, 4), (2, 0, 0)),
    )
)
MINUS_TWENTY_SEVEN = CyclicMatrix.from_rows(((0, 0, 0), (27, 0, 0), (27, 0, 0)))
