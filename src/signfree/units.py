"""The sixteen named unit constants and their multiplication tables.

Eight constants square to the class of +1 (labels 1, -1, J, -J, K, -K,
L, -L) and eight square to the class of -1 (labels i, -i, j, -j, k, -k,
l, -l).  Their entries need 1/3, sqrt(3)/3 and sqrt(3)/9, which is why
the whole package computes over Q(sqrt 3).

The only unit data are the characters (psi_0, psi_1, psi_2) of 1, J, K
and L, four sign vectors, as each unit is fixed by its characters.  In
enum order each is followed by its negative, and the imaginary family
is i times the plus-one family.  Each unit matrix is the inverse
character transform of its pattern (`matrices._from_characters`), each
table cell the unit whose pattern is the row's times the column's, part
by part, and the root families are the units scaled by 3 and 3*sqrt(3).
:func:`verify_unit_table` does not rest on the characters: it
recomputes every cell with exact matrix multiplication and compares
classes exactly, by their equality keys: each unit's value and key are
read once per table, each product and its key once per cell, and a
product is named by looking its key up in a key -> unit map in which
the first listed unit wins (two units may be equal in a substituted
set).  :func:`match_unit` builds that map from the units it is given on
every call, so it never reads a stale copy.  A unit's `label` (its
value) is a plain str attribute of the member, and a member hashes by
identity.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from enum import Enum

from ._record import record
from .matrices import CyclicMatrix, _from_characters
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

    # members are singletons compared by identity: no Python-level Enum.__hash__ per lookup
    __hash__ = object.__hash__

    def __init__(self, label: str) -> None:
        self.label = label  # the value, as a plain attribute: no descriptor on each read

    @classmethod
    def from_label(cls, label: str) -> "UnitName":
        for member in cls:
            if member.label == label:
                return member
        raise ValueError(f"unknown unit label {label!r}")


# the enum lists the plus-one family first, then i times each of its members
PLUS_FAMILY = tuple(UnitName)[:8]
IMAGINARY_FAMILY = tuple(UnitName)[8:]

# the characters (psi_0, psi_1, psi_2) of 1, J, K and L, which fix each unit; in enum
# order each is followed by its negative, and the imaginary half is i times them
_SIGNS = ((1, 1, 1), (1, -1, 1), (1, 1, -1), (-1, 1, 1))
_PATTERNS: dict[UnitName, tuple] = dict(
    zip(UnitName, [tuple(i * sign * x for x in signs) for i in (1, 1j) for signs in _SIGNS for sign in (1, -1)])
)
_UNIT_OF_PATTERN = {pattern: name for name, pattern in _PATTERNS.items()}

UNIT_VALUES: dict[UnitName, CyclicMatrix] = {name: _from_characters(pattern) for name, pattern in _PATTERNS.items()}


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


@record(frozen=True)
class Table:
    """An 8x8 product table with fixed row/column unit orders."""

    name: str
    row_units: tuple[UnitName, ...]
    col_units: tuple[UnitName, ...]
    cells: tuple[tuple[UnitName, ...], ...]

    def expected(self, row: UnitName, col: UnitName) -> UnitName:
        return self.cells[self.row_units.index(row)][self.col_units.index(col)]


def _cells(rows: "tuple[UnitName, ...]", cols: "tuple[UnitName, ...]") -> "tuple[tuple[UnitName, ...], ...]":
    """Row U, column V holds the unit whose pattern is U's times V's, part by
    part, as characters are multiplicative."""
    return tuple(
        tuple(_UNIT_OF_PATTERN[tuple(x * y for x, y in zip(_PATTERNS[row], _PATTERNS[col]))] for col in cols)
        for row in rows
    )


TABLES: dict[str, Table] = {
    name: Table(name, rows, cols, _cells(rows, cols))
    for name, rows, cols in (
        ("plus-one-table", PLUS_FAMILY, PLUS_FAMILY),
        ("imaginary-table", IMAGINARY_FAMILY, IMAGINARY_FAMILY),
        ("mixed-table", PLUS_FAMILY, IMAGINARY_FAMILY),
    )
}

TABLE_IDS = tuple(TABLES)


# one table cell; `computed` is the raw, unreduced product and `computed_name` a UnitName or None
CellCheck = namedtuple("CellCheck", "row col expected computed computed_name passed", module=__name__)


@record()
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
    columns = [(col, values[col]) for col in table.col_units]  # each unit's value read once
    cells: list[CellCheck] = []
    for row, expected_row in zip(table.row_units, table.cells):
        x = values[row]
        for (col, y), expected in zip(columns, expected_row):
            computed = x * y
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
