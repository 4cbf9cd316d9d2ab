"""The twelve record classes as they were written with `dataclasses`.

`signfree._record.record` replaced `@dataclass` on these classes.  Each
is kept here with its fields, defaults, `frozen` flag and, for
`RowSelector`, its `__post_init__` check: everything the decorator
generated from.  Other methods are left out.  ``tests/test_records.py``
compares each replacement with its reference.  The classes keep their
names, so `repr` texts can be compared as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

from signfree.matrices import _COLUMNS, _ROWS


@dataclass(frozen=True)
class Expression:
    pos: int


@dataclass(frozen=True)
class ScalarConst(Expression):
    value: object


@dataclass(frozen=True)
class UnitRef(Expression):
    unit: object


@dataclass(frozen=True)
class VectorLit(Expression):
    system: str
    items: tuple


@dataclass(frozen=True)
class Negate(Expression):
    operand: Expression


@dataclass(frozen=True)
class BinOp(Expression):
    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Power(Expression):
    base: Expression
    exponent: int


@dataclass(frozen=True)
class Call(Expression):
    func: str
    arg: Expression


@dataclass(frozen=True)
class RowSelector:
    a: str = "A"
    b: str = "B"
    c: str = "C"

    def __post_init__(self) -> None:
        for row, column in zip(_ROWS, (self.a, self.b, self.c)):
            if column not in _COLUMNS:
                raise ValueError(f"row {row} must select one of {_COLUMNS}, got {column!r}")


@dataclass(frozen=True)
class Table:
    name: str
    row_units: tuple
    col_units: tuple
    cells: tuple


@dataclass
class TableReport:
    table: str
    cells: list


@dataclass
class CheckResult:
    name: str
    samples: int
    failures: int = 0
    detail: str = ""
