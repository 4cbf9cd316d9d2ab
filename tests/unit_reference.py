"""The sixteen unit matrices and the plus-one table, written out by hand.

`signfree.units` derives both from the units' character patterns.  This
is the data that derivation replaced, kept once as a reference: the
differential test in ``tests/test_units.py`` compares every derived unit
and every cell of the three tables with it, and ``tests/test_cyclic_core.py``
takes its unit operands from it.
"""

from fractions import Fraction

from signfree import IMAGINARY_FAMILY, PLUS_FAMILY, ExactScalar, UnitName

_ONE_SCALE = ExactScalar(1)
_THIRD = ExactScalar(Fraction(1, 3))
_ROOT_THIRD = ExactScalar(0, Fraction(1, 3))  # sqrt(3)/3
_ROOT_NINTH = ExactScalar(0, Fraction(1, 9))  # sqrt(3)/9

# (scale, printed rows) for every unit
UNIT_DEFS = {
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

# the plus-one table: row U, column V holds UV
PLUS_GRID = tuple(
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


def _relabel(image):
    """The plus-one grid with each cell U replaced by image[U]."""
    return tuple(tuple(image[unit] for unit in row) for row in PLUS_GRID)


# each family alternates U, -U, and IMAGINARY_FAMILY[k] is i * PLUS_FAMILY[k]
_NEGATIVE = {unit: PLUS_FAMILY[k ^ 1] for k, unit in enumerate(PLUS_FAMILY)}
_TIMES_I = dict(zip(PLUS_FAMILY, IMAGINARY_FAMILY))

# every table's cells: (iU)(iV) = -UV and U(iV) = i*UV
TABLE_CELLS = {
    "plus-one-table": PLUS_GRID,
    "imaginary-table": _relabel(_NEGATIVE),
    "mixed-table": _relabel(_TIMES_I),
}
