import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from signfree import (
    IMAGINARY_FAMILY,
    MINUS_TWENTY_SEVEN,
    NINE,
    PLUS_FAMILY,
    ROOTS_OF_NINE,
    SCALED_IMAGINARY_ROOTS,
    TABLE_IDS,
    TABLES,
    UNIT_VALUES,
    CyclicMatrix,
    CyclicTriple,
    ExactScalar,
    RowSelector,
    UnitName,
    UnsignedPair,
    absolute_zero,
    find_square_roots,
    match_unit,
    rotation_zero,
    unit_value,
    verify_unit_table,
)
from signfree.cli import build_parser, run_tables
from signfree.units import CellCheck

from unit_reference import TABLE_CELLS, UNIT_DEFS


def test_sixteen_units_exist_and_are_reduced():
    assert len(UnitName) == 16
    for unit in UnitName:
        value = unit_value(unit)
        assert value.is_reduced
        assert value.reduce() == value
    assert len({unit_value(u) for u in UnitName}) == 16


def test_unit_labels_are_plain_str_values():
    for unit in UnitName:
        assert unit.label == unit.value and type(unit.label) is str, unit
        assert UnitName.from_label(unit.label) is unit, unit
        assert copy.copy(unit) is unit and copy.deepcopy(unit) is unit, unit
        assert pickle.loads(pickle.dumps(unit)) is unit, unit
    with pytest.raises(ValueError, match="unknown unit label 'x'"):
        UnitName.from_label("x")
    assert build_parser().description.endswith(
        " (ONE NEG1 J NJ K NK L NL I NI JJ NJJ KK NKK LL NLL for 1 -1 J -J K -K L -L i -i j -j k -k l -l)."
    )


def test_unit_constants_examples():
    one = unit_value(UnitName.ONE)
    assert one == CyclicMatrix.one()
    third = Fraction(1, 3)
    j = unit_value(UnitName.J)
    assert j.rows()[0] == (ExactScalar(third), ExactScalar(2 * third), ExactScalar(2 * third))
    i = unit_value(UnitName.I)
    assert i.rows()[1][0] == ExactScalar(0, 2 * third)  # 2*sqrt(3)/3


def test_unit_squares():
    for unit in PLUS_FAMILY:
        assert unit_value(unit) ** 2 == unit_value(UnitName.ONE), unit
    for unit in IMAGINARY_FAMILY:
        assert unit_value(unit) ** 2 == unit_value(UnitName.NEG1), unit


def test_units_from_patterns_match_hand_written_reference():
    for unit, (scale, rows) in UNIT_DEFS.items():
        reference = scale * CyclicMatrix.from_rows(rows)
        value = UNIT_VALUES[unit]
        assert (value._num, value._den) == (reference._num, reference._den), unit
    assert list(UNIT_DEFS) == list(UNIT_VALUES)


@pytest.mark.parametrize("which", TABLE_IDS)
def test_table_cells_from_patterns_match_hand_written_grid(which):
    assert TABLES[which].cells == TABLE_CELLS[which]


def test_specific_cells():
    plus = TABLES["plus-one-table"]
    assert plus.expected(UnitName.K, UnitName.L) is UnitName.NJ
    imag = TABLES["imaginary-table"]
    assert imag.expected(UnitName.I, UnitName.JJ) is UnitName.NJ
    mixed = TABLES["mixed-table"]
    assert mixed.expected(UnitName.J, UnitName.I) is UnitName.JJ
    # and the products really give those units
    assert unit_value(UnitName.K) * unit_value(UnitName.L) == unit_value(UnitName.NJ)
    assert unit_value(UnitName.I) * unit_value(UnitName.JJ) == unit_value(UnitName.NJ)
    assert unit_value(UnitName.J) * unit_value(UnitName.I) == unit_value(UnitName.JJ)


@pytest.mark.parametrize("which", TABLE_IDS)
def test_tables_verify_64_of_64(which):
    report = verify_unit_table(which)
    assert len(report.cells) == 64
    assert report.passed, report.failures


@pytest.mark.parametrize("which", ("plus-one-table", "imaginary-table"))
def test_symmetric_tables_equal_their_transpose(which):
    table = TABLES[which]
    for row in table.row_units:
        for col in table.col_units:
            assert table.expected(row, col) is table.expected(col, row)


def test_mixed_table_matches_commuted_products():
    table = TABLES["mixed-table"]
    for row in table.row_units:
        for col in table.col_units:
            expected = unit_value(table.expected(row, col))
            assert unit_value(col) * unit_value(row) == expected


def test_corrupted_units_are_reported_not_raised():
    corrupted = dict(UNIT_VALUES)
    corrupted[UnitName.J] = unit_value(UnitName.K)
    report = verify_unit_table("plus-one-table", corrupted)
    assert not report.passed
    assert any(cell.row is UnitName.J or cell.col is UnitName.J for cell in report.failures)


def malformed_unit_maps():
    """(map, exception, message): a unit missing, a unit given a triple or an
    int, and a key that is not a unit; each error names the unit at fault."""
    missing = dict(UNIT_VALUES)
    del missing[UnitName.NK]
    yield missing, ValueError, "unit map has no value for unit -K (NK)"
    triple = dict(UNIT_VALUES)
    triple[UnitName.JJ] = CyclicTriple.one()
    yield triple, TypeError, "unit map value for unit j (JJ) has type CyclicTriple, not CyclicMatrix"
    number = dict(UNIT_VALUES)
    number[UnitName.ONE] = 1
    yield number, TypeError, "unit map value for unit 1 (ONE) has type int, not CyclicMatrix"
    extra = dict(UNIT_VALUES)
    extra["J"] = UNIT_VALUES[UnitName.J]
    yield extra, ValueError, "unit map has a key 'J' that is not a unit"


@pytest.mark.parametrize("units, error, message", malformed_unit_maps(), ids=("missing", "triple", "int", "extra"))
def test_malformed_unit_maps_raise_one_named_error(capsys, units, error, message):
    for which in TABLE_IDS:
        with pytest.raises(error) as raised:
            verify_unit_table(which, units)
        assert str(raised.value) == message
    for machine in (False, True):
        with pytest.raises(error) as raised:
            run_tables(machine=machine, unit_values=units)
        assert str(raised.value) == message
        assert capsys.readouterr().out == ""  # raised before any line is written


def test_unknown_table_rejected():
    with pytest.raises(ValueError):
        verify_unit_table("no-such-table")


def test_match_unit():
    assert match_unit(CyclicMatrix.one()) is UnitName.ONE
    assert match_unit(CyclicMatrix.from_rows([[0, 0, 0], [1, 0, 0], [1, 0, 0]])) is UnitName.NEG1
    assert match_unit(CyclicMatrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, 0]])) is None


def test_match_unit_of_other_kinds_is_none():
    for other in (CyclicTriple.one(), CyclicTriple(0, 1, 2), UnsignedPair(1, 0), 1, 0, ExactScalar(1), None):
        assert match_unit(other) is None, other
        assert match_unit(other, UNIT_VALUES) is None, other


def test_eight_square_roots_of_nine():
    assert len(ROOTS_OF_NINE) == 8
    accepted = find_square_roots(NINE, ROOTS_OF_NINE)
    assert len(accepted) == 8
    # they are 3x the plus-one family
    for root in ROOTS_OF_NINE:
        assert match_unit(ExactScalar(Fraction(1, 3)) * root) in PLUS_FAMILY


def test_eight_scaled_imaginary_roots():
    assert len(SCALED_IMAGINARY_ROOTS) == 8
    accepted = find_square_roots(MINUS_TWENTY_SEVEN, SCALED_IMAGINARY_ROOTS)
    assert len(accepted) == 8


@pytest.mark.parametrize(
    "family, target",
    ((ROOTS_OF_NINE, NINE), (SCALED_IMAGINARY_ROOTS, MINUS_TWENTY_SEVEN)),
    ids=("roots-of-nine", "scaled-imaginary-roots"),
)
def test_root_families_are_integer_matrices(family, target):
    # every part (p + q*sqrt(3))/d of every root has q == 0 and d == 1
    for root in family:
        assert root._den == 1 and not any(root._num[1::2]), root
        assert root * root == target, root
    assert len(family) == 8
    for a, b in itertools.combinations(family, 2):
        assert a != b, (a, b)


def test_square_root_families_among_units():
    all_units = [unit_value(u) for u in UnitName]
    plus_roots = find_square_roots(unit_value(UnitName.ONE), all_units)
    assert {match_unit(m) for m in plus_roots} == set(PLUS_FAMILY)
    imaginary_roots = find_square_roots(unit_value(UnitName.NEG1), all_units)
    assert {match_unit(m) for m in imaginary_roots} == set(IMAGINARY_FAMILY)


def test_character_fingerprints_of_representative_units():
    # derived by evaluating psi_q = phi(A) + w^q phi(B) + w^2q phi(C); every
    # unit, so a permutation within a family fails here too
    expectations = {
        UnitName.ONE: (1, 1, 1),
        UnitName.NEG1: (-1, -1, -1),
        UnitName.J: (1, -1, 1),
        UnitName.NJ: (-1, 1, -1),
        UnitName.K: (1, 1, -1),
        UnitName.NK: (-1, -1, 1),
        UnitName.L: (-1, 1, 1),
        UnitName.NL: (1, -1, -1),
        UnitName.I: (1j, 1j, 1j),
        UnitName.NI: (-1j, -1j, -1j),
        UnitName.JJ: (1j, -1j, 1j),
        UnitName.NJJ: (-1j, 1j, -1j),
        UnitName.KK: (1j, 1j, -1j),
        UnitName.NKK: (-1j, -1j, 1j),
        UnitName.LL: (-1j, 1j, 1j),
        UnitName.NLL: (1j, -1j, -1j),
    }
    assert list(expectations) == list(UnitName)
    for unit, expected in expectations.items():
        computed = unit_value(unit).characters()
        assert all(abs(c - e) < 1e-12 for c, e in zip(computed, expected)), unit


def test_labels_roundtrip():
    for unit in UnitName:
        assert UnitName.from_label(unit.label) is unit
    with pytest.raises(ValueError):
        UnitName.from_label("q")


# The unit lookup the equality-key table replaced: a linear scan of the
# unit map with `==`, naming the first listed unit that matches.


def ref_match_unit(matrix, units=None):
    table = UNIT_VALUES if units is None else units
    return next((name for name, value in table.items() if value == matrix), None)


def ref_cells(which, units):
    """(row, col, expected, computed, passed, computed_name) of every cell."""
    table = TABLES[which]
    for i, row in enumerate(table.row_units):
        for j, col in enumerate(table.col_units):
            expected = table.cells[i][j]
            computed = units[row] * units[col]
            yield row, col, expected, computed, computed == units[expected], ref_match_unit(computed, units)


def ref_machine_lines(units):
    """The `tables --machine` records, from the reference cells."""
    lines = []
    for which in TABLE_IDS:
        for row, col, expected, computed, passed, name in ref_cells(which, units):
            shown = name.label if name else str(computed.reduce())
            fields = (which, row.label, col.label, expected.label, shown, "pass" if passed else "fail")
            lines.append("\t".join(fields) + "\n")
    return "".join(lines)


CELL_FIELDS = ("row", "col", "expected", "computed", "computed_name", "passed")


def unit_maps():
    """(label, unit map): the stored units, seeded two-unit swaps, two equal
    units, maps with a non-unit value and units in non-reduced form."""
    yield "stored", dict(UNIT_VALUES)
    rng = random.Random("unit-lookup")
    names = list(UnitName)
    for _ in range(12):
        a, b = rng.sample(names, 2)
        units = dict(UNIT_VALUES)
        units[a], units[b] = units[b], units[a]
        yield f"swap {a.label} {b.label}", units
    units = dict(UNIT_VALUES)
    units[UnitName.J] = UNIT_VALUES[UnitName.K]
    yield "J as K", units
    others = [
        CyclicMatrix.zero(),
        ExactScalar(2) * CyclicMatrix.one(),
        rotation_zero(RowSelector.identity(), 1),
        UNIT_VALUES[UnitName.J] + UNIT_VALUES[UnitName.K],
    ]
    for i, other in enumerate(others):
        units = dict(UNIT_VALUES)
        units[rng.choice(names)] = other
        yield f"non-unit {i}", units
    constants = [(Fraction(1, 5), Fraction(2, 7), 0), (ExactScalar(0, Fraction(1, 2)), 3, Fraction(1, 11))]
    for i, (xi, zeta, eta) in enumerate(constants):
        yield f"non-reduced {i}", {name: value + absolute_zero(xi, zeta, eta) for name, value in UNIT_VALUES.items()}
    units = {name: ExactScalar(Fraction(1, 7)) * (ExactScalar(7) * value) for name, value in UNIT_VALUES.items()}
    units[UnitName.NL] = UNIT_VALUES[UnitName.NL] + absolute_zero(Fraction(1, 13), 0, 1)
    yield "non-reduced, mixed", units


def ref_text_lines(units):
    """The `tables` text report, from the reference cells: each grid with its
    `?` cells and `!` marks, its FAIL lines and its count line, then the total."""
    lines = []
    total = passed = 0
    for which in TABLE_IDS:
        table = TABLES[which]
        cells = list(ref_cells(which, units))
        header = "  x |" + "".join(f"{unit.label:>4}" for unit in table.col_units)
        lines += [which, header, "-" * len(header)]
        columns = len(table.col_units)
        for i, row in enumerate(table.row_units):
            shown = []
            for *_, good, name in cells[i * columns : (i + 1) * columns]:
                label = name.label if name else "?"
                shown.append(f"{label:>3}" + ("" if good else "!"))
            lines.append(f"{row.label:>3} | " + " ".join(shown))
        failures = [cell for cell in cells if not cell[4]]
        for row, col, expected, computed, _, _ in failures:
            lines.append(f"FAIL [{row.label} x {col.label}]: expected {expected.label}, computed {computed.reduce()}")
        n_passed = len(cells) - len(failures)
        lines += [f"{which}: {n_passed}/{len(cells)} cells pass", ""]
        total += len(cells)
        passed += n_passed
    lines.append(f"all tables: {passed}/{total} cells pass")
    return "".join(line + "\n" for line in lines)


def test_unit_lookup_matches_linear_scan(capsys):
    texts = []
    for label, units in unit_maps():
        all_passed = True
        for which in TABLE_IDS:
            report = verify_unit_table(which, units)
            for cell, (row, col, expected, computed, passed, name) in zip(report.cells, ref_cells(which, units)):
                where = (label, which, row.label, col.label)
                assert type(cell) is CellCheck and cell._fields == CELL_FIELDS, where
                assert (cell.row, cell.col, cell.expected) == (row, col, expected), where
                assert (cell.computed._num, cell.computed._den) == (computed._num, computed._den), where
                assert cell.passed is passed, where
                assert cell.computed_name is name, where
                assert match_unit(computed, units) is name, where
                assert match_unit(computed) is ref_match_unit(computed), where
                all_passed = all_passed and passed
        assert run_tables(machine=True, unit_values=units) == (0 if all_passed else 1), label
        assert capsys.readouterr().out == ref_machine_lines(units), label
        assert run_tables(unit_values=units) == (0 if all_passed else 1), label
        text = capsys.readouterr().out
        assert text == ref_text_lines(units), label
        texts.append(text)
    # the maps reach every part of the text report: unnamed products, failing
    # cells, FAIL lines with a reduced product, a unit named twice, and both totals
    joined = "".join(texts)
    assert "  ?" in joined and "!" in joined and "computed m{" in joined
    # J's value is K's, so 1 x K is named J, the first listed
    assert "\n  1 |   1  -1   J  -J   J  -K   L  -L\n" in texts[list(dict(unit_maps())).index("J as K")]
    totals = {text.rsplit("\n", 2)[-2] for text in texts}
    assert "all tables: 192/192 cells pass" in totals and len(totals) > 1
