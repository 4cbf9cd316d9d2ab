"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Tolerances are pinned here: algebraic identities and table cells are
exact (==), complex-plane cross-checks allow 1e-9, floating norms 1e-12.
Property criteria run at full scale: 1000 samples for scalars, pairs and
triples, 500 for matrices, 100 random matrices per rotation zero.
"""

import math
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
    CyclicMatrix,
    CyclicTriple,
    ExactScalar,
    UnsignedPair,
    find_square_roots,
    run_checks,
    unit_value,
    verify_unit_table,
)
from signfree.cli import main as cli_main

SAMPLES = 1000
SEED = 42


@pytest.fixture(scope="module")
def checks():
    results = run_checks(samples=SAMPLES, seed=SEED)
    return {result.name: result for result in results}


def _conclude(label, ok):
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    assert ok, label


def _require(checks, names):
    for name in names:
        result = checks[name]
        assert result.passed, f"{name} ({result.failures}/{result.samples} failed): {result.detail}"


def test_criterion_1_worked_examples():
    ok = True

    # pairs: {3,1} x {4,6} = {18,22}, reduced {0,4}
    product = UnsignedPair(3, 1) * UnsignedPair(4, 6)
    ok &= product.components == (ExactScalar(18), ExactScalar(22))
    ok &= product.reduce().components == (ExactScalar(0), ExactScalar(4))

    # triples
    tri = CyclicTriple(2, 1, 0) * CyclicTriple(0, 2, 1)
    ok &= tri.components == (ExactScalar(1), ExactScalar(4), ExactScalar(4))
    ok &= tri.reduce().components == (ExactScalar(0), ExactScalar(3), ExactScalar(3))
    ok &= (CyclicTriple(1, 1, 0) ** 2).reduce().components == (
        ExactScalar(0),
        ExactScalar(1),
        ExactScalar(0),
    )
    ok &= (CyclicTriple(1, 2, 0) ** 2).reduce().components == (
        ExactScalar(0),
        ExactScalar(3),
        ExactScalar(3),
    )

    # i^2 = -1, exactly in Q(sqrt 3)
    third = Fraction(1, 3)
    i_triple = CyclicTriple(ExactScalar(0, third), ExactScalar(0, 2 * third), 0)
    ok &= (i_triple**2).reduce().components == (ExactScalar(0), ExactScalar(1), ExactScalar(1))

    # conjugate product reduces to (25, 0, 0)
    conj_factor = CyclicTriple(ExactScalar(4, 1), ExactScalar(0, 2), 0)
    conj_product = conj_factor * conj_factor.conj()
    ok &= conj_product.reduce().components == (ExactScalar(25), ExactScalar(0), ExactScalar(0))

    # worked matrix product, raw and reduced
    m1 = CyclicMatrix.from_rows([[0, 3, 2], [2, 2, 0], [1, 0, 3]])
    m2 = CyclicMatrix.from_rows([[0, 3, 1], [1, 0, 0], [3, 2, 1]])
    product_m = m1 * m2
    raw = [[18, 12, 18], [11, 14, 20], [18, 19, 13]]
    reduced = [[7, 0, 5], [0, 2, 7], [7, 7, 0]]
    ok &= all(
        entry == ExactScalar(value)
        for row, expect in zip(product_m.rows(), raw)
        for entry, value in zip(row, expect)
    )
    ok &= all(
        entry == ExactScalar(value)
        for row, expect in zip(product_m.reduce().rows(), reduced)
        for entry, value in zip(row, expect)
    )

    # norms: norm_sq exactly 1, 19, 19; floating norm within 1e-12
    m3 = CyclicMatrix.from_rows(reduced)
    ok &= m1.norm_sq() == ExactScalar(1)
    ok &= m2.norm_sq() == ExactScalar(19)
    ok &= m3.norm_sq() == ExactScalar(19)
    ok &= abs(m1.norm() - 1.0) <= 1e-12
    ok &= abs(m2.norm() - math.sqrt(19)) <= 1e-12
    ok &= abs(m3.norm() - math.sqrt(19)) <= 1e-12

    # rotation-zero products and the further multiplication examples;
    # printed results are reduced forms (the first three raw products
    # carry an extra constant per column where noted)
    examples = [
        ([[0, 3, 2], [2, 2, 0], [1, 0, 3]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
         [[8, 5, 0], [5, 0, 8], [0, 8, 5]]),
        ([[0, 3, 1], [1, 0, 0], [3, 2, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
         [[5, 3, 0], [0, 5, 3], [3, 0, 5]]),
        ([[7, 0, 5], [0, 2, 7], [7, 7, 0]], [[1, 0, 0], [0, 1, 0], [0, 1, 0]],
         [[9, 0, 12], [0, 9, 12], [14, 7, 0]]),
        ([[0, 2, 1], [1, 0, 0], [2, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
         [[0, 0, 1], [0, 0, 2], [2, 1, 0]]),
        ([[0, 2, 1], [1, 0, 0], [2, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
         [[0, 4, 3], [2, 0, 6], [6, 3, 0]]),
        ([[0, 2, 1], [1, 0, 0], [2, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 3]],
         [[0, 4, 4], [2, 0, 8], [8, 4, 0]]),
    ]
    for left, right, expected in examples:
        result = CyclicMatrix.from_rows(left) * CyclicMatrix.from_rows(right)
        ok &= all(
            entry == ExactScalar(value)
            for row, expect in zip(result.reduce().rows(), expected)
            for entry, value in zip(row, expect)
        )
    # the first rotation-zero product is printed in raw (already reduced) form
    first = CyclicMatrix.from_rows(examples[0][0]) * CyclicMatrix.from_rows(examples[0][1])
    ok &= all(
        entry == ExactScalar(value)
        for row, expect in zip(first.rows(), examples[0][2])
        for entry, value in zip(row, expect)
    )

    # the eight square roots of 9, and the eight sqrt3-scaled roots of -27
    ok &= len(find_square_roots(NINE, ROOTS_OF_NINE)) == 8
    ok &= len(find_square_roots(MINUS_TWENTY_SEVEN, SCALED_IMAGINARY_ROOTS)) == 8

    _conclude("criterion 1: worked-example regression suite (exact)", ok)


def test_criterion_2_unit_tables(capsys):
    ok = True
    total = 0
    for which in TABLE_IDS:
        report = verify_unit_table(which)
        total += len(report.cells)
        ok &= report.passed
    ok &= total == 192
    ok &= cli_main(["tables"]) == 0
    capsys.readouterr()  # drop the grid output
    with capsys.disabled():
        _conclude("criterion 2: 192/192 table cells verified, tables exits 0", ok)


def test_criterion_3_ring_laws(checks):
    _require(
        checks,
        ("scalar-field-laws", "pair-ring-laws", "triple-ring-laws", "matrix-ring-laws"),
    )
    assert checks["pair-ring-laws"].samples >= 1000
    assert checks["triple-ring-laws"].samples >= 1000
    assert checks["matrix-ring-laws"].samples >= 500
    _conclude("criterion 3: ring laws at 1000/1000/500 samples (exact)", True)


def test_criterion_4_norms_and_homomorphisms(checks):
    _require(
        checks,
        (
            "triple-norms",
            "matrix-norms",
            "triple-complex-homomorphism",
            "matrix-rowsums-homomorphism",
        ),
    )
    _conclude(
        "criterion 4: norm_sq multiplicativity exact; complex homomorphism within 1e-9;"
        " row-sums homomorphism exact",
        True,
    )


def test_criterion_5_zero_families(checks):
    result = checks["rotation-zeros"]
    assert result.samples >= 100, "need at least 100 random matrices per zero"
    _require(checks, ("rotation-zeros", "matrix-well-defined"))
    _conclude(
        "criterion 5: all 27 rotation zeros (xi = 1 and 7/3) norm-0; products and"
        " additions behave exactly",
        True,
    )


def test_criterion_6_character_oracle(checks):
    _require(checks, ("character-oracle",))
    patterns = set()
    for unit in PLUS_FAMILY:
        values = unit_value(unit).characters()
        rounded = tuple(complex(round(v.real), round(v.imag)) for v in values)
        assert all(abs(v - r) <= 1e-9 for v, r in zip(values, rounded))
        assert all(r in (1, -1) for r in rounded)
        patterns.add(rounded)
    assert len(patterns) == 8
    patterns = set()
    for unit in IMAGINARY_FAMILY:
        values = unit_value(unit).characters()
        rounded = tuple(complex(round(v.real), round(v.imag)) for v in values)
        assert all(abs(v - r) <= 1e-9 for v, r in zip(values, rounded))
        assert all(r in (1j, -1j) for r in rounded)
        patterns.add(rounded)
    assert len(patterns) == 8
    _conclude(
        "criterion 6: unit characters match the (+-1)^3 and (+-i)^3 patterns within"
        " 1e-9; character equality agrees with reduced-form equality",
        True,
    )


def test_criterion_7_round_trips(checks):
    _require(checks, ("pair-roundtrip", "triple-complex-roundtrip"))
    assert checks["pair-roundtrip"].samples >= 1000
    assert checks["triple-complex-roundtrip"].samples >= 1000
    _conclude(
        "criterion 7: signed/pair round trip exact; complex/triple round trip within 1e-9",
        True,
    )
