import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signfree import (
    UNIT_VALUES,
    CyclicMatrix,
    CyclicTriple,
    ExactScalar,
    RowSelector,
    absolute_zero,
    characters_close,
    find_square_roots,
    rotation_zero,
)
from signfree.matrices import _character_ints

M1 = CyclicMatrix.from_rows([[0, 3, 2], [2, 2, 0], [1, 0, 3]])
M2 = CyclicMatrix.from_rows([[0, 3, 1], [1, 0, 0], [3, 2, 1]])
PRODUCT_RAW = [[18, 12, 18], [11, 14, 20], [18, 19, 13]]
PRODUCT_REDUCED = CyclicMatrix.from_rows([[7, 0, 5], [0, 2, 7], [7, 7, 0]])

# int numerators over a drawn denominator: the values of
# st.fractions(0, 9, max_denominator=4), in about a third of the time
nonneg = st.integers(1, 4).flatmap(lambda d: st.integers(0, 9 * d).map(lambda n: Fraction(n, d)))
triples = st.builds(CyclicTriple, nonneg, nonneg, nonneg)
matrices = st.builds(CyclicMatrix, triples, triples, triples)

OMEGA = cmath.exp(2j * cmath.pi / 3)


def characters_oracle(matrix):
    """Recompute the characters directly from float entries."""
    rows = [[float(entry) for entry in row] for row in matrix.rows()]
    values = []
    for q in range(3):
        psi = sum(rows[r][s] * OMEGA ** (r + q * s) for r in range(3) for s in range(3))
        values.append(psi)
    return tuple(values)


def rows_equal(matrix, expected_rows):
    return all(
        entry == ExactScalar(value)
        for row, expected in zip(matrix.rows(), expected_rows)
        for entry, value in zip(row, expected)
    )


def test_column_decomposition():
    assert M1.col_a.components == (ExactScalar(0), ExactScalar(2), ExactScalar(1))
    assert M1.col_b.components == (ExactScalar(3), ExactScalar(2), ExactScalar(0))
    assert M1.col_c.components == (ExactScalar(2), ExactScalar(0), ExactScalar(3))


def test_worked_product():
    product = M1 * M2
    assert rows_equal(product, PRODUCT_RAW)
    assert rows_equal(product.reduce(), [[7, 0, 5], [0, 2, 7], [7, 7, 0]])
    assert product == PRODUCT_REDUCED


@pytest.mark.parametrize(
    "left_rows, zero_rows, expected_rows",
    [
        (
            [[0, 3, 2], [2, 2, 0], [1, 0, 3]],
            [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
            [[8, 5, 0], [5, 0, 8], [0, 8, 5]],
        ),
        (
            [[0, 3, 1], [1, 0, 0], [3, 2, 1]],
            [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
            [[5, 3, 0], [0, 5, 3], [3, 0, 5]],
        ),
        (
            [[7, 0, 5], [0, 2, 7], [7, 7, 0]],
            [[1, 0, 0], [0, 1, 0], [0, 1, 0]],
            [[9, 0, 12], [0, 9, 12], [14, 7, 0]],
        ),
    ],
)
def test_products_with_rotation_zeros(left_rows, zero_rows, expected_rows):
    product = CyclicMatrix.from_rows(left_rows) * CyclicMatrix.from_rows(zero_rows)
    assert rows_equal(product.reduce(), expected_rows)
    assert product == CyclicMatrix.from_rows(expected_rows)
    assert product.norm_sq() == ExactScalar(0)


def test_first_rotation_zero_product_is_already_reduced():
    product = M1 * CyclicMatrix.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert rows_equal(product, [[8, 5, 0], [5, 0, 8], [0, 8, 5]])


@pytest.mark.parametrize(
    "right_rows, expected_rows",
    [
        ([[0, 0, 0], [0, 0, 0], [0, 0, 1]], [[0, 0, 1], [0, 0, 2], [2, 1, 0]]),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 2]], [[0, 4, 3], [2, 0, 6], [6, 3, 0]]),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 3]], [[0, 4, 4], [2, 0, 8], [8, 4, 0]]),
    ],
)
def test_further_product_examples(right_rows, expected_rows):
    left = CyclicMatrix.from_rows([[0, 2, 1], [1, 0, 0], [2, 0, 0]])
    product = left * CyclicMatrix.from_rows(right_rows)
    assert rows_equal(product, expected_rows)


def test_row_sums_and_norms():
    assert M1.row_sums().components == (ExactScalar(5), ExactScalar(4), ExactScalar(4))
    sums2 = M2.row_sums()
    assert sums2.components == (ExactScalar(4), ExactScalar(1), ExactScalar(6))
    assert sums2.reduce().components == (ExactScalar(3), ExactScalar(0), ExactScalar(5))
    assert M1.norm_sq() == ExactScalar(1)
    assert M2.norm_sq() == ExactScalar(19)
    assert PRODUCT_REDUCED.norm_sq() == ExactScalar(19)
    assert M1.norm() == 1.0
    assert M2.norm() == pytest.approx(math.sqrt(19), abs=1e-12)
    assert PRODUCT_REDUCED.norm() == pytest.approx(math.sqrt(19), abs=1e-12)


def test_absolute_zeros():
    assert absolute_zero(0, 0, 0) == CyclicMatrix.zero()
    patterned = absolute_zero(1, 2, 3)
    assert rows_equal(patterned, [[1, 2, 3], [1, 2, 3], [1, 2, 3]])
    assert patterned == CyclicMatrix.zero()
    assert patterned.reduce() == CyclicMatrix.zero()
    assert M1 + absolute_zero(0, 0, 0) == M1
    shifted = M1 + absolute_zero(1, 2, 3)
    assert shifted == M1
    assert shifted.col_a.components == tuple(x + 1 for x in M1.col_a.components)
    for which, column in enumerate("ABC"):
        constants = [1, 2, 3]
        constants[which] = Fraction(-1, 3)
        with pytest.raises(ValueError) as err:
            absolute_zero(*constants)
        assert str(err.value) == f"column {column} constant must be nonnegative, got -1/3"
    with pytest.raises(TypeError) as err:
        absolute_zero(0, 0.0, -1)
    assert str(err.value) == "cannot interpret float as an exact scalar"


def test_negative_entries_rejected():
    # from_rows checks column by column (A, B, C), each top to bottom,
    # and names an entry by its row
    for r in range(3):
        for s in range(3):
            grid = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
            grid[r][s] = -1
            with pytest.raises(ValueError) as err:
                CyclicMatrix.from_rows(grid)
            assert str(err.value) == f"component {'abc'[r]} must be nonnegative, got -1", (r, s)
    with pytest.raises(ValueError) as err:
        CyclicMatrix.from_rows([[0, -3, 0], [0, 0, 0], [-2, 0, 0]])
    assert str(err.value) == "component c must be nonnegative, got -2"
    with pytest.raises(TypeError) as err:
        CyclicMatrix.from_rows([[0, 0, 0], [0, 0.5, 0], [0, 0, -1]])
    assert str(err.value) == "cannot interpret float as an exact scalar"
    with pytest.raises(ValueError) as err:
        CyclicMatrix.from_rows([[0, 0, 0], [0, 0], [0, 0, 0]])
    assert str(err.value) == "expected a 3x3 grid of entries"
    # a 3-sequence column, checked before the columns after it
    with pytest.raises(ValueError) as err:
        CyclicMatrix((0, 0, 0), [0, 0, Fraction(-7, 2)], "bad")
    assert str(err.value) == "component c must be nonnegative, got -7/2"
    with pytest.raises(TypeError) as err:
        CyclicMatrix((0, 0, 0), (0, 0), (0, 0, -1))
    assert str(err.value) == "column B must be a CyclicTriple or a 3-sequence"


def test_absolute_zero_products_have_constant_columns():
    product = absolute_zero(1, 1, 1) * M1
    for column in product.columns:
        assert column.a == column.b == column.c


def test_rotation_zero_construction():
    identity = rotation_zero(RowSelector.identity(), Fraction(5))
    assert rows_equal(identity, [[5, 0, 0], [0, 5, 0], [0, 0, 5]])
    cycled = rotation_zero(RowSelector("C", "A", "B"), 1)
    assert rows_equal(cycled, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    doubled = rotation_zero(RowSelector("A", "B", "B"), 1)
    assert rows_equal(doubled, [[1, 0, 0], [0, 1, 0], [0, 1, 0]])
    for xi, shown in ((0, "0"), (-1, "-1"), (ExactScalar(1, -1), "1-1*sqrt3")):
        with pytest.raises(ValueError) as err:
            rotation_zero(RowSelector.identity(), xi)
        assert str(err.value) == f"rotation zeros need a positive entry, got {shown}"
    with pytest.raises(TypeError) as err:
        rotation_zero(RowSelector.identity(), 1.5)
    assert str(err.value) == "cannot interpret float as an exact scalar"
    with pytest.raises(ValueError):
        RowSelector("A", "B", "x")


def test_all_27_rotation_zeros():
    selectors = RowSelector.all()
    assert len(selectors) == 27
    assert len(set(selectors)) == 27
    for selector in selectors:
        zero = rotation_zero(selector, Fraction(7, 3))
        assert zero.norm_sq() == ExactScalar(0)
        assert zero.row_sums().components == (ExactScalar(Fraction(7, 3)),) * 3
    # not equivalent to the zero class in general
    assert rotation_zero(RowSelector.identity(), 1) != CyclicMatrix.zero()


def test_rotation_zero_preserves_norm_on_addition():
    zero = rotation_zero(RowSelector("B", "A", "C"), 2)
    assert (M1 + zero).norm_sq() == M1.norm_sq()
    assert (M1 * zero).norm_sq() == ExactScalar(0)


def test_powers():
    cubed = CyclicMatrix.from_rows([[3, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert rows_equal(cubed**2, [[9, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert cubed**0 == CyclicMatrix.one()
    neg = CyclicMatrix.from_rows([[0, 0, 0], [3, 0, 0], [3, 0, 0]])
    assert neg**2 == CyclicMatrix.from_rows([[9, 0, 0], [0, 0, 0], [0, 0, 0]])
    scaled = CyclicMatrix.from_rows([[3, 0, 0], [6, 0, 0], [0, 0, 0]])
    assert scaled**2 == CyclicMatrix.from_rows([[0, 0, 0], [27, 0, 0], [27, 0, 0]])


def test_find_square_roots():
    nine = CyclicMatrix.from_rows([[9, 0, 0], [0, 0, 0], [0, 0, 0]])
    candidates = [
        CyclicMatrix.from_rows([[3, 0, 0], [0, 0, 0], [0, 0, 0]]),
        CyclicMatrix.from_rows([[0, 0, 0], [3, 0, 0], [3, 0, 0]]),
        M1,
    ]
    roots = find_square_roots(nine, candidates)
    assert roots == candidates[:2]


def test_characters_against_oracle():
    for matrix in (M1, M2, PRODUCT_REDUCED, absolute_zero(1, 2, 3)):
        for computed, oracle in zip(matrix.characters(), characters_oracle(matrix)):
            assert abs(computed - oracle) < 1e-9


def test_characters_of_zero_classes():
    for value in absolute_zero(1, 2, 3).characters():
        assert abs(value) < 1e-12
    assert characters_close(M1 + absolute_zero(2, 0, 1), M1)


def test_character_transform_read_backwards_is_three_times_the_matrix():
    # (psi_0, psi_2, psi_1) read as columns gives back 3*A, 3*B, 3*C, the inverse
    # by which the units are built from their characters, plus an absolute zero:
    # 1 + w + w^2 is (1, 1, 1), so column s gains each other column's entry sum
    rng = random.Random("character round trip")
    payloads = [[rng.randrange(2 ** rng.randrange(1, 101)) for _ in range(18)] for _ in range(300)]
    payloads += [list(m._num) for m in UNIT_VALUES.values()]
    payloads += [list(rotation_zero(s, xi)._num) for s in RowSelector.all() for xi in (1, Fraction(7, 3))]
    assert max(n for num in payloads for n in num).bit_length() == 100
    for num in payloads:
        psi = _character_ints(num)
        back = _character_ints(psi[:6] + psi[12:] + psi[6:12])
        sums = [[sum(num[6 * s + h : 6 * s + 6 : 2]) for h in (0, 1)] for s in range(3)]  # (p, q) sums per column
        zero = [sum(sums[s][k % 2] for s in range(3) if s != k // 6) for k in range(18)]
        assert back == tuple(3 * n + z for n, z in zip(num, zero)), num
        assert CyclicMatrix._make(back, 3) == CyclicMatrix._make(num, 1), num


def test_identity_matrix():
    assert CyclicMatrix.one() * M1 == M1
    assert rows_equal(CyclicMatrix.one() * M1, [[0, 3, 2], [2, 2, 0], [1, 0, 3]])


def test_text_format():
    assert str(M1) == "m{[0,3,2];[2,2,0];[1,0,3]}"
    assert str(CyclicMatrix.from_signed(-2)) == "m{[0,0,0];[2,0,0];[2,0,0]}"


@settings(max_examples=60, deadline=None)
@given(matrices, matrices, matrices)
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=60, deadline=None)
@given(matrices, matrices)
def test_row_sums_homomorphism(x, y):
    assert (x * y).row_sums().components == (x.row_sums() * y.row_sums()).components
    assert (x + y).row_sums().components == (x.row_sums() + y.row_sums()).components


@settings(max_examples=60, deadline=None)
@given(matrices, matrices)
def test_norm_multiplicativity_exact(x, y):
    assert (x * y).norm_sq() == x.norm_sq() * y.norm_sq()


@settings(max_examples=60, deadline=None)
@given(matrices, matrices, nonneg, nonneg, nonneg)
def test_multiplication_well_defined_on_classes(x, y, r, s, t):
    assert (x + absolute_zero(r, s, t)) * y == x * y


@settings(max_examples=60, deadline=None)
@given(matrices, matrices)
def test_characters_separate_classes(x, y):
    assert (x == y) == characters_close(x, y)
