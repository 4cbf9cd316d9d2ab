import cmath
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signfree import CyclicMatrix, CyclicTriple, ExactScalar
from signfree.scalars import _normalised

# independent oracle for the complex reading: a + b*w + c*w^2
OMEGA = cmath.exp(2j * cmath.pi / 3)


def complex_oracle(triple):
    a, b, c = (float(x) for x in triple.components)
    return a + b * OMEGA + c * OMEGA**2


nonneg = st.fractions(min_value=0, max_value=9, max_denominator=4)
triples = st.builds(CyclicTriple, nonneg, nonneg, nonneg)

ROOT_THIRD = ExactScalar(0, Fraction(1, 3))  # sqrt(3)/3
I_TRIPLE = CyclicTriple(ROOT_THIRD, 2 * ROOT_THIRD, 0)


def test_multiplication_example():
    product = CyclicTriple(2, 1, 0) * CyclicTriple(0, 2, 1)
    assert product.components == (ExactScalar(1), ExactScalar(4), ExactScalar(4))
    assert product.reduce().components == (ExactScalar(0), ExactScalar(3), ExactScalar(3))


def test_squaring_examples():
    first = CyclicTriple(1, 1, 0) ** 2
    assert first.components == (ExactScalar(1), ExactScalar(2), ExactScalar(1))
    assert first.reduce().components == (ExactScalar(0), ExactScalar(1), ExactScalar(0))
    second = CyclicTriple(1, 2, 0) ** 2
    assert second.components == (ExactScalar(1), ExactScalar(4), ExactScalar(4))
    assert second == CyclicTriple(0, 3, 3)


def test_imaginary_unit_squares_to_minus_one():
    square = I_TRIPLE * I_TRIPLE
    third = Fraction(1, 3)
    assert square.components == (
        ExactScalar(third),
        ExactScalar(4 * third),
        ExactScalar(4 * third),
    )
    assert square.reduce().components == (ExactScalar(0), ExactScalar(1), ExactScalar(1))


def test_conjugate_product_is_real():
    # 4 + 3i and 4 - 3i, whose product is 25
    x = CyclicTriple(ExactScalar(4, 1), ExactScalar(0, 2), 0)
    assert x.conj().components == (ExactScalar(4, 1), ExactScalar(0), ExactScalar(0, 2))
    product = x * x.conj()
    assert product.components == (
        ExactScalar(31, 8),
        ExactScalar(6, 8),
        ExactScalar(6, 8),
    )
    assert product.reduce().components == (ExactScalar(25), ExactScalar(0), ExactScalar(0))
    assert product == CyclicTriple.from_signed(25)


def test_conjugate_fixed_points_and_swap():
    assert CyclicTriple(2, 5, 5).conj().components == CyclicTriple(2, 5, 5).components
    assert CyclicTriple(0, 1, 0).conj().components == (
        ExactScalar(0),
        ExactScalar(0),
        ExactScalar(1),
    )


def test_reduce_examples():
    assert CyclicTriple(2, 3, 1).reduce().components == (
        ExactScalar(1),
        ExactScalar(2),
        ExactScalar(0),
    )
    assert CyclicTriple(5, 5, 5).reduce().components == (ExactScalar(0),) * 3
    assert CyclicTriple(1, 4, 4) == CyclicTriple(0, 3, 3)


def test_zero_chain_and_addition():
    assert CyclicTriple(0, 0, 0) == CyclicTriple(1, 1, 1) == CyclicTriple(5, 5, 5)
    x = CyclicTriple(Fraction(7, 2), 1, 0)
    total = CyclicTriple(1, 1, 1) + x
    assert total.components == tuple(comp + 1 for comp in x.components)
    assert total == x
    assert (CyclicTriple(1, 2, 0) + CyclicTriple(2, 0, 1)).components == (
        ExactScalar(3),
        ExactScalar(2),
        ExactScalar(1),
    )
    assert CyclicTriple(1, 0, 0) != CyclicTriple(0, 1, 0)


def test_norm_examples():
    assert CyclicTriple(3, 0, 5).norm_sq() == ExactScalar(19)
    assert CyclicTriple(7, 7, 7).norm_sq() == ExactScalar(0)
    assert CyclicTriple(5, 4, 4).norm() == 1.0
    assert CyclicTriple(3, 0, 5).norm() == pytest.approx(math.sqrt(19), abs=1e-12)
    assert CyclicTriple(0, 0, 0).norm() == 0.0


@pytest.mark.parametrize(
    "value, expected",
    [
        (CyclicTriple(2**600, 0, 0), 2.0**600),
        (CyclicMatrix.from_rows([[10**200, 0, 0], [0, 0, 0], [0, 0, 0]]), 1e200),
        (CyclicTriple(Fraction(1, 10**200), 0, 0), 1e-200),
    ],
    ids=["square-too-large", "matrix-square-too-large", "square-too-small"],
)
def test_norm_when_square_leaves_float_range(value, expected):
    assert abs(value.norm() - expected) <= math.ulp(expected)


def _two_branch_norm(triple):
    """The norm as computed before it took one path: a float root in the normal range."""
    square = triple.norm_sq()
    try:
        approx = float(square)
    except OverflowError:
        approx = math.inf
    if sys.float_info.min <= approx < math.inf or not square:
        return math.sqrt(max(0.0, approx))
    p, q, d = square._p, square._q, square._d
    k = (max(p.bit_length(), q.bit_length() + 1) - d.bit_length()) // 2
    scaled = _normalised(p, q, d << 2 * k) if k >= 0 else _normalised(p << -2 * k, q << -2 * k, d)
    return math.ldexp(math.sqrt(float(scaled)), k)


def _norm_outcome(norm, triple):
    try:
        return norm(triple).hex()
    except OverflowError as exc:
        return str(exc)


def _wide_triple(rng):
    """A triple of parts with up to 400 digits over up to 320 digits, some of them zero.

    The parts are near 10**scale, with the scale uniform from -320 to 400.
    """
    scale = rng.randint(-320, 400)
    top, bottom = max(scale, 0), max(-scale, 0)
    extra = rng.randint(0, min(400 - top, 320 - bottom))  # digits in both
    top, bottom = top + extra, bottom + extra

    def part():
        if rng.random() < 0.15:
            return 0
        return Fraction(rng.randint(1, 10**top), rng.randint(1, 10**bottom))

    return CyclicTriple(*(ExactScalar(part(), part()) for _ in range(3)))


def test_norm_matches_two_branch_reference():
    rng = random.Random(17)
    triples = [
        CyclicTriple(2**600, 0, 0),
        CyclicTriple(Fraction(1, 10**200), 0, 0),
        CyclicTriple(10**400, 0, 0),
        CyclicTriple(5, 4, 4),
        CyclicTriple(7, 7, 7),
    ]
    triples += [_wide_triple(rng) for _ in range(1000)]
    outcomes = [_norm_outcome(CyclicTriple.norm, triple) for triple in triples]
    assert outcomes == [_norm_outcome(_two_branch_norm, triple) for triple in triples]
    fixed = [(2.0**600).hex(), (1e-200).hex(), "math range error", (1.0).hex(), (0.0).hex()]
    assert outcomes[:5] == fixed
    # squares in the normal float range, past both of its ends, and roots past it are all reached
    norms = [float.fromhex(outcome) for outcome in outcomes if outcome.startswith("0x")]
    assert sum(1e-150 < norm < 1e150 for norm in norms) > 300
    assert sum(norm > 1e160 for norm in norms) > 150
    assert sum(0 < norm < 1e-160 for norm in norms) > 150
    assert outcomes.count("math range error") > 80


@settings(max_examples=100, deadline=None)
@given(nonneg, nonneg)
def test_norm_formula_with_zero_component(a, b):
    x, y = ExactScalar(a), ExactScalar(b)
    assert CyclicTriple(a, b, 0).norm_sq() == x * x + y * y - x * y


def test_to_complex_known_values():
    minus_one = CyclicTriple(0, 1, 1)
    assert abs(minus_one.to_complex() - (-1 + 0j)) < 1e-12
    assert abs(minus_one.to_complex() - complex_oracle(minus_one)) < 1e-12
    assert abs(I_TRIPLE.to_complex() - 1j) < 1e-12
    assert abs(I_TRIPLE.to_complex() - complex_oracle(I_TRIPLE)) < 1e-12
    assert CyclicTriple(1, 0, 0).to_complex() == 1 + 0j


def test_from_complex_known_values():
    assert CyclicTriple.from_complex(-1 + 0j).components == (
        ExactScalar(0),
        ExactScalar(1),
        ExactScalar(1),
    )
    assert CyclicTriple.from_complex(1j).components == I_TRIPLE.components
    assert CyclicTriple.from_complex(0j).components == (ExactScalar(0),) * 3


def test_from_complex_rejects_non_finite():
    with pytest.raises(ValueError):
        CyclicTriple.from_complex(complex(float("inf"), 0))
    with pytest.raises(ValueError):
        CyclicTriple.from_complex(complex(0, float("nan")))


def test_scaling():
    scaled = ExactScalar(Fraction(1, 3)) * CyclicTriple(1, 4, 4)
    third = Fraction(1, 3)
    assert scaled.components == (
        ExactScalar(third),
        ExactScalar(4 * third),
        ExactScalar(4 * third),
    )
    assert (0 * CyclicTriple(2, 3, 1)).components == (ExactScalar(0),) * 3
    assert (1 * CyclicTriple(2, 3, 1)).components == CyclicTriple(2, 3, 1).components
    with pytest.raises(ValueError):
        ExactScalar(-1) * CyclicTriple(1, 0, 0)


def test_negative_components_rejected():
    for position, name in enumerate("abc"):
        for bad, shown in ((-1, "-1"), (Fraction(-1, 2), "-1/2"), (ExactScalar(1, -1), "1-1*sqrt3")):
            entries = [1, 2, 3]
            entries[position] = bad
            with pytest.raises(ValueError) as err:
                CyclicTriple(*entries)
            assert str(err.value) == f"component {name} must be nonnegative, got {shown}"
    with pytest.raises(ValueError) as err:
        CyclicTriple(0, "-0.25", -1)
    assert str(err.value) == "component b must be nonnegative, got -1/4"
    with pytest.raises(TypeError) as err:
        CyclicTriple(0, 0.5, -1)
    assert str(err.value) == "cannot interpret float as an exact scalar"
    with pytest.raises(ValueError) as err:
        CyclicTriple(0, 0, "1/x")
    assert str(err.value) == "Invalid literal for Fraction: '1/x'"


@settings(max_examples=150, deadline=None)
@given(triples, triples, triples)
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=150, deadline=None)
@given(triples, triples, nonneg)
def test_multiplication_is_well_defined_on_classes(x, y, shift):
    assert (x + CyclicTriple(shift, shift, shift)) * y == x * y


@settings(max_examples=150, deadline=None)
@given(triples, triples)
def test_complex_homomorphism(x, y):
    assert abs((x * y).to_complex() - x.to_complex() * y.to_complex()) < 1e-9
    assert abs((x + y).to_complex() - (x.to_complex() + y.to_complex())) < 1e-9


@settings(max_examples=150, deadline=None)
@given(triples, triples)
def test_norm_multiplicativity_exact(x, y):
    assert (x * y).norm_sq() == x.norm_sq() * y.norm_sq()


@settings(max_examples=150, deadline=None)
@given(triples)
def test_norm_matches_complex_modulus(x):
    assert abs(float(x.norm_sq()) - abs(x.to_complex()) ** 2) < 1e-9


@settings(max_examples=150, deadline=None)
@given(triples, triples)
def test_triangle_inequality(x, y):
    assert (x + y).norm() <= x.norm() + y.norm() + 1e-9


@settings(max_examples=150, deadline=None)
@given(triples)
def test_conjugate_product_gives_norm(x):
    assert x * x.conj() == CyclicTriple(x.norm_sq(), 0, 0)


@settings(max_examples=150, deadline=None)
@given(triples)
def test_complex_roundtrip(x):
    rebuilt = CyclicTriple.from_complex(x.to_complex())
    assert rebuilt.is_reduced
    assert abs(rebuilt.to_complex() - x.to_complex()) < 1e-9
