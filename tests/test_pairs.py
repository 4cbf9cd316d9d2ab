from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signfree import ExactScalar, UnsignedPair

nonneg = st.fractions(min_value=0, max_value=9, max_denominator=4)
pairs = st.builds(UnsignedPair, nonneg, nonneg)


def test_product_of_opposite_signs():
    # +2 and -2 in arbitrary form
    product = UnsignedPair(3, 1) * UnsignedPair(4, 6)
    assert product.components == (ExactScalar(18), ExactScalar(22))
    assert product.reduce().components == (ExactScalar(0), ExactScalar(4))
    assert product.to_signed() == ExactScalar(-4)


def test_unit_element():
    x = UnsignedPair(Fraction(7, 2), Fraction(1, 3))
    assert UnsignedPair(1, 0) * x == x
    assert UnsignedPair(4, 3) == UnsignedPair(1, 0) == UnsignedPair(2, 1)


def test_zero_absorbs():
    x = UnsignedPair(5, 2)
    smeared = UnsignedPair(1, 1) * x
    assert smeared.components == (ExactScalar(7), ExactScalar(7))
    assert smeared == UnsignedPair(0, 0)


def test_addition_keeps_raw_components():
    # x + (-x) leaves the history visible until reduced
    a = UnsignedPair(0, Fraction(21, 10)) + UnsignedPair(Fraction(21, 10), 0)
    assert a.components == (ExactScalar(Fraction(21, 10)),) * 2
    assert a == UnsignedPair(0, 0)
    total = UnsignedPair(3, 1) + UnsignedPair(4, 6)
    assert total.components == (ExactScalar(7), ExactScalar(7))
    # oracle: the signed values 2 and -2 sum to 0
    assert total.to_signed() == ExactScalar(0)
    assert UnsignedPair(0, 0) + UnsignedPair(5, 2) == UnsignedPair(5, 2)


def test_reduce_examples():
    assert UnsignedPair(18, 22).reduce().components == (ExactScalar(0), ExactScalar(4))
    reduced = UnsignedPair(4, Fraction(61, 10)).reduce()
    assert reduced.components == (ExactScalar(0), ExactScalar(Fraction(21, 10)))
    assert UnsignedPair(0, 4).reduce().components == (ExactScalar(0), ExactScalar(4))


def test_from_signed():
    neg = UnsignedPair.from_signed(Fraction(-21, 10))
    assert neg.components == (ExactScalar(0), ExactScalar(Fraction(21, 10)))
    assert UnsignedPair.from_signed(0).components == (ExactScalar(0), ExactScalar(0))
    assert UnsignedPair.from_signed(4).components == (ExactScalar(4), ExactScalar(0))


def test_to_signed_examples():
    assert UnsignedPair(1, 1).to_signed() == ExactScalar(0)
    assert UnsignedPair(4, 3).to_signed() == ExactScalar(1)


def test_equality_chains():
    assert UnsignedPair(0, Fraction(21, 10)) == UnsignedPair(4, Fraction(61, 10))
    assert UnsignedPair(0, Fraction(21, 10)) == UnsignedPair(Fraction(11, 10), Fraction(32, 10))
    assert UnsignedPair(1, 0) != UnsignedPair(0, 1)


def raised(exc, build):
    """The text of the `exc` that `build()` raises."""
    with pytest.raises(exc) as err:
        build()
    return str(err.value)


def test_negative_components_rejected():
    assert raised(ValueError, lambda: UnsignedPair(-1, 0)) == "plus component must be nonnegative, got -1"
    assert raised(ValueError, lambda: UnsignedPair(0, Fraction(-1, 2))) == (
        "minus component must be nonnegative, got -1/2"
    )
    # checked entry by entry: the first bad entry decides the error
    assert raised(ValueError, lambda: UnsignedPair("-2.5", 1.0)) == (
        "plus component must be nonnegative, got -5/2"
    )
    assert raised(TypeError, lambda: UnsignedPair(1, 2.0)) == "cannot interpret float as an exact scalar"
    assert raised(ValueError, lambda: UnsignedPair("x", 0)) == "Invalid literal for Fraction: 'x'"
    assert raised(ValueError, lambda: ExactScalar(-2) * UnsignedPair(1, 0)) == (
        "scale factor must be nonnegative, got -2"
    )
    assert raised(ValueError, lambda: UnsignedPair(1, 0) * ExactScalar(1, -1)) == (
        "scale factor must be nonnegative, got 1-1*sqrt3"
    )
    assert raised(TypeError, lambda: UnsignedPair.from_signed(1.5)) == (
        "cannot interpret float as an exact scalar"
    )


def test_scaling_and_powers():
    assert (2 * UnsignedPair(3, 1)).components == (ExactScalar(6), ExactScalar(2))
    assert UnsignedPair(3, 1) ** 0 == UnsignedPair(1, 0)
    assert UnsignedPair(3, 1) ** 2 == UnsignedPair(3, 1) * UnsignedPair(3, 1)


@settings(max_examples=200, deadline=None)
@given(pairs, pairs)
def test_signed_homomorphism(x, y):
    assert (x * y).to_signed() == x.to_signed() * y.to_signed()
    assert (x + y).to_signed() == x.to_signed() + y.to_signed()


@settings(max_examples=200, deadline=None)
@given(pairs, pairs, pairs)
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=200, deadline=None)
@given(pairs)
def test_reduce_is_idempotent_and_equivalent(x):
    reduced = x.reduce()
    assert reduced.is_reduced
    assert reduced.reduce().components == reduced.components
    assert x == reduced
