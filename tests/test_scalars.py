import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signfree import SQRT3, ExactScalar, as_scalar
from signfree.cli import main

THIRD = Fraction(1, 3)

# int numerators over a drawn denominator: the values of
# st.fractions(-99, 99, max_denominator=99), drawn faster
fractions99 = st.integers(1, 99).flatmap(lambda d: st.integers(-99 * d, 99 * d).map(lambda n: Fraction(n, d)))
scalars = st.builds(ExactScalar, fractions99, fractions99)


def test_addition_examples():
    assert ExactScalar(THIRD) + ExactScalar(Fraction(2, 3)) == ExactScalar(1)
    assert SQRT3 + ExactScalar(0, -1) == ExactScalar(0)
    assert ExactScalar(4, 1) + SQRT3 == ExactScalar(4, 2)


def test_multiplication_examples():
    third_root = ExactScalar(0, THIRD)  # sqrt(3)/3
    assert third_root * third_root == ExactScalar(THIRD)
    assert ExactScalar(4, 1) * ExactScalar(4, 1) == ExactScalar(19, 8)
    assert ExactScalar(19, 8) - ExactScalar(19, 8) == ExactScalar(0)


def test_division_rationalizes():
    assert 1 / SQRT3 == ExactScalar(0, THIRD)
    assert 6 / SQRT3 == ExactScalar(0, 2)
    assert (ExactScalar(1) / ExactScalar(2, -1)) * ExactScalar(2, -1) == ExactScalar(1)


def test_division_by_zero_is_reported():
    with pytest.raises(ZeroDivisionError):
        ExactScalar(1) / ExactScalar(0)


def test_sign_examples():
    assert ExactScalar(2, -1).sign() == 1  # 4 > 3
    assert ExactScalar(4, -3).sign() == -1  # 16 < 27
    assert ExactScalar(0).sign() == 0
    assert ExactScalar(-2, 1).sign() == -1
    assert ExactScalar(-4, 3).sign() == 1


def test_float_conversion():
    assert float(SQRT3) == math.sqrt(3.0)
    assert float(ExactScalar(Fraction(21, 10))) == 2.1
    assert float(ExactScalar(THIRD)) == 1 / 3


def test_ordering_and_min():
    values = [ExactScalar(2), ExactScalar(0, 1), ExactScalar(1, 1)]
    assert min(values) == SQRT3
    assert sorted(values)[-1] == ExactScalar(1, 1)


def test_string_forms():
    assert str(ExactScalar(0)) == "0"
    assert str(ExactScalar(Fraction(-2, 3))) == "-2/3"
    assert str(SQRT3) == "1*sqrt3"
    assert str(ExactScalar(0, Fraction(-2, 3))) == "-2/3*sqrt3"
    assert str(ExactScalar(THIRD, Fraction(2, 3))) == "1/3+2/3*sqrt3"
    assert str(ExactScalar(4, -1)) == "4-1*sqrt3"


def test_as_scalar_accepts_decimal_strings():
    assert as_scalar("2.1") == ExactScalar(Fraction(21, 10))
    with pytest.raises(TypeError):
        as_scalar(2.1)
    # the constructor's parts are ints, Fractions and numeric strs too, and it refuses the rest alike
    assert ExactScalar("2.1", "1/3") == ExactScalar(Fraction(21, 10), Fraction(1, 3))
    for parts in ((0.5,), (1, 0.5), (Decimal("0.1"),), (float("nan"),)):
        with pytest.raises(TypeError, match=f"^cannot interpret {type(parts[-1]).__name__} as an exact scalar$"):
            ExactScalar(*parts)


def test_hash_matches_plain_numbers():
    assert hash(ExactScalar(5)) == hash(5)
    assert ExactScalar(5) == 5


def test_powers():
    assert ExactScalar(2, 1) ** 0 == ExactScalar(1)
    assert ExactScalar(2, 1) ** 2 == ExactScalar(2, 1) * ExactScalar(2, 1)
    assert SQRT3**-2 == ExactScalar(THIRD)


@settings(max_examples=200, deadline=None)
@given(scalars, scalars, scalars)
def test_field_laws(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * ExactScalar(1) == x


@settings(max_examples=200, deadline=None)
@given(scalars)
def test_sign_square_and_reciprocal(x):
    assert (x * x).sign() >= 0
    approx = float(x)
    if abs(approx) > 1e-9:
        assert x.sign() == (approx > 0) - (approx < 0)
    if x.sign() != 0:
        assert x * (1 / x) == ExactScalar(1)


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_float_of_cancelling_parts(k):
    # (21/4 - 3*sqrt3)^k is about 0.054^k while its parts grow like 10.5^k;
    # rounding the parts apart loses every digit by k = 8.
    value = ExactScalar(Fraction(21, 4), -3) ** k
    with localcontext() as context:
        context.prec = 60
        exact = (Decimal(21) / 4 - 3 * Decimal(3).sqrt()) ** k
    assert math.isclose(float(value), float(exact), rel_tol=1e-12)


def test_float_of_cancelling_parts_stays_finite():
    largest = Fraction(sys.float_info.max)
    assert float(ExactScalar(largest, Fraction(-1, 10**300))) == sys.float_info.max
    # r*sqrt3 just past the float range: the conjugate form overflows, the sum does not
    assert float(ExactScalar(1, -largest / Fraction(math.sqrt(3)))) == -sys.float_info.max
    near_largest = (math.sqrt(3) / 6 - 0.5) * sys.float_info.max
    assert float(ExactScalar(-largest / 2, largest / 6)) == pytest.approx(near_largest, rel=1e-15)
    assert float(ExactScalar(1, -1)) == pytest.approx(1 - math.sqrt(3), rel=1e-15)


SMALLEST_SUBNORMAL = 5e-324


def test_float_of_cancelling_parts_that_underflow():
    # both p/d and q/d underflow a float; the scale comes from exact bit lengths
    tiny = ExactScalar(Fraction(1, 10**400), Fraction(-1, 10**400))
    for value in (tiny, -tiny):
        assert abs(float(value)) <= SMALLEST_SUBNORMAL
    assert math.copysign(1.0, float(tiny)) == -1.0 and math.copysign(1.0, float(-tiny)) == 1.0
    # one part underflows, the other is a normal float: the value is kept
    value = ExactScalar(Fraction(-3, 10**330), Fraction(2, 10**300))
    assert float(value) == pytest.approx(2 * math.sqrt(3) * 1e-300, rel=1e-15)


def test_float_of_subnormal_cancelling_value():
    # (21/4 - 3*sqrt3)^5 is about 4.5e-7; scaled by 10^-304 it is a subnormal
    value = ExactScalar(Fraction(21, 4), -3) ** 5 * ExactScalar(Fraction(1, 10**304))
    with localcontext() as context:
        context.prec = 60
        exact = (Decimal(21) / 4 - 3 * Decimal(3).sqrt()) ** 5 * Decimal(10) ** -304
    assert 0 < float(value) < sys.float_info.min
    assert abs(float(value) - float(exact)) <= SMALLEST_SUBNORMAL


def test_eval_of_underflowing_complex_value(capsys):
    # to_complex gives re = (1 - sqrt3/2) * 10^-400, whose parts both underflow
    text = "tocomplex(t{0,0,1/10}^400*t{0,0,sqrt3} + t{1/10,0,0}^400)"
    assert main(["eval", text]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("0+0*i\n", "")
