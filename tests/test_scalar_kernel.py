"""Seeded differential test of the integer scalar kernel.

The reference below is the `ExactScalar` the kernel replaced: two
`Fraction` components, with every operation done on Fractions.  The
kernel stores normalised ints ``(p, q, d)`` for ``(p + q*sqrt3) / d``
and must agree with it on every printed form, on hashes (which fix set
and dict iteration order, so printed output too), on signs and order,
and bit for bit on `float()`.
"""

import itertools
import math
import random
from fractions import Fraction
from functools import total_ordering

import pytest

from signfree.scalars import ExactScalar, power

_SQRT3_FLOAT = math.sqrt(3.0)


def _fraction_sign(value):
    return (value > 0) - (value < 0)


@total_ordering
class RefScalar:
    """The Fraction-backed scalar, as it was before the integer kernel."""

    __slots__ = ("_rat", "_root")

    def __init__(self, rat=0, root=0):
        self._rat = rat if isinstance(rat, Fraction) else Fraction(rat)
        self._root = root if isinstance(root, Fraction) else Fraction(root)

    @property
    def rat(self):
        return self._rat

    @property
    def root(self):
        return self._root

    @staticmethod
    def _coerce(value):
        if isinstance(value, RefScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return RefScalar(value)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RefScalar(self._rat + o._rat, self._root + o._root)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RefScalar(self._rat - o._rat, self._root - o._root)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return RefScalar(-self._rat, -self._root)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RefScalar(
            self._rat * o._rat + 3 * self._root * o._root,
            self._rat * o._root + self._root * o._rat,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        denom = o._rat * o._rat - 3 * o._root * o._root
        if denom == 0:
            raise ZeroDivisionError("division by zero scalar")
        num = self * RefScalar(o._rat, -o._root)
        return RefScalar(num._rat / denom, num._root / denom)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, exponent):
        if exponent < 0:
            return RefScalar(1) / self ** (-exponent)
        return power(self, exponent, lambda: RefScalar(1))

    def sign(self):
        sq = _fraction_sign(self._rat)
        sr = _fraction_sign(self._root)
        if sr == 0:
            return sq
        if sq == 0 or sq == sr:
            return sr
        return sq if self._rat * self._rat > 3 * self._root * self._root else sr

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._rat == o._rat and self._root == o._root

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __hash__(self):
        if self._root == 0:
            return hash(self._rat)
        return hash((self._rat, self._root))

    def __bool__(self):
        return bool(self._rat) or bool(self._root)

    def __float__(self):
        q, r = self._rat, self._root
        if (q < 0 < r) or (r < 0 < q):
            # the scale comes from exact bit lengths, as in the kernel: the
            # float exponent of a part that underflows is 0, not its own
            e = max(x.numerator.bit_length() - x.denominator.bit_length() for x in (q, r))
            unit = Fraction(2) ** -e
            q2, r2 = q * unit, r * unit
            scaled = float(q2 * q2 - 3 * r2 * r2) / (float(q2) - float(r2) * _SQRT3_FLOAT)
            try:
                return math.ldexp(scaled, e)
            except OverflowError:
                pass
        approx = float(q) + float(r) * _SQRT3_FLOAT
        if math.isinf(approx):  # since the float views raise past float range
            raise OverflowError("exact scalar too large for a float")
        return approx

    def __str__(self):
        if self._root == 0:
            return str(self._rat)
        root_part = f"{self._root}*sqrt3" if self._root > 0 else f"{-self._root}*sqrt3"
        if self._rat == 0:
            return root_part if self._root > 0 else f"-{root_part}"
        joiner = "+" if self._root > 0 else "-"
        return f"{self._rat}{joiner}{root_part}"

    def __repr__(self):
        return f"ExactScalar({self._rat}, {self._root})"


def _part(rng, sign):
    """A random rational of the given sign: integer, small-denominator or 60-digit."""
    if sign == 0:
        return Fraction(0)
    kind = rng.randrange(3)
    if kind == 0:
        value = Fraction(rng.randint(1, 50))
    elif kind == 1:
        value = Fraction(rng.randint(1, 30), rng.randint(1, 12))
    else:
        value = Fraction(rng.randint(10**59, 10**60), rng.randint(10**59, 10**60))
    return sign * value


def _operand_pairs():
    """Seeded operand pairs; each sign mix of the four parts appears five times."""
    rng = random.Random(20240)
    return [
        tuple((_part(rng, signs[k]), _part(rng, signs[k + 1])) for k in (0, 2))
        for signs in itertools.product((-1, 0, 1), repeat=4)
        for _ in range(5)
    ]


PAIRS = _operand_pairs()
PLAIN = [0, 1, -1, 7, -12, Fraction(1, 2), Fraction(-7, 3), Fraction(0), Fraction(10**61 + 1, 10**60)]
CANCELLING = [(Fraction(21, 4), -3, k) for k in range(1, 41)] + [(Fraction(-21, 4), 3, k) for k in (5, 6, 7)]


def _outcome(fn, *args):
    """`fn(*args)`, or the type and text of what it raised."""
    try:
        return fn(*args)
    except (ZeroDivisionError, OverflowError) as exc:
        return (type(exc), str(exc))


def _float_bits(x):
    value = _outcome(float, x)
    return value.hex() if isinstance(value, float) else value


def assert_same(new, ref):
    if isinstance(ref, tuple):  # both raised
        assert new == ref
        return
    assert isinstance(new, ExactScalar) and isinstance(ref, RefScalar)
    assert (str(new), repr(new)) == (str(ref), repr(ref))
    assert (new.rat, new.root) == (ref.rat, ref.root)
    assert type(new.rat) is Fraction and type(new.root) is Fraction
    assert hash(new) == hash(ref)
    assert (new.sign(), bool(new)) == (ref.sign(), bool(ref))
    assert _float_bits(new) == _float_bits(ref)
    # the stored form is the unique normal one
    assert new._d > 0 and math.gcd(new._p, new._q, new._d) == 1


@pytest.mark.parametrize("index", range(0, len(PAIRS), 5))
def test_kernel_matches_fraction_reference(index):
    for (xr, xs), (yr, ys) in PAIRS[index:index + 5]:
        x, y = ExactScalar(xr, xs), ExactScalar(yr, ys)
        rx, ry = RefScalar(xr, xs), RefScalar(yr, ys)
        assert_same(x, rx)
        assert_same(-x, -rx)
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a / b):
            assert_same(_outcome(op, x, y), _outcome(op, rx, ry))
            for k in PLAIN:
                assert_same(_outcome(op, x, k), _outcome(op, rx, k))
                assert_same(_outcome(op, k, x), _outcome(op, k, rx))
        assert (x == y, x < y, y < x, x <= y) == (rx == ry, rx < ry, ry < rx, rx <= ry)
        for k in PLAIN:
            assert (x == k, k == x, x < k, k < x, x >= k) == (rx == k, k == rx, rx < k, k < rx, rx >= k)


@pytest.mark.parametrize("index", range(0, len(PAIRS), 27))
def test_kernel_powers_match_fraction_reference(index):
    (xr, xs), _ = PAIRS[index]
    x, rx = ExactScalar(xr, xs), RefScalar(xr, xs)
    for n in range(-3, 13):
        assert_same(_outcome(pow, x, n), _outcome(pow, rx, n))


@pytest.mark.parametrize("rat, root, k", CANCELLING)
def test_cancelling_powers_float_bit_identical(rat, root, k):
    # (21/4 - 3*sqrt3)^k: the parts grow like 10.5^k and cancel to about 0.232^k
    assert_same(ExactScalar(rat, root) ** k, RefScalar(rat, root) ** k)


def test_zero_divisor_raises():
    zero = ExactScalar(0)
    x = ExactScalar(Fraction(3, 5), -2)
    for divide in (lambda: x / zero, lambda: x / 0, lambda: x / Fraction(0), lambda: 1 / zero,
                   lambda: Fraction(1, 3) / zero, lambda: zero / zero, lambda: zero ** -1):
        with pytest.raises(ZeroDivisionError, match="^division by zero scalar$"):
            divide()


def test_construction_paths_agree():
    half = [
        ExactScalar(Fraction(2, 4)),
        ExactScalar(1) / 2,
        ExactScalar("1/2"),
        ExactScalar("0.5", 0),
        ExactScalar(3, 1) / 6 - ExactScalar(0, Fraction(1, 6)),
        ExactScalar(0, 1) * ExactScalar(0, Fraction(1, 6)),
    ]
    mixed = [
        ExactScalar(Fraction(1, 2), Fraction(3, 6)),
        ExactScalar(1, 1) / 2,
        ExactScalar("2/4", "0.5"),
        ExactScalar(0, 2) / 4 + Fraction(1, 2),
        (ExactScalar(4, 5) * ExactScalar(1, 1) / ExactScalar(4, 5)) / 2,
    ]
    for group, plain in ((half, Fraction(1, 2)), (mixed, None)):
        for a in group:
            assert a == group[0] and hash(a) == hash(group[0]) and str(a) == str(group[0])
            if plain is not None:
                assert a == plain and hash(a) == hash(plain)
    assert len(set(half)) == 1 and len(set(mixed)) == 1
    assert hash(ExactScalar(5)) == hash(5) and hash(ExactScalar(Fraction(-7, 3))) == hash(Fraction(-7, 3))


@pytest.mark.parametrize(
    "rat, root",
    [
        (10**400, 0),
        (10**308, 10**308),
        (10**308, -5 * 10**307),
        (-(10**308), 6 * 10**307),
        (17976931348623157 * 10**292, Fraction(-1, 3)),
        (Fraction(1, 10**400), 0),
        (Fraction(-3, 10**330), Fraction(2, 10**300)),
    ],
)
def test_float_extremes_bit_identical(rat, root):
    # overflow, the cancelling path near the largest float, and underflow
    assert _float_bits(ExactScalar(rat, root)) == _float_bits(RefScalar(rat, root))
