"""Float views read from ints not in lowest terms.

`scalars._float(p, q, d)` rounds ``(p + q*sqrt3) / d`` with no gcd taken,
and `triples._complex` (so `to_complex` and `characters()`) hands it its
ints unnormalised.  The reference divides out the gcd first, as a scalar
in lowest terms holds them: the results must be bit for bit the same,
and past float range both must raise `OverflowError`.
"""

import cmath
import math
import random
from fractions import Fraction

import pytest

from signfree import UNIT_VALUES, CyclicMatrix, CyclicTriple, RowSelector, rotation_zero
from signfree.scalars import _float, _normalised

FACTORS = (1, 2, 3, 6, 2**64, 3**40, 10**12 + 39)


def outcome(view, *args):
    """The bits of `view(*args)`'s float or complex values, or the type of what it raised."""
    try:
        value = view(*args)
    except OverflowError as err:
        return type(err)
    values = value if isinstance(value, tuple) else (value,)
    return [(z.real.hex(), z.imag.hex()) if isinstance(z, complex) else z.hex() for z in values]


def ref_float(p, q, d):
    return float(_normalised(p, q, d))


def signed_ints(rng, bits):
    """p and q of either sign, each with up to `bits` bits."""
    p = rng.choice((-1, 1)) * rng.randrange(2 ** rng.randrange(bits + 1))
    q = rng.choice((-1, 1)) * rng.randrange(2 ** rng.randrange(bits + 1))
    return p, q


def float_cases():
    """(p, q, d) in lowest terms and beside them, on every scale a float view meets."""
    rng = random.Random(22)
    for k in range(6000):
        bits = (64, 1100, 8, 700)[k % 4]  # ordinary, near 2**1024, tiny with the d below, mixed
        d_bits = (64, 8, 1200, 700)[k % 4]
        p, q = signed_ints(rng, bits)
        yield p, q, rng.randrange(1, 2 ** rng.randrange(1, d_bits + 1) + 1)
    # convergents of sqrt3, p^2 - 3q^2 = 1 (2, 1), ... or -2 (1, 1), ...: the
    # opposite-sign parts cancel to about 1/p, and past about 2**511 the
    # conjugate form's numerator p^2 - 3q^2 over p^2 is a subnormal float
    for p, q in ((2, 1), (1, 1)):
        while p.bit_length() <= 1100:
            for d in (1, 3, 10**30 + 1, 2**700):
                yield p, -q, d
                yield -p, q, d
            p, q = 2 * p + 3 * q, p + 2 * q


def test_float_matches_lowest_terms():
    seen = {"raised": 0, "cancelling": 0, "subnormal numerator": 0}
    for p, q, d in float_cases():
        expected = outcome(ref_float, p, q, d)
        seen["raised"] += expected is OverflowError
        seen["cancelling"] += (p < 0 < q) or (q < 0 < p)
        seen["subnormal numerator"] += abs(p * p - 3 * q * q) * 2**1022 < max(p * p, q * q)
        for g in FACTORS:
            assert outcome(_float, g * p, g * q, g * d) == expected, (p, q, d, g)
    assert all(seen.values()), seen


@pytest.mark.parametrize("value", [3**40 * 10**400, -(3**40) * 10**400, 1, -1])
def test_float_past_float_range_raises_as_lowest_terms(value):
    # each part alone past float range, and the largest and smallest ratios
    for p, q, d in ((value, 0, 3**40), (0, value, 3**40), (value, -value // 2, 3**40), (1, value, 3**40 * 10**500)):
        assert outcome(_float, p, q, d) == outcome(ref_float, p, q, d)


def ref_complex(pa, qa, pb, qb, pc, qc, den):
    """The normalise-then-float form of `triples._complex`."""
    re = _normalised(2 * pa - pb - pc, 2 * qa - qb - qc, 2 * den)
    im = _normalised(3 * (qb - qc), pb - pc, 2 * den)
    return complex(float(re), float(im))


_OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)
_OMEGA2 = complex(-0.5, -math.sqrt(3.0) / 2.0)


def ref_characters(m):
    num, den = m._num, m._den
    pa, pb, pc = (ref_complex(*num[k : k + 6], den) for k in (0, 6, 12))
    chars = (pa + pb + pc, pa + _OMEGA * pb + _OMEGA2 * pc, pa + _OMEGA2 * pb + _OMEGA * pc)
    if not all(map(cmath.isfinite, chars)):
        raise OverflowError("characters too large for a float")
    return chars


def seeded_payloads(parts):
    """Nonnegative payload ints and a denominator: small, with sqrt3 halves, big, near float range."""
    rng = random.Random(parts)
    for k in range(1500):
        bits = (4, 60, 200, 1030)[k % 4]
        num = [rng.randrange(2**bits) if rng.random() < 0.8 else 0 for _ in range(2 * parts)]
        if k % 3 == 0:
            num[1::2] = [0] * parts  # rational entries, as `verify` draws them
        yield num, rng.choice((1, 2, 3, 4, 12, 10**30, rng.randrange(1, 2**bits + 1)))


def test_to_complex_matches_normalised_parts():
    raised = 0
    for num, den in seeded_payloads(3):
        t = CyclicTriple._make(num, den)
        expected = outcome(lambda: ref_complex(*t._num, t._den))
        assert outcome(t.to_complex) == expected, (num, den)
        raised += expected is OverflowError
    assert raised


def test_characters_match_normalised_parts():
    matrices = [CyclicMatrix._make(num, den) for num, den in seeded_payloads(9)]
    matrices += list(UNIT_VALUES.values())
    matrices += [rotation_zero(selector, xi) for selector in RowSelector.all() for xi in (1, Fraction(7, 3))]
    raised = 0
    for m in matrices:
        expected = outcome(ref_characters, m)
        assert outcome(m.characters) == expected, m
        raised += expected is OverflowError
    assert raised
