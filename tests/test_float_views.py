"""Float views: one scaling rule, ints not in lowest terms, exact oracles.

`scalars._scaled(p, q, d)` is the one rule that brings ``(p + q*sqrt3) / d``
into float range.  `scalars._float` reads it where the parts have opposite
signs, `triples._complex` (so `to_complex` and `characters()`) hands
`_float` its ints unnormalised, and the triple and matrix `norm` take the
root of its result for the norm's ints.  Three references check them:

* the normalise-then-float form, as a scalar in lowest terms holds its
  ints: a common factor must change no bit, and past float range both
  must raise `OverflowError`;
* the former `_float` and `norm`, kept here, which scaled the cancelling
  form's numerator by the parts' bit lengths and so let it fall into the
  subnormal floats: bit for bit the same wherever that numerator was at
  least 2**-1000;
* 1,500-digit `decimal` values: within 2 ulp wherever the exact value is
  a normal float, also on near-cancelling sqrt3 convergents, where the
  former code printed 0, and on each part of the characters psi_0, psi_1,
  psi_2, worked out exactly from a matrix's printed rows, where the former
  `characters()`, kept here, summed rounded columns and left ~1e-16 in
  place of an exact 0.
"""

import decimal
import math
import random
import sys
from fractions import Fraction

import pytest

from signfree import UNIT_VALUES, CyclicMatrix, CyclicTriple, ExactScalar, RowSelector, rotation_zero
from signfree.cli import _eval_line
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


def ref_complex(pa, qa, pb, qb, pc, qc, den, to_float=ref_float):
    """`triples._complex` with `to_float` for `_float`; by default the normalise-then-float form."""
    return complex(to_float(2 * pa - pb - pc, 2 * qa - qb - qc, 2 * den), to_float(3 * (qb - qc), pb - pc, 2 * den))


# The former `characters()`, kept as a reference: each column's complex
# value rounded on its own, then summed as pa + w*pb + w^2*pc in floats.

_OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)
_OMEGA2 = complex(-0.5, -math.sqrt(3.0) / 2.0)


def former_characters(m):
    num, den = m._num, m._den
    pa, pb, pc = (ref_complex(*num[k : k + 6], den) for k in (0, 6, 12))
    return (pa + pb + pc, pa + _OMEGA * pb + _OMEGA2 * pc, pa + _OMEGA2 * pb + _OMEGA * pc)


# w^j is cos_j + i*sin_j*sqrt3, j mod 3
_COS = (Fraction(1), Fraction(-1, 2), Fraction(-1, 2))
_SIN = (Fraction(0), Fraction(1, 2), Fraction(-1, 2))


def exact_characters(m):
    """The six parts of psi_0, psi_1, psi_2, real then imaginary, as exact
    `decimal` values: psi_k is the sum of w^(r + k*s) times the entry in row
    r, column s of the printed rows, worked out in Q(sqrt3) with Fractions."""
    parts = []
    for k in range(3):
        re_rat = re_root = im_rat = im_root = Fraction(0)
        for r, row in enumerate(m.rows()):
            for s, entry in enumerate(row):
                j = (r + k * s) % 3
                re_rat, re_root = re_rat + _COS[j] * entry.rat, re_root + _COS[j] * entry.root
                im_rat, im_root = im_rat + 3 * _SIN[j] * entry.root, im_root + _SIN[j] * entry.rat
        parts += [exact_q3(re_rat, re_root), exact_q3(im_rat, im_root)]
    return parts


def exact_q3(rat, root):
    """``rat + root*sqrt3`` as an exact `decimal` value."""
    d = math.lcm(rat.denominator, root.denominator)
    return exact_value(rat.numerator * (d // rat.denominator), root.numerator * (d // root.denominator), d)


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
    triples = [CyclicTriple._make(num, den) for num, den in seeded_payloads(3)]
    zeros = [rotation_zero(selector, Fraction(7, 3)) for selector in RowSelector.all()]
    triples += [column for m in [*UNIT_VALUES.values(), *zeros] for column in m.columns]
    raised = 0
    for t in triples:
        expected = outcome(lambda: ref_complex(*t._num, t._den))
        assert outcome(t.to_complex) == expected, t
        assert outcome(lambda: ref_complex(*t._num, t._den, former_float)) == expected, t
        raised += expected is OverflowError
    assert raised


def test_characters_round_each_exact_part_once():
    # an exact zero part prints 0.0, each part is within 2 ulp of the exact value
    # where that is a normal float, and it raises exactly where one is past float range
    matrices = [CyclicMatrix._make(num, den) for num, den in seeded_payloads(9)]
    matrices += list(UNIT_VALUES.values())
    matrices += [rotation_zero(selector, xi) for selector in RowSelector.all() for xi in (1, Fraction(7, 3))]
    seen = {"raised": 0, "zero": 0, "within 2 ulp": 0, "former farther than 2 ulp": 0}
    for m in matrices:
        exact = exact_characters(m)
        past = any(math.isinf(float(part)) for part in exact)
        try:
            got = [value for z in m.characters() for value in (z.real, z.imag)]
        except OverflowError:
            assert past, m
            seen["raised"] += 1
            continue
        assert not past, m
        former = [value for z in former_characters(m) for value in (z.real, z.imag)]
        for value, old, part in zip(got, former, exact):
            if not part:
                assert repr(value) == "0.0", m
                seen["zero"] += 1
            verdict = within_2_ulp(value, part)
            assert verdict is not False, (m, value, part)
            seen["within 2 ulp"] += verdict is True
            seen["former farther than 2 ulp"] += within_2_ulp(old, part) is False or (not part and old != 0)
    assert all(seen.values()), seen


# The former float view and norm, kept as references.  They scaled the
# cancelling form's numerator by 2e, from the parts' bit lengths, took the
# gcd where it fell below 2**-1000, and `norm` built a normalised square
# and scaled it by a second rule of its own.

_SQRT3_FLOAT = math.sqrt(3.0)
_SUBNORMAL_MARGIN = 2.0**-1000


def scaled_float(n, d, k):
    return (n << k) / d if k >= 0 else n / (d << -k)


def former_numerator(p, q, d):
    """The former `_float`'s scaled numerator (p^2 - 3q^2) / d^2 * 2**-2e."""
    e = max(p.bit_length(), q.bit_length()) - d.bit_length()
    return scaled_float(p * p - 3 * q * q, d * d, -2 * e)


def former_float(p, q, d):
    """The former `_float`."""
    if (p < 0 < q) or (q < 0 < p):
        e = max(p.bit_length(), q.bit_length()) - d.bit_length()
        top = former_numerator(p, q, d)
        if abs(top) < _SUBNORMAL_MARGIN:
            g = math.gcd(p, q, d)
            if g != 1:
                return former_float(p // g, q // g, d // g)
        scaled = top / (scaled_float(p, d, -e) - scaled_float(q, d, -e) * _SQRT3_FLOAT)
        try:
            return math.ldexp(scaled, e)
        except OverflowError:
            pass
    approx = p / d + q / d * _SQRT3_FLOAT
    if math.isinf(approx):
        raise OverflowError("exact scalar too large for a float")
    return approx


def former_norm(square):
    """The former `norm` of the exact `norm_sq()` value `square`."""
    if not square:
        return 0.0
    p, q, d = square._p, square._q, square._d
    k = (max(p.bit_length(), q.bit_length() + 1) - d.bit_length()) // 2
    scaled = _normalised(p, q, d << 2 * k) if k >= 0 else _normalised(p << -2 * k, q << -2 * k, d)
    return math.ldexp(math.sqrt(former_float(scaled._p, scaled._q, scaled._d)), k)


def cancelling(p, q):
    return (p < 0 < q) or (q < 0 < p)


def differential_cases():
    """30,000 seeded (p, q, d): both sign patterns, ints up to 2**1100, d up to
    2**1200, every third p within 2 of -q*sqrt3 so the parts nearly cancel."""
    rng = random.Random("former float view")
    for k in range(30000):
        bits, d_bits = ((64, 64), (1100, 8), (8, 1200), (700, 700), (540, 300))[k % 5]
        p, q = signed_ints(rng, bits)
        if k % 3 == 0 and q:
            root = math.isqrt(3 * q * q) + rng.randint(-2, 2)
            p = -root if q > 0 else root
        yield p, q, rng.randrange(1, 2 ** rng.randrange(1, d_bits + 1) + 1)


def test_float_matches_former_float_above_its_margin():
    seen = {"raised": 0, "like signs": 0, "cancelling": 0, "below the margin": 0}
    for p, q, d in differential_cases():
        if cancelling(p, q) and abs(former_numerator(p, q, d)) < _SUBNORMAL_MARGIN:
            seen["below the margin"] += 1  # where the former code lost digits
            continue
        expected = outcome(former_float, p, q, d)
        assert outcome(_float, p, q, d) == expected, (p, q, d)
        seen["raised"] += expected is OverflowError
        seen["cancelling" if cancelling(p, q) else "like signs"] += 1
    assert all(seen.values()), seen


def norm_payloads(parts):
    """`seeded_payloads`, and each again over a huge denominator, so norms
    run from past float range down to below the smallest float."""
    for num, den in seeded_payloads(parts):
        yield num, den
        yield num, den * 3**700


@pytest.mark.parametrize("cls, parts", [(CyclicTriple, 3), (CyclicMatrix, 9)])
def test_norm_matches_former_norm(cls, parts):
    seen = {"raised": 0, "zero": 0, "subnormal": 0, "normal": 0}
    elements = [cls._make(num, den) for num, den in norm_payloads(parts)]
    if cls is CyclicMatrix:
        elements += list(UNIT_VALUES.values()) + [rotation_zero(s, Fraction(7, 3)) for s in RowSelector.all()]
    for x in elements:
        expected = outcome(lambda: former_norm(x.norm_sq()))
        assert outcome(x.norm) == expected, x
        if expected is OverflowError:
            seen["raised"] += 1
        else:
            value = float.fromhex(expected[0])
            seen["zero" if value == 0 else "normal" if value >= sys.float_info.min else "subnormal"] += 1
    assert all(seen.values()), seen


# Exact values to 1,500 digits, enough for ints up to 2**1100 that cancel
# down to about 2**-1100.

_PRECISION = 1500
with decimal.localcontext() as _ctx:
    _ctx.prec = _PRECISION
    _SQRT3_DECIMAL = decimal.Decimal(3).sqrt()


def exact_value(p, q, d):
    with decimal.localcontext() as ctx:
        ctx.prec = _PRECISION
        return (decimal.Decimal(p) + decimal.Decimal(q) * _SQRT3_DECIMAL) / decimal.Decimal(d)


def within_2_ulp(got, exact):
    """Whether `got` is within 2 ulp of the exact value, or None where that value is not a normal float."""
    want = float(exact)  # correctly rounded
    if not sys.float_info.min <= abs(want) <= sys.float_info.max:
        return None
    return abs(got - want) <= 2 * math.ulp(want)


def convergent_cases():
    """The sqrt3 convergents p^2 - 3q^2 = 1 (2, 1), ... and -2 (1, 1), ... up
    to 2**1100 as near-cancelling p - q*sqrt3, both signs, over five d."""
    for p, q in ((2, 1), (1, 1)):
        while p.bit_length() <= 1100:
            for d in (1, 3, 7, 10**30 + 1, 2**700):
                yield p, -q, d
                yield -p, q, d
            p, q = 2 * p + 3 * q, p + 2 * q


def test_float_of_convergents_within_2_ulp():
    verdicts = [within_2_ulp(_float(p, q, d), exact_value(p, q, d)) for p, q, d in convergent_cases()]
    assert False not in verdicts
    assert verdicts.count(True) > 9000  # of 11,580; the rest are not normal floats


def test_norm_of_small_powers_within_2_ulp():
    # the exact norm of t{x,0,0} and of m{[x,0,0];[0,0,0];[0,0,0]} is x, here (2 - sqrt3)^n
    for n in range(1, 531):
        x = ExactScalar(2, -1) ** n
        exact = exact_value(x._p, x._q, x._d)
        zero = ExactScalar(0)
        for element in (CyclicTriple(x, 0, 0), CyclicMatrix.from_rows([[x, zero, zero], [zero] * 3, [zero] * 3])):
            assert within_2_ulp(element.norm(), exact), (n, element.norm(), float(exact))


@pytest.mark.parametrize(
    "text, shown",
    [
        ("norm(t{(2-sqrt3)^142,0,0})", "6.073628863e-82"),
        ("tocomplex(t{(2-sqrt3)^300,0,0})", "2.60456823704e-172+0*i"),
        ("norm(m{[(2-sqrt3)^150,0,0];[0,0,0];[0,0,0]})", "1.61386747815e-86"),
    ],
)
def test_near_cancelling_values_print_their_digits(text, shown, capsys):
    assert _eval_line(text) == 0
    assert capsys.readouterr().out == shown + "\n"
