"""Seeded differential test of printing.

Pairs, triples and matrices print each part straight from its payload
ints with `scalars._text`, which reduces each ratio on its own, and
`ExactScalar.__str__` is `_text` of the scalar's own ints.  The
reference below is the printing it replaced: each container joined
`str` of its `components` (or its matrix `rows()`), every part an
`ExactScalar` in lowest terms, printed as ``p/d`` and ``q/d`` with one
gcd each.  The two must agree byte for byte on raw products, whose parts
share a denominator and so are not in lowest terms one by one, and on
parts with a zero, a negative sqrt3 part or a denominator up to 10**30.
Each printed text must also evaluate back to the same type and raw
payload, as the printer and the parser read one literal per class.
"""

import math
import random
import re
from fractions import Fraction

from signfree.expressions import _SYSTEMS, Kind, eval_text, format_value
from signfree.matrices import CyclicMatrix
from signfree.pairs import UnsignedPair
from signfree.scalars import ExactScalar, _normalised, _text
from signfree.triples import CyclicTriple

# -- the reference printing ---------------------------------------------------------


def _ref_ratio(n, d):
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _ref_scalar(x):
    p, q, d = x._p, x._q, x._d
    if q == 0:
        return _ref_ratio(p, d)
    root_part = _ref_ratio(abs(q), d) + "*sqrt3"
    joiner = "+" if q > 0 else "-"
    if p == 0:
        return root_part if q > 0 else joiner + root_part
    return _ref_ratio(p, d) + joiner + root_part


def _ref_str(value):
    if isinstance(value, ExactScalar):
        return _ref_scalar(value)
    if isinstance(value, UnsignedPair):
        return "p{{{},{}}}".format(*map(_ref_scalar, value.components))
    if isinstance(value, CyclicTriple):
        return "t{{{},{},{}}}".format(*map(_ref_scalar, value.components))
    body = ";".join("[" + ",".join(_ref_scalar(entry) for entry in row) + "]" for row in value.rows())
    return f"m{{{body}}}"


# -- seeded values --------------------------------------------------------------------


def _entry(rng):
    """A nonnegative entry: zero, with a negative sqrt3 part, or over a large denominator."""
    den = rng.choice((1, 2, 3, 12, rng.randint(1, 10**30)))
    shape = rng.randrange(5)
    if shape == 0:
        return 0
    if shape == 1:  # r - s*sqrt3 with r >= 2s, so still nonnegative
        s = Fraction(rng.randint(1, 10**6), den)
        return ExactScalar(2 * s + Fraction(rng.randint(0, 10**6), den), -s)
    if shape == 2:
        return ExactScalar(0, Fraction(rng.randint(0, 10**9), den))
    if shape == 3:
        return Fraction(rng.randint(0, 10**30), den)
    return ExactScalar(Fraction(rng.randint(0, 99), den), Fraction(rng.randint(0, 99), rng.choice((1, 3, 10**30))))


def _element(rng, cls):
    if cls is CyclicMatrix:
        return CyclicMatrix.from_rows([[_entry(rng) for _ in range(3)] for _ in range(3)])
    return cls(*[_entry(rng) for _ in range(cls._SIZE // 2)])


def _values(rng, cls):
    """An element, its reduced form, raw products and a power; their parts as scalars."""
    x, y = _element(rng, cls), _element(rng, cls)
    factor = _entry(rng)
    values = [x, x.reduce(), x * y, y * x, x * factor, x**2]
    for value in values[:3]:
        values += value.components if cls is not CyclicMatrix else [e for row in value.rows() for e in row]
    return values


# -- the tests -------------------------------------------------------------------------


def test_printing_matches_reference():
    rng = random.Random(20)
    shown = []
    for _ in range(300):
        for cls in (UnsignedPair, CyclicTriple, CyclicMatrix):
            for value in _values(rng, cls):
                expected = _ref_str(value)
                assert str(value) == expected, repr(value)
                assert format_value(value) == expected, repr(value)
                again = eval_text(expected)  # the printed text parses back to the same raw payload
                assert type(again) is type(value), repr(value)
                if isinstance(value, ExactScalar):
                    assert (again._p, again._q, again._d) == (value._p, value._q, value._d), repr(value)
                else:
                    assert (again._num, again._den) == (value._num, value._den), repr(value)
                shown.append(expected)
    # every container and scalar printed, with '-' joiners and long denominators among them
    assert {text[0] for text in shown} >= {"p", "t", "m", "0", "1"}
    assert any("-" in text for text in shown)
    assert any(len(text.partition("/")[2]) > 25 for text in shown)


def test_each_literal_is_written_once():
    # a class's `_LITERAL` marks each part once; the core prints it and the parser reads it
    for kind, cls in ((Kind.PAIR, UnsignedPair), (Kind.TRIPLE, CyclicTriple), (Kind.MATRIX, CyclicMatrix)):
        assert "__str__" not in vars(cls)
        assert sorted(re.findall(r"\d", cls._LITERAL)) == [str(k) for k in range(cls._SIZE // 2)]
        assert _SYSTEMS[cls._LITERAL[0]] == (kind, cls)


def test_text_reduces_each_ratio_on_its_own():
    rng = random.Random(21)
    for _ in range(2000):
        p, q = rng.randint(-(10**12), 10**12), rng.choice((0, rng.randint(-(10**12), 10**12)))
        d = rng.choice((1, 2, 3, 6, rng.randint(1, 10**30)))
        k = rng.choice((1, 2, 3, 7, rng.randint(1, 10**9)))
        expected = _ref_scalar(_normalised(p, q, d))
        assert _text(k * p, k * q, k * d) == expected
        assert str(_normalised(k * p, k * q, k * d)) == expected
