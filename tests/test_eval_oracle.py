"""An exact oracle for `eval` values, in the paper's character domain.

Modulo constants, a pair is a real number a - b, a triple the complex
number a + b*w + c*w^2 (w = e^(2 pi i/3)), and a matrix with columns A,
B, C the three numbers psi_k = A + w^k*B + w^2k*C, each column read as a
triple.  All of them lie in Q(sqrt3, i), and there every product is
componentwise (Perlis & Walker, Trans. AMS 68 (1950) 420-426).  So this
file draws seeded (text, tree) pairs over the README grammar and
evaluates each tree over `Fraction`s in that domain, with no code shared
with the convolution, the parser or the kind rules.  The units'
characters come from the README's sign vectors, i times them for the
imaginary family.  Exact values are compared by `==` on characters read
from their payload ints; `norm`, `tocomplex` and `chars` within a
tolerance.
"""

import math
import random
from fractions import Fraction

import pytest

from signfree import CyclicMatrix, CyclicTriple, ExactScalar, UnitName, UnsignedPair
from signfree.expressions import eval_text

# A number of Q(sqrt3) is (a, b) for a + b*sqrt3; one of Q(sqrt3, i) is (re, im) of those.
_Q0, _Q1 = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
_ONE, _MINUS, _I = (_Q1, _Q0), ((Fraction(-1), Fraction(0)), _Q0), (_Q0, _Q1)
_W = ((Fraction(-1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2)))  # -1/2 + (sqrt3/2)*i


def qmul(x, y):
    return x[0] * y[0] + 3 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def qadd(x, y, sign=1):
    return x[0] + sign * y[0], x[1] + sign * y[1]


def qsign(x):
    a, b = x
    if a * b >= 0:
        return (a > 0) - (a < 0) or (b > 0) - (b < 0)
    return (1 if a > 0 else -1) * (1 if a * a > 3 * b * b else -1)


def cadd(x, y):
    return qadd(x[0], y[0]), qadd(x[1], y[1])


def cmul(x, y):
    return qadd(qmul(x[0], y[0]), qmul(x[1], y[1]), -1), qadd(qmul(x[0], y[1]), qmul(x[1], y[0]))


def abs2(x):
    """|x|^2, a number of Q(sqrt3)."""
    return qadd(qmul(x[0], x[0]), qmul(x[1], x[1]))


def real(x):
    return x, _Q0


def triple_char(a, b, c):
    """a + b*w + c*w^2 of three numbers of Q(sqrt3)."""
    return cadd(real(a), cadd(cmul(real(b), _W), cmul(real(c), cmul(_W, _W))))


def matrix_chars(a, b, c):
    """psi_0, psi_1, psi_2 of three columns given as their triple characters."""
    return tuple(cadd(a, cadd(cmul(wk, b), cmul(cmul(wk, wk), c))) for wk in (_ONE, _W, cmul(_W, _W)))


# README's sign vectors of the characters of 1, J, K and L; each negative unit is
# -1 times one of them, and the imaginary family is i and -i times them
_SIGNS = {"ONE": (1, 1, 1), "J": (1, -1, 1), "K": (1, 1, -1), "L": (-1, 1, 1)}
_FAMILY = {"ONE": ("ONE", "NEG1", "I", "NI"), "J": ("J", "NJ", "JJ", "NJJ"),
           "K": ("K", "NK", "KK", "NKK"), "L": ("L", "NL", "LL", "NLL")}
UNIT_CHARS = {
    name: tuple(factor if s > 0 else cmul(_MINUS, factor) for s in signs)
    for unit, signs in _SIGNS.items()
    for name, factor in zip(_FAMILY[unit], (_ONE, _MINUS, _I, cmul(_MINUS, _I)))
}


class Refused(Exception):
    """The oracle's value error: a negative literal entry or scale factor."""


def oracle(tree):
    """(kind, characters) of a tree; a scalar's one character is itself."""
    op = tree[0]
    if op == "num":
        return "scalar", (real(tree[1]),)
    if op == "unit":
        return "matrix", UNIT_CHARS[tree[1]]
    if op == "lit":
        entries = [oracle(item)[1][0][0] for item in tree[2]]
        if any(qsign(x) < 0 for x in entries):
            raise Refused
        if tree[1] == "pair":
            return "pair", (real(qadd(entries[0], entries[1], -1)),)
        if tree[1] == "triple":
            return "triple", (triple_char(*entries),)
        return "matrix", matrix_chars(*(triple_char(*entries[s::3]) for s in range(3)))
    if op == "neg":
        return "scalar", (cmul(_MINUS, oracle(tree[1])[1][0]),)
    if op in "+-*":
        (lk, lx), (rk, rx) = oracle(tree[1]), oracle(tree[2])
        if op == "-":
            return "scalar", (cadd(lx[0], cmul(_MINUS, rx[0])),)
        if lk != rk:  # one scalar, broadcast as `from_signed`: every character equals it
            scalar = (lx if lk == "scalar" else rx)[0]
            if op == "*" and qsign(scalar[0]) < 0:
                raise Refused  # a negative scale factor
            if lk == "scalar":
                lk, lx = rk, (scalar,) * len(rx)
            else:
                rx = (scalar,) * len(lx)
        return lk, tuple((cadd if op == "+" else cmul)(x, y) for x, y in zip(lx, rx))
    if op == "^":
        kind, x = oracle(tree[1])
        result = (_ONE,) * len(x)
        for _ in range(tree[2]):
            result = tuple(cmul(r, c) for r, c in zip(result, x))
        return kind, result
    kind, x = oracle(tree[2])  # a call
    return {
        "reduce": (kind, x),
        "conj": (kind, ((x[0][0], qadd(_Q0, x[0][1], -1)),)),
        "rowsums": ("triple", x[:1]),
        "normsq": ("scalar", (real(abs2(x[0])),)),
        "norm": ("norm", (real(abs2(x[0])),)),
        "tocomplex": ("complex", x),
        "chars": ("chars", x),
    }[tree[1]]


def payload_chars(value):
    """The characters of an exact value, read from its payload ints."""
    n, d = value._num, value._den
    reals = [(Fraction(n[i], d), Fraction(n[i + 1], d)) for i in range(0, len(n), 2)]
    if isinstance(value, UnsignedPair):
        return (real(qadd(reals[0], reals[1], -1)),)
    if isinstance(value, CyclicTriple):
        return (triple_char(*reals),)
    return matrix_chars(*(triple_char(*reals[s : s + 3]) for s in range(0, 9, 3)))


def to_float(x):
    """a + b*sqrt3 to a float; opposite signs through the conjugate, so it does not cancel."""
    a, b = x
    if a * b >= 0:
        return float(a) + float(b) * math.sqrt(3)
    return float(a * a - 3 * b * b) / (float(a) - float(b) * math.sqrt(3))


def to_complex(x):
    return complex(to_float(x[0]), to_float(x[1]))


# --- seeded (text, tree) pairs over the README grammar ---

_FUNCS = {"triple": ("reduce", "conj"), "pair": ("reduce",), "matrix": ("reduce",)}
_BIND = {"+": 1, "-": 1, "*": 2}  # a factor binds at 3, an atom (needs no parentheses as a base) at 4


def _cased(rng, name):
    return rng.choice((name, name.lower(), name.upper()))


def _space(rng):
    return rng.choice(("", "", " "))


def _number(rng):
    form = rng.randrange(4)
    if form == 0:
        n = rng.randint(0, 12)
        return str(n), ("num", (Fraction(n), Fraction(0)))
    if form == 1:
        p, q = rng.randint(0, 20), rng.randint(1, 9)
        return f"{p}/{q}", ("num", (Fraction(p, q), Fraction(0)))
    if form == 2:
        whole, cents = rng.randint(0, 9), rng.randint(0, 99)
        return f"{whole}.{cents:02d}", ("num", (whole + Fraction(cents, 100), Fraction(0)))
    return _cased(rng, "sqrt3"), ("num", (Fraction(0), Fraction(1)))


def _wrap(text, bind, least):
    return text if bind >= least else f"({text})"


def _binop(rng, op, left, right):
    (lt, lb, ltree), (rt, rb, rtree) = left, right
    # left-associative: the left side may bind as tightly as the operator, the right must bind tighter
    text = _wrap(lt, lb, _BIND[op]) + _space(rng) + op + _space(rng) + _wrap(rt, rb, _BIND[op] + 1)
    return text, _BIND[op], (op, ltree, rtree)


def _literal(rng, kind, depth):
    size = {"pair": 2, "triple": 3, "matrix": 9}[kind]
    items = [draw(rng, "scalar", depth) for _ in range(size)]
    texts = [text for text, _, _ in items]
    if kind == "matrix":
        body = "m{" + ";".join("[" + ",".join(texts[r : r + 3]) + "]" for r in (0, 3, 6)) + "}"
    else:
        body = kind[0] + "{" + ",".join(texts) + "}"
    return body, 4, ("lit", kind, [tree for _, _, tree in items])


def draw(rng, kind, depth):
    """(text, binding, tree) of a value of `kind`, nested at most `depth` deep."""
    if depth == 0:
        if kind == "scalar":
            text, tree = _number(rng)
            return text, 4, tree
        if kind == "matrix" and rng.randrange(2):
            name = rng.choice(list(UNIT_CHARS))
            return _cased(rng, name), 4, ("unit", name)
        return _literal(rng, kind, 0)
    sub = depth - 1
    form = rng.randrange(8)
    if form == 0:
        return draw(rng, kind, sub)
    if form == 1:
        base = draw(rng, kind, sub)
        n = rng.randint(0, 4)
        return f"{_wrap(base[0], base[1], 4)}^{n}", 3, ("^", base[2], n)
    if kind == "scalar":
        if form == 2:
            operand = draw(rng, "scalar", sub)
            return "-" + _wrap(operand[0], operand[1], 3), 3, ("neg", operand[2])
        if form == 3:
            arg = draw(rng, rng.choice(("triple", "matrix")), sub)
            return f"{_cased(rng, 'normsq')}({arg[0]})", 4, ("call", "normsq", arg[2])
        return _binop(rng, rng.choice("+-*"), draw(rng, "scalar", sub), draw(rng, "scalar", sub))
    if form == 2:
        return _literal(rng, kind, sub)
    if form == 3:
        if kind == "triple" and rng.randrange(2):
            name, arg = "rowsums", draw(rng, "matrix", sub)
        else:
            name, arg = rng.choice(_FUNCS[kind]), draw(rng, kind, sub)
        return f"{_cased(rng, name)}({arg[0]})", 4, ("call", name, arg[2])
    if form == 4:  # a scalar embedded or a factor, on either side
        scalar, x = draw(rng, "scalar", sub), draw(rng, kind, sub)
        return _binop(rng, rng.choice("+*"), *rng.sample((scalar, x), 2))
    return _binop(rng, rng.choice("+*"), draw(rng, kind, sub), draw(rng, kind, sub))


def draw_top(rng):
    """A text of any value kind, or a float view of one."""
    form = rng.randrange(10)
    if form < 6:
        return draw(rng, ("scalar", "pair", "triple", "matrix")[form % 4], 3)
    name, kind = (("norm", "triple"), ("norm", "matrix"), ("tocomplex", "triple"), ("chars", "matrix"))[form - 6]
    arg = draw(rng, kind, 3)
    return f"{_cased(rng, name)}({arg[0]})", 4, ("call", name, arg[2])


def _close(got, want):
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


def check_text(text, tree):
    try:
        kind, want = oracle(tree)
    except Refused:
        with pytest.raises(ValueError):
            eval_text(text)
        return
    got = eval_text(text)
    if kind == "norm":
        assert _close(got, math.sqrt(to_float(want[0][0]))), text
    elif kind in ("complex", "chars"):
        got = got if kind == "chars" else (got,)
        assert all(_close(g, to_complex(w)) for g, w in zip(got, want, strict=True)), text
    elif kind == "scalar":
        assert isinstance(got, ExactScalar), text
        assert (got.rat, got.root) == want[0][0] and want[0][1] == _Q0, text
    else:
        assert isinstance(got, {"pair": UnsignedPair, "triple": CyclicTriple, "matrix": CyclicMatrix}[kind]), text
        assert payload_chars(got) == want, text


def test_unit_characters_are_the_readme_sign_vectors():
    """Every unit token has characters; the plus-one family's square to 1, the imaginary's to -1."""
    assert set(UNIT_CHARS) == {unit.name for unit in UnitName}
    assert len(set(UNIT_CHARS.values())) == 16
    for unit, names in _FAMILY.items():
        for name, square in zip(names, (_ONE, _ONE, _MINUS, _MINUS)):
            assert tuple(cmul(c, c) for c in UNIT_CHARS[name]) == (square,) * 3, name


@pytest.mark.parametrize("seed", range(4))
def test_eval_values_match_the_character_oracle(seed):
    rng = random.Random(f"eval-oracle:{seed}")
    for _ in range(300):
        text, _, tree = draw_top(rng)
        check_text(text, tree)
