"""Seeded expression texts for the eval-stream workload, with a float oracle.

Each generated text carries the value the benchmark expects, computed in
floating point from the generator's own expression tree: scalars and
pairs as floats (a pair is its signed value), triples as complex numbers
and matrices as their three characters.  `read_output` turns a printed
result back into the same form, exactly up to one final rounding, so a
result is checked without trusting the library's arithmetic.

Texts come in four classes, mixed in fixed proportions in every block of
`BLOCK` texts so that any run, however long, sees the same mix:

* light  -- scalars (fractions, decimals, sqrt3), pair and triple
  arithmetic, matrix literals and units without a product, functions;
* medium -- a product of two or three matrices, or one matrix power;
* heavy  -- a product of two powers of units or literal matrices (`JJ^7*KK^5`);
* error  -- one kind or value error each, which must print `error: ...`.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from typing import NamedTuple

OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)
OMEGA2 = OMEGA.conjugate()
_SQRT3 = math.sqrt(3.0)
# sqrt(3) to 40 decimals: converting q + s*sqrt3 through it loses nothing a float keeps
_SQRT3_EXACT = Fraction(math.isqrt(3 * 10**80), 10**40)

# Checked results must agree with the oracle to this share of max(1, |expected|).
REL_TOL = 1e-9

# Texts per block of 20.  Light texts and errors are the fastest 70%, so
# the median latency falls among light texts; heavy ones are the slowest
# 25%, so the 90th percentile falls among them.
BLOCK = 20
MIX = {"light": 12, "medium": 1, "heavy": 5, "error": 2}
assert sum(MIX.values()) == BLOCK

# The sixteen units as (scale, printed rows), written out from their
# definitions so the oracle does not read them from the library.
_R3, _R9 = _SQRT3 / 3, _SQRT3 / 9
_UNIT_ROWS = {
    "ONE": (1.0, ((1, 0, 0), (0, 0, 0), (0, 0, 0))),
    "NEG1": (1.0, ((0, 0, 0), (1, 0, 0), (1, 0, 0))),
    "J": (1 / 3, ((1, 2, 2), (0, 2, 0), (0, 0, 2))),
    "NJ": (1 / 3, ((0, 0, 0), (1, 0, 2), (1, 2, 0))),
    "K": (1 / 3, ((1, 2, 2), (0, 0, 2), (0, 2, 0))),
    "NK": (1 / 3, ((0, 0, 0), (1, 2, 0), (1, 0, 2))),
    "L": (1 / 3, ((1, 0, 0), (0, 2, 2), (0, 2, 2))),
    "NL": (1 / 3, ((0, 2, 2), (1, 0, 0), (1, 0, 0))),
    "I": (_R3, ((1, 0, 0), (2, 0, 0), (0, 0, 0))),
    "NI": (_R3, ((1, 0, 0), (0, 0, 0), (2, 0, 0))),
    "JJ": (_R9, ((1, 0, 4), (2, 4, 2), (0, 2, 0))),
    "NJJ": (_R9, ((1, 4, 0), (0, 0, 2), (2, 2, 4))),
    "KK": (_R9, ((1, 4, 0), (2, 2, 4), (0, 0, 2))),
    "NKK": (_R9, ((1, 0, 4), (0, 2, 0), (2, 4, 2))),
    "LL": (_R9, ((1, 2, 2), (2, 0, 0), (0, 4, 4))),
    "NLL": (_R9, ((1, 2, 2), (0, 4, 4), (2, 0, 0))),
}


def _phi(a, b, c):
    return a + b * OMEGA + c * OMEGA2


def _characters(rows) -> tuple:
    cols = [_phi(rows[0][j], rows[1][j], rows[2][j]) for j in range(3)]
    a, b, c = cols
    return (a + b + c, a + OMEGA * b + OMEGA2 * c, a + OMEGA2 * b + OMEGA * c)


_UNIT_CHARS = {
    name: _characters([[scale * x for x in row] for row in rows])
    for name, (scale, rows) in _UNIT_ROWS.items()
}

ATOM, MUL, ADD = 2, 1, 0  # precedence of a text's outermost operator


class Expr(NamedTuple):
    text: str
    level: int
    kind: str  # scalar, pair, triple, matrix, complex, float, chars
    value: object


class Case(NamedTuple):
    """One eval-stream input: the text and what it must print."""

    text: str
    kind: str  # result kind, or "error"
    expected: object  # oracle value, or the fragment the error line must contain
    cls: str  # light, medium, heavy or error


class FloatProbe(NamedTuple):
    """A text that prints a float, the oracle's value and the known defect's."""

    text: str
    expected: float
    defect: float


def _wrap(e: Expr, level: int) -> Expr:
    return e if e.level >= level else Expr(f"({e.text})", ATOM, e.kind, e.value)


def _lift(kind: str, scalar: float) -> object:
    """A signed scalar embedded into a vector system, as `+` does it."""
    return (scalar,) * 3 if kind == "matrix" else scalar


def _join(op: str, left: Expr, right: Expr, spaced: bool) -> "tuple[str, int]":
    """Text and precedence of `left op right`, parenthesizing as needed."""
    if op == "*":
        left, right, level = _wrap(left, MUL), _wrap(right, ATOM), MUL
    else:
        right, level = _wrap(right, MUL), ADD
    joiner = f" {op} " if spaced else op
    return f"{left.text}{joiner}{right.text}", level


class Generator:
    """Seeded source of `Case`s; the same seed gives the same sequence."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"eval-stream:{seed}")

    # -- scalars -----------------------------------------------------------

    def _leaf(self) -> Expr:
        rng = self.rng
        pick = rng.random()
        if pick < 0.45:
            n = rng.randint(0, 12)
            return Expr(str(n), ATOM, "scalar", float(n))
        if pick < 0.7:
            num, den = rng.randint(0, 20), rng.randint(1, 9)
            return Expr(f"{num}/{den}", ATOM, "scalar", num / den)
        if pick < 0.85:
            text = f"{rng.randint(0, 9)}.{rng.randint(0, 99):02d}"
            return Expr(text, ATOM, "scalar", float(Fraction(text)))
        return Expr(rng.choice(("sqrt3", "SQRT3", "Sqrt3")), ATOM, "scalar", _SQRT3)

    def nonneg(self, depth: int) -> Expr:
        """A scalar that is nonnegative exactly: no subtraction inside."""
        rng = self.rng
        if depth <= 0 or rng.random() < 0.4:
            return self._leaf()
        pick = rng.random()
        if pick < 0.3:
            return self._binop("+", self.nonneg(depth - 1), self.nonneg(depth - 1))
        if pick < 0.6:
            return self._binop("*", self.nonneg(depth - 1), self.nonneg(depth - 1))
        if pick < 0.75:
            return self._power(self._leaf(), rng.randint(2, 3))
        if pick < 0.9:
            n = rng.randint(1, 6)
            return Expr(f"{n}*sqrt3", MUL, "scalar", n * _SQRT3)
        return self._call("normsq", self.triple(depth - 1))

    def signed(self, depth: int) -> Expr:
        rng = self.rng
        pick = rng.random()
        if pick < 0.4:
            return self.nonneg(depth)
        if pick < 0.8:
            return self._binop("-", self.nonneg(depth - 1), self.nonneg(depth - 1))
        operand = _wrap(self.nonneg(depth - 1), ATOM)
        return Expr(f"-{operand.text}", MUL, "scalar", -operand.value)

    # -- vectors -----------------------------------------------------------

    def _literal(self, system: str, depth: int) -> Expr:
        rng = self.rng
        if system == "m":
            items = [self.nonneg(depth) if rng.random() < 0.2 else self._small() for _ in range(9)]
            rows = [items[0:3], items[3:6], items[6:9]]
            body = ";".join("[" + ",".join(e.text for e in row) + "]" for row in rows)
            value = _characters([[e.value for e in row] for row in rows])
            return Expr(f"{rng.choice('mM')}{{{body}}}", ATOM, "matrix", value)
        items = [self.nonneg(depth) for _ in range(2 if system == "p" else 3)]
        body = ",".join(e.text for e in items)
        if system == "p":
            value = items[0].value - items[1].value
            return Expr(f"p{{{body}}}", ATOM, "pair", value)
        return Expr(f"t{{{body}}}", ATOM, "triple", _phi(*(e.value for e in items)))

    def _small(self) -> Expr:
        n = self.rng.randint(0, 3)
        return Expr(str(n), ATOM, "scalar", float(n))

    def unit(self) -> Expr:
        name = self.rng.choice(tuple(_UNIT_ROWS))
        shown = "".join(ch.lower() if self.rng.random() < 0.3 else ch for ch in name)
        return Expr(shown, ATOM, "matrix", _UNIT_CHARS[name])

    def vector(self, kind: str, depth: int) -> Expr:
        """A pair, triple or matrix value with no matrix product inside."""
        rng = self.rng
        if kind == "matrix" and rng.random() < 0.4:
            leaf = self.unit()
        else:
            leaf = self._literal(kind[0], 0)
        if depth <= 0:
            return leaf
        pick = rng.random()
        if pick < 0.25:
            return self._binop("+", leaf, self.vector(kind, depth - 1))
        if pick < 0.4 and kind != "matrix":
            return self._binop("*", leaf, self.vector(kind, depth - 1))
        if pick < 0.55:
            return self._binop("*", self.nonneg(1), leaf)
        if pick < 0.7:
            scalar = self.signed(1)
            return self._binop("+", leaf, scalar) if rng.random() < 0.5 else self._binop("+", scalar, leaf)
        if pick < 0.8 and kind != "matrix":
            return self._power(leaf, rng.randint(2, 3))
        if pick < 0.9:
            return self._call("reduce", self.vector(kind, depth - 1))
        if kind == "triple":
            return self._call("conj", self.vector("triple", depth - 1))
        return leaf

    def triple(self, depth: int) -> Expr:
        if depth > 0 and self.rng.random() < 0.15:
            return self._call("rowsums", self.vector("matrix", 0))
        return self.vector("triple", max(depth, 0))

    # -- operators -----------------------------------------------------------

    def _binop(self, op: str, left: Expr, right: Expr) -> Expr:
        text, level = _join(op, left, right, self.rng.random() < 0.4)
        kind = left.kind if left.kind != "scalar" else right.kind
        lv, rv = left.value, right.value
        if op == "+":
            if left.kind == "scalar" and kind != "scalar":
                lv = _lift(kind, lv)
            elif right.kind == "scalar" and kind != "scalar":
                rv = _lift(kind, rv)
        return Expr(text, level, kind, _apply(op, kind, lv, rv, left.kind, right.kind))

    def _power(self, base: Expr, exponent: int) -> Expr:
        base = _wrap(base, ATOM)
        if base.kind == "matrix":
            value = tuple(z**exponent for z in base.value)
        else:
            value = base.value**exponent
        return Expr(f"{base.text}^{exponent}", ATOM, base.kind, value)

    def _call(self, func: str, arg: Expr) -> Expr:
        kind, value = _CALLS[func](arg)
        name = func if self.rng.random() < 0.8 else func.upper()
        return Expr(f"{name}({arg.text})", ATOM, kind, value)

    # -- the four classes ----------------------------------------------------------

    def light(self) -> Expr:
        rng = self.rng
        kind = rng.choice(("scalar", "scalar", "pair", "triple", "triple", "matrix"))
        if kind == "scalar":
            return self.signed(2)
        expr = self.vector(kind, 2 if kind != "matrix" else 1)
        if kind == "triple" and rng.random() < 0.3:
            return self._call(rng.choice(("tocomplex", "norm", "normsq")), expr)
        if kind == "matrix" and rng.random() < 0.4:
            return self._call(rng.choice(("chars", "norm", "normsq", "rowsums")), expr)
        return expr

    def _matrix_leaf(self) -> "tuple[Expr, bool]":
        """A unit or a literal matrix, and whether it is a literal."""
        if self.rng.random() < 0.6:
            return self.unit(), False
        return self._literal("m", 0), True

    def medium(self) -> Expr:
        """Two or three matrices multiplied, or one raised to a power."""
        rng = self.rng
        if rng.random() < 0.5:
            leaf, literal = self._matrix_leaf()
            return self._finish_matrix(self._power(leaf, rng.randint(2, 8)), exact=literal)
        factors = [self._matrix_leaf()[0] for _ in range(rng.randint(2, 3))]
        expr = factors[0]
        for factor in factors[1:]:
            expr = self._binop("*", expr, factor)
        return self._finish_matrix(expr, exact=False)

    def heavy(self) -> Expr:
        """A product of two matrix powers: one cost band, 10-15 ms at the time of writing."""
        rng = self.rng
        first = self._power(self.unit(), rng.randint(3, 8))
        leaf, literal = self._matrix_leaf()
        second = self._power(leaf, rng.randint(3, 8 if rng.random() < 0.75 else 5))
        return self._finish_matrix(self._binop("*", first, second), exact=literal)

    def _finish_matrix(self, expr: Expr, exact: bool) -> Expr:
        """Maybe wrap a matrix in a function.

        A power of a literal can mix rational and sqrt3 parts in entries
        far larger than the value's characters, and the library loses
        most digits of such values when it converts them to float (see
        `float_probe`).  With `exact`, only functions with exact results
        are used, so the timed stream checks what the library promises.
        """
        if self.rng.random() < 0.5:
            funcs = ("reduce", "reduce", "normsq", "rowsums") if exact else (
                "reduce", "reduce", "chars", "norm", "normsq", "rowsums")
            return self._call(self.rng.choice(funcs), expr)
        return expr

    def error(self) -> "tuple[str, str]":
        """A text with exactly one kind or value error, and its message fragment."""
        rng = self.rng
        kinds = ("pair", "triple", "matrix")
        pick = rng.randrange(8)
        if pick == 0:
            left, right = rng.sample(kinds, 2)
            op = rng.choice("+*")
            text, _ = _join(op, self.vector(left, 0), self.vector(right, 0), rng.random() < 0.4)
            return text, f"cannot combine {left} and {right} with '{op}'"
        if pick == 1:
            kind = rng.choice(kinds)
            return f"{self.vector(kind, 0).text} - {self.vector(kind, 0).text}", "'-' is defined for scalars only"
        if pick == 2:
            return f"-{_wrap(self.vector(rng.choice(kinds), 0), ATOM).text}", "negation is defined for scalars only"
        if pick == 3:
            func, kind = rng.choice((("conj", "matrix"), ("conj", "pair"), ("rowsums", "triple"),
                                     ("tocomplex", "matrix"), ("norm", "pair"), ("chars", "triple"),
                                     ("normsq", "pair")))
            return f"{func}({self.vector(kind, 0).text})", f"{func}() is not defined for {kind} values"
        if pick == 4:
            func, kind = rng.choice((("tocomplex", "complex"), ("norm", "float"), ("chars", "characters")))
            arg = self.vector("matrix" if func == "chars" else "triple", 0).text
            return f"{func}({arg})^{rng.randint(2, 3)}", f"cannot raise a {kind} to a power"
        if pick == 5:
            low = rng.randint(0, 5)
            bad = f"{low}-{low + rng.randint(1, 4)}"
            system = rng.choice("ptm")
            size = {"p": 2, "t": 3, "m": 9}[system]
            items = [self._small().text for _ in range(size)]
            items[rng.randrange(size)] = bad
            if system == "m":
                body = ";".join("[" + ",".join(items[r * 3:r * 3 + 3]) + "]" for r in range(3))
                return f"m{{{body}}}", "must be nonnegative"
            return f"{system}{{{','.join(items)}}}", "must be nonnegative"
        if pick == 6:
            low = rng.randint(0, 5)
            factor = f"({low}-{low + rng.randint(1, 4)})"
            return f"{factor}*{self.vector(rng.choice(kinds), 0).text}", "scale factor must be nonnegative"
        return f"{self._leaf().text}+{rng.randint(0, 9)}/0", "zero denominator"

    def case(self, cls: str) -> Case:
        if cls == "error":
            text, fragment = self.error()
            return Case(text, "error", fragment, cls)
        expr = getattr(self, cls)()
        return Case(expr.text, expr.kind, expr.value, cls)

    def cases(self, count: int) -> list[Case]:
        """`count` cases, every block of BLOCK holding MIX of each class."""
        out: list[Case] = []
        block = [cls for cls, n in MIX.items() for _ in range(n)]
        while len(out) < count:
            self.rng.shuffle(block)
            out.extend(self.case(cls) for cls in block)
        return out[:count]

    def float_probe(self) -> list[FloatProbe]:
        """norm() of powers whose result is tiny next to their exact parts.

        The literal's row sums differ by sqrt3 - 3/2, so the norm_sq of
        its k-th power is (21/4 - 3*sqrt3)^k, about 0.054^k, while its
        rational and sqrt3 parts grow like 10.5^k and cancel.
        ExactScalar.__float__ rounds each part before adding them, so the
        printed norm misses the oracle at the time of writing, by 0.0004%
        for k = 5 up to 100% for k = 8, which prints 0.  `defect` is that rounding, done here from the exact
        parts; a printed value that matches neither it nor the oracle is
        a new fault.
        """
        rows = (("0", "3", "2"), ("1/2", "3", "sqrt3"), ("0", "2", "3"))
        values = {"0": 0.0, "2": 2.0, "3": 3.0, "1/2": 0.5, "sqrt3": _SQRT3}
        parts = {"0": (Fraction(0), Fraction(0)), "2": (Fraction(2), Fraction(0)),
                 "3": (Fraction(3), Fraction(0)), "1/2": (_HALF, Fraction(0)),
                 "sqrt3": (Fraction(0), Fraction(1))}
        a, b, c = (_add(_add(parts[x], parts[y]), parts[z]) for x, y, z in rows)
        norm_sq = _add(_add(_qmul(a, a), _qmul(b, b)), _qmul(c, c))
        norm_sq = _add(norm_sq, _scale(_add(_add(_qmul(a, b), _qmul(a, c)), _qmul(b, c)), Fraction(-1)))
        probes = []
        for _ in range(2):
            order = self.rng.sample(range(3), 3)  # column order keeps the row sums
            grid = [[row[j] for j in order] for row in rows]
            body = ";".join("[" + ",".join(row) + "]" for row in grid)
            literal = Expr(f"m{{{body}}}", ATOM, "matrix",
                           _characters([[values[x] for x in row] for row in grid]))
            exponent = self.rng.randint(5, 8)
            expr = self._call("norm", self._power(literal, exponent))
            q, r = _qpow(norm_sq, exponent)
            defect = math.sqrt(max(0.0, float(q) + float(r) * _SQRT3))
            probes.append(FloatProbe(expr.text, expr.value, defect))
        return probes

    def hostile(self) -> list[str]:
        """Bounded inputs that escape `cli.run_eval` at the time of writing.

        Deep nesting ends in RecursionError in the parser; a large power
        of 2 ends in ValueError from int-to-str conversion in
        format_value, which runs outside the CLI's error handling.  The
        unbounded class (`t{1,2,0}^3000000`) never ends and is left out.
        """
        depth = self.rng.randint(1900, 2100)
        exponent = self.rng.randint(100000, 110000)
        return ["(" * depth + "1" + ")" * depth, f"2^{exponent}"]


def _mul(kind: str, a, b, ka: str, kb: str):
    if kind == "matrix":
        if ka == "scalar":
            return tuple(a * z for z in b)
        if kb == "scalar":
            return tuple(z * b for z in a)
        return tuple(x * y for x, y in zip(a, b))
    return a * b


def _apply(op: str, kind: str, a, b, ka: str, kb: str):
    if op == "*":
        return _mul(kind, a, b, ka, kb)
    if op == "-":
        return a - b
    if kind == "matrix":
        return tuple(x + y for x, y in zip(a, b))
    return a + b


_CALLS = {
    "reduce": lambda e: (e.kind, e.value),
    "conj": lambda e: ("triple", e.value.conjugate()),
    "tocomplex": lambda e: ("complex", e.value),
    "norm": lambda e: ("float", abs(e.value if e.kind == "triple" else e.value[0])),
    "normsq": lambda e: ("scalar", abs(e.value if e.kind == "triple" else e.value[0]) ** 2),
    "rowsums": lambda e: ("triple", e.value[0]),
    "chars": lambda e: ("chars", e.value),
}


# -- reading printed results ------------------------------------------------------------

_SCALAR_RE = re.compile(r"(?:(-?\d+(?:/\d+)?)(?=$|[+-]))?(?:([+-]?)(\d+(?:/\d+)?)\*sqrt3)?")
_UFLOAT = r"(?:\d+(?:\.\d*)?|\.\d+)(?:e[+-]?\d+)?|inf|nan"
_COMPLEX_RE = re.compile(rf"(-?(?:{_UFLOAT}))([+-])({_UFLOAT})\*i")


def _scalar_parts(text: str) -> "tuple[Fraction, Fraction]":
    """Exact (q, s) of a printed `q + s*sqrt3`."""
    match = _SCALAR_RE.fullmatch(text)
    if match is None or not text:
        raise ValueError(f"not a printed scalar: {text!r}")
    q = Fraction(match.group(1)) if match.group(1) else Fraction(0)
    s = Fraction(match.group(3)) if match.group(3) else Fraction(0)
    return q, (-s if match.group(2) == "-" else s)


def _to_float(part: "tuple[Fraction, Fraction]") -> float:
    return float(part[0] + part[1] * _SQRT3_EXACT)


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _scale(x, f: Fraction):
    return (x[0] * f, x[1] * f)


def _qmul(x, y):
    """(q1 + s1*sqrt3) * (q2 + s2*sqrt3)."""
    return (x[0] * y[0] + 3 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _qpow(x, exponent: int):
    out = (Fraction(1), Fraction(0))
    for _ in range(exponent):
        out = _qmul(out, x)
    return out


def _root(x):
    """sqrt3 * (q + s*sqrt3) = 3s + q*sqrt3."""
    return (3 * x[1], x[0])


_HALF = Fraction(1, 2)


def _phi_exact(a, b, c):
    """phi(a, b, c) as an exact (re, im) pair over Q(sqrt3)."""
    re_part = _add(a, _scale(_add(b, c), -_HALF))
    im_part = _scale(_root(_add(b, _scale(c, Fraction(-1)))), _HALF)
    return re_part, im_part


def _rotate(z, conjugate: bool):
    """omega * z, or omega^2 * z when `conjugate`."""
    x, y = z
    sign = -1 if conjugate else 1
    re_part = _add(_scale(x, -_HALF), _scale(_root(y), -_HALF * sign))
    im_part = _add(_scale(_root(x), _HALF * sign), _scale(y, -_HALF))
    return re_part, im_part


def _zadd(*zs):
    re_part, im_part = (Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))
    for x, y in zs:
        re_part, im_part = _add(re_part, x), _add(im_part, y)
    return re_part, im_part


def _zfloat(z) -> complex:
    return complex(_to_float(z[0]), _to_float(z[1]))


def _items(text: str, prefix: str) -> list[str]:
    if not (text.startswith(prefix + "{") and text.endswith("}")):
        raise ValueError(f"expected a {prefix}{{...}} literal: {text!r}")
    return text[len(prefix) + 1:-1].split(",")


def _read_complex(text: str) -> complex:
    match = _COMPLEX_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"not a printed complex: {text!r}")
    im_part = float(match.group(3))
    return complex(float(match.group(1)), -im_part if match.group(2) == "-" else im_part)


def read_output(text: str, kind: str):
    """A printed result of `kind`, in the oracle's float form."""
    if kind == "scalar":
        return _to_float(_scalar_parts(text))
    if kind == "pair":
        plus, minus = (_scalar_parts(item) for item in _items(text, "p"))
        return _to_float(_add(plus, _scale(minus, Fraction(-1))))
    if kind == "triple":
        return _zfloat(_phi_exact(*(_scalar_parts(item) for item in _items(text, "t"))))
    if kind == "matrix":
        if not (text.startswith("m{[") and text.endswith("]}")):
            raise ValueError(f"expected a matrix literal: {text!r}")
        rows = [[_scalar_parts(item) for item in row.split(",")] for row in text[3:-2].split("];[")]
        a, b, c = (_phi_exact(rows[0][j], rows[1][j], rows[2][j]) for j in range(3))
        return (
            _zfloat(_zadd(a, b, c)),
            _zfloat(_zadd(a, _rotate(b, False), _rotate(c, True))),
            _zfloat(_zadd(a, _rotate(b, True), _rotate(c, False))),
        )
    if kind == "complex":
        return _read_complex(text)
    if kind == "float":
        return float(text)
    if kind == "chars":
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError(f"expected a characters tuple: {text!r}")
        return tuple(_read_complex(item) for item in text[1:-1].split(", "))
    raise ValueError(f"unknown kind {kind!r}")


def matches_defect(got: float, probe: FloatProbe) -> bool:
    """Whether a probe printed the known defect's value, within REL_TOL of it."""
    return abs(got - probe.defect) <= REL_TOL * abs(probe.defect)


def close(got, expected) -> bool:
    """Whether `got` matches the oracle within REL_TOL of max(1, |expected|)."""
    got_items = got if isinstance(got, tuple) else (got,)
    want_items = expected if isinstance(expected, tuple) else (expected,)
    if len(got_items) != len(want_items):
        return False
    scale = max([1.0] + [abs(w) for w in want_items])
    return all(abs(g - w) <= REL_TOL * scale for g, w in zip(got_items, want_items))
