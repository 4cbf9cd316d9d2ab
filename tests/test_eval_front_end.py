"""Seeded differential test of the eval front end.

The reference below is the front end the int-based one replaced: a
tokenizer that runs one regex `match` per token (whitespace included)
into dataclass tokens, a parser that peeks for the end of input, number
literals read through `Fraction(str)`, and scalars printed through their
`Fraction` components.  The current code must agree with it on every
token (kind, text, position), on every parsed tree, which holds the
literal values, on every error message and position, and on `str` and
`repr` of every scalar.
"""

import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

import pytest

from signfree.scalars import SQRT3, ExactScalar
from signfree.expressions import (
    BinOp,
    Call,
    ExpressionError,
    Negate,
    Power,
    ScalarConst,
    UnitRef,
    VectorLit,
    _FUNCTIONS as _FUNCTION_TABLE,
    _SYSTEMS,
    _UNIT_TOKENS,
    _tokenize,
    parse,
)

# -- the reference front end ---------------------------------------------------------

_REF_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<sym>[-+*/^(){}\[\],;])"
)


@dataclass(frozen=True)
class _RefToken:
    kind: str
    text: str
    pos: int


def _ref_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _REF_TOKEN_RE.match(text, pos)
        if match is None:
            raise ExpressionError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup == "num":
            tokens.append(_RefToken("num", match.group(), pos))
        elif match.lastgroup == "name":
            tokens.append(_RefToken("name", match.group(), pos))
        elif match.lastgroup == "sym":
            tokens.append(_RefToken(match.group(), match.group(), pos))
        pos = match.end()
    return tokens


def _ref_literal(token, convert):
    try:
        return convert(token.text)
    except ValueError:
        raise ExpressionError("number literal too long", token.pos) from None


class _RefParser:
    def __init__(self, text):
        self.text = text
        self.tokens = _ref_tokenize(text)
        self.index = 0

    def _peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def _next(self, expected):
        token = self._peek()
        if token is None:
            raise ExpressionError(f"expected {expected}, found end of input", len(self.text))
        self.index += 1
        return token

    def _expect(self, symbol):
        token = self._next(f"'{symbol}'")
        if token.kind != symbol:
            raise ExpressionError(f"expected '{symbol}', found {token.text!r}", token.pos)
        return token

    def parse(self):
        expr = self._expr()
        leftover = self._peek()
        if leftover is not None:
            raise ExpressionError(f"unexpected {leftover.text!r}", leftover.pos)
        return expr

    def _expr(self):
        left = self._term()
        while (token := self._peek()) is not None and token.kind in ("+", "-"):
            self.index += 1
            left = BinOp(token.pos, token.kind, left, self._term())
        return left

    def _term(self):
        left = self._factor()
        while (token := self._peek()) is not None and token.kind == "*":
            self.index += 1
            left = BinOp(token.pos, "*", left, self._factor())
        return left

    def _factor(self):
        token = self._peek()
        if token is not None and token.kind == "-":
            self.index += 1
            return Negate(token.pos, self._factor())
        base = self._primary()
        if (token := self._peek()) is not None and token.kind == "^":
            self.index += 1
            exp_token = self._next("a nonnegative integer exponent")
            if exp_token.kind != "num" or "." in exp_token.text:
                raise ExpressionError("exponent must be a nonnegative integer", exp_token.pos)
            base = Power(base.pos, base, _ref_literal(exp_token, int))
        return base

    def _primary(self):
        token = self._next("an expression")
        if token.kind == "num":
            return self._number(token)
        if token.kind == "name":
            return self._name(token)
        if token.kind == "(":
            expr = self._expr()
            self._expect(")")
            return expr
        raise ExpressionError(f"unexpected {token.text!r}", token.pos)

    def _number(self, token):
        follower = self._peek()
        if follower is not None and follower.kind == "/":
            if "." in token.text:
                raise ExpressionError("fraction parts must be integers", token.pos)
            self.index += 1
            denom = self._next("an integer denominator")
            if denom.kind != "num":
                raise ExpressionError("expected an integer denominator", denom.pos)
            if "." in denom.text:
                raise ExpressionError("fraction parts must be integers", denom.pos)
            denom_value = _ref_literal(denom, int)
            if denom_value == 0:
                raise ExpressionError("zero denominator", denom.pos)
            return ScalarConst(token.pos, ExactScalar(Fraction(_ref_literal(token, int), denom_value)))
        return ScalarConst(token.pos, ExactScalar(_ref_literal(token, Fraction)))

    def _name(self, token):
        lower = token.text.lower()
        follower = self._peek()
        if lower == "sqrt3":
            return ScalarConst(token.pos, SQRT3)
        if lower in _SYSTEMS and follower is not None and follower.kind == "{":
            return self._vector_literal(lower, token.pos)
        if lower in _FUNCTION_TABLE and follower is not None and follower.kind == "(":
            self.index += 1
            arg = self._expr()
            self._expect(")")
            return Call(token.pos, lower, arg)
        upper = token.text.upper()
        if upper in _UNIT_TOKENS:
            return UnitRef(token.pos, _UNIT_TOKENS[upper])
        raise ExpressionError(f"unknown name {token.text!r}", token.pos)

    def _vector_literal(self, system, pos):
        self._expect("{")
        if system == "m":
            items = []
            for row_index in range(3):
                if row_index:
                    self._expect(";")
                self._expect("[")
                for col_index in range(3):
                    if col_index:
                        self._expect(",")
                    items.append(self._expr())
                self._expect("]")
            self._expect("}")
            return VectorLit(pos, "m", tuple(items))
        arity = 2 if system == "p" else 3
        items = []
        for item_index in range(arity):
            if item_index:
                self._expect(",")
            items.append(self._expr())
        self._expect("}")
        return VectorLit(pos, system, tuple(items))


def _ref_str(rat, root):
    if root == 0:
        return str(rat)
    root_part = f"{root}*sqrt3" if root > 0 else f"{-root}*sqrt3"
    if rat == 0:
        return root_part if root > 0 else f"-{root_part}"
    joiner = "+" if root > 0 else "-"
    return f"{rat}{joiner}{root_part}"


# -- seeded inputs ---------------------------------------------------------------------

# \d and int() read every Unicode decimal digit, so the Arabic-Indic ones too
_DIGITS = ("0123456789", "0123456789", "0123456789", "٠١٢٣٤٥٦٧٨٩")
_SPACES = (" ", " ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\u00a0", "\u2003")
_BAD = ("#", "%", ".", "&", "_", "\x00", "é", "=", "'", '"', "@", "!", "е", "~", "$", "..")
_NAMES = (
    "sqrt3", "SQRT3", "Sqrt3", "reduce", "Norm", "normsq", "CONJ", "tocomplex", "rowsums",
    "chars", "one", "Neg1", "j", "nJ", "K", "nk", "l", "NL", "i", "Ni", "jj", "Njj", "kK",
    "NKK", "Ll", "nLL", "foo", "x1", "e5", "p", "t", "m",
)
_FUNCTIONS = ("reduce", "Norm", "normsq", "conj", "TOCOMPLEX", "rowsums", "chars")


def _digits(rng, low, high):
    alphabet = rng.choice(_DIGITS)
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(low, high)))


def _number(rng):
    form = rng.random()
    if form < 0.4:
        return _digits(rng, 1, 25)
    if form < 0.75:
        return _digits(rng, 1, 12) + "." + _digits(rng, 1, 12)
    return _digits(rng, 1, 12) + "/" + _digits(rng, 1, 12)


def _gap(rng):
    return rng.choice(_SPACES) if rng.random() < 0.25 else ""


def _expression(rng, depth):
    """A text over the grammar, with random whitespace between tokens."""

    def e():
        return _expression(rng, depth - 1)

    def g():
        return _gap(rng)

    shape = rng.randrange(12) if depth > 0 else rng.randrange(3)
    if shape == 0:
        return _number(rng)
    if shape == 1:
        return rng.choice(("sqrt3", "Sqrt3", "SQRT3"))
    if shape == 2:
        unit = rng.choice(tuple(_UNIT_TOKENS))
        return unit.swapcase() if rng.random() < 0.3 else unit
    if shape in (3, 4, 5):
        return e() + g() + rng.choice("+-*") + g() + e()
    if shape == 6:
        return "-" + g() + e()
    if shape == 7:
        return "(" + g() + e() + g() + ")"
    if shape == 8:
        return e() + g() + "^" + g() + _digits(rng, 1, 2)
    if shape == 9:
        return rng.choice(_FUNCTIONS) + g() + "(" + e() + ")"
    if shape == 10:
        items = [e() for _ in range(rng.choice((2, 3)))]
        return rng.choice("pPtT") + g() + "{" + ("," + g()).join(items) + "}"
    rows = ["[" + ",".join(e() for _ in range(3)) + "]" for _ in range(3)]
    return rng.choice("mM") + "{" + (";" + g()).join(rows) + "}"


def _mutated(rng, text):
    """`text` truncated, or with a character dropped or inserted."""
    at = rng.randrange(len(text) + 1)
    edit = rng.randrange(3)
    if edit == 0:
        return text[:at]
    if edit == 1:
        return text[:at] + text[at + 1:]
    extra = rng.choice(_BAD + tuple("-+*/^(){}[],;") + _SPACES + ("1", "2.5", "x"))
    return text[:at] + extra + text[at:]


def _soup(rng):
    """Tokens and stray characters in random order."""
    pieces = []
    for _ in range(rng.randint(1, 12)):
        kind = rng.random()
        if kind < 0.3:
            pieces.append(_number(rng))
        elif kind < 0.55:
            pieces.append(rng.choice(_NAMES))
        elif kind < 0.85:
            pieces.append(rng.choice("-+*/^(){}[],;"))
        elif kind < 0.95:
            pieces.append(rng.choice(_SPACES))
        else:
            pieces.append(rng.choice(_BAD))
        pieces.append(_gap(rng))
    return "".join(pieces)


def _texts(seed, count):
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        form = rng.random()
        if form < 0.45:
            texts.append(_expression(rng, rng.randint(0, 4)))
        elif form < 0.75:
            texts.append(_mutated(rng, _expression(rng, rng.randint(0, 3))))
        else:
            texts.append(_soup(rng))
    return texts


def _outcome(fn, text):
    """`fn(text)`, or the message and position of the ExpressionError it raised."""
    try:
        return fn(text)
    except ExpressionError as exc:
        return ("error", exc.message, exc.pos)


def _ref_tokens(text):
    tokens = [(token.kind, token.text, token.pos) for token in _ref_tokenize(text)]
    return tokens + [("end", "", len(text))]


def _same_front_end(text):
    assert _outcome(_tokenize, text) == _outcome(_ref_tokens, text), repr(text)
    assert _outcome(parse, text) == _outcome(lambda t: _RefParser(t).parse(), text), repr(text)


# -- the tests -------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_front_end_matches_reference(seed):
    texts = _texts(seed, 1000)
    # the seeded texts reach both outcomes, and errors of the tokenizer too
    errors = [o for o in (_outcome(parse, text) for text in texts) if isinstance(o, tuple)]
    assert 100 < len(errors) < len(texts) - 300
    assert any(message.startswith("unexpected character") for _, message, _ in errors)
    for text in texts:
        _same_front_end(text)


@pytest.mark.parametrize(
    "text",
    [
        "", " ", "1 ", "\t1\n", "2.", ".5", "1..5", "00.0100", "١٢.٥٠", "7/0", "1.5/2", "2/0.5",
        "3^2.0", "1/2/3", "1e5", "2sqrt3", "m{[1,2,3];[4,5,6];[7,8,9]", "p{1,2", "(((", "-", "x#",
    ],
)
def test_front_end_matches_reference_on_edge_cases(text):
    _same_front_end(text)


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(_DIGIT_LIMIT == 0, reason="interpreter has no int-to-str digit limit")
def test_front_end_matches_reference_at_the_digit_limit():
    under, over = "7" * _DIGIT_LIMIT, "7" * (_DIGIT_LIMIT + 1)
    texts = [
        f"{under}.{under}",  # each side under the limit, the pair together over it
        f"1+{under}.5",
        f"0.{under}",
        f"{over}.5",  # one side over it
        f"5.{over}",
        over,
        f"{over}/3",
        f"3/{over}",
        f"2^{over}",
    ]
    for text in texts:
        _same_front_end(text)
    assert isinstance(parse(texts[0]), ScalarConst)


def _scalar(rng):
    """Seeded components: zero, negative, pure sqrt3 and large-denominator values."""
    def part():
        size = rng.choice((1, 2, 6, 30))
        denominator = rng.choice((1, 2, 3, 12, rng.randint(1, 10**size)))
        return Fraction(rng.randint(-(10**size), 10**size), denominator)

    shape = rng.randrange(5)
    if shape == 0:
        return ExactScalar(part())  # rational
    if shape == 1:
        return ExactScalar(0, part())  # pure sqrt3
    if shape == 2:
        return ExactScalar(rng.choice((0, 1, -1)), rng.choice((0, 1, -1)))
    return ExactScalar(part(), part())


def test_scalar_printing_matches_reference():
    rng = random.Random(11)
    for _ in range(10_000):
        x = _scalar(rng)
        assert (str(x), repr(x)) == (_ref_str(x.rat, x.root), f"ExactScalar({x.rat}, {x.root})")
