"""Expression language shared by the CLI evaluator and the REPL.

Grammar (whitespace insignificant; names matched case-insensitively)::

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | primary ('^' UINT)?
    primary := NUMBER ('/' NUMBER)?
             | 'sqrt3'
             | 'p' '{' expr ',' expr '}'
             | 't' '{' expr ',' expr ',' expr '}'
             | 'm' '{' row ';' row ';' row '}'
             | UNIT | FUNC '(' expr ')' | '(' expr ')'
    row     := '[' expr ',' expr ',' expr ']'

Numbers are integers, fractions ``p/q`` or decimals (held exactly, so
``2.1`` is 21/10).  Unary and binary '-' apply to scalars only: the
vector systems have no subtraction, negatives are written structurally
(``p{0,2}``, ``NEG1``, ...).  A scalar operand of '+' is embedded into
the other operand's system; a scalar operand of '*' scales it and must
be nonnegative.

Unit tokens: ONE NEG1 J NJ K NK L NL (the square roots of +1) and
I NI JJ NJJ KK NKK LL NLL (the square roots of -1); N marks a negative
and a doubled letter stands for the lowercase unit, so the names stay
unambiguous under case folding.

Functions: reduce, norm, normsq, conj, tocomplex, rowsums, chars.

Each function and each literal system is one table entry that the
parser, `kind_of` and `evaluate` all read; a literal's layout is its
class's `_LITERAL`.  The tokenizer's matches tile the text (white space,
a number, a name or any one character), so each token's kind comes from
its first character and its position from the lengths before it.
Tokens are plain ``(kind, text, position)`` tuples.  `expr` and `term`
are one precedence-climbing method over the binding table
``{'+': 1, '-': 1, '*': 2}``, and `factor` reads its primary itself, so a
parenthesis costs two stack frames.  A flat chain such as ``1+1+...+1``
is parsed, checked and evaluated in a loop, so only nesting
(parentheses, unary '-', literals, calls) meets the recursion limit.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from enum import Enum

from ._cyclic import CyclicElement
from ._record import record
from .matrices import CyclicMatrix
from .pairs import UnsignedPair
from .scalars import SQRT3, ExactScalar, _normalised
from .triples import CyclicTriple
from .units import UNIT_VALUES, UnitName, _unit_power

__all__ = [
    "ExpressionError",
    "Expression",
    "Kind",
    "parse",
    "kind_of",
    "evaluate",
    "eval_text",
    "format_value",
    "format_complex",
]


class ExpressionError(ValueError):
    """Syntax, name or kind error, with the offending position."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos


class Kind(Enum):
    SCALAR = "scalar"
    PAIR = "pair"
    TRIPLE = "triple"
    MATRIX = "matrix"
    COMPLEX = "complex"
    FLOAT = "float"
    CHARS = "characters"


@record(frozen=True)
class Expression:
    pos: int


@record(frozen=True)
class ScalarConst(Expression):
    value: ExactScalar


@record(frozen=True)
class UnitRef(Expression):
    unit: UnitName


@record(frozen=True)
class VectorLit(Expression):
    system: str  # 'p', 't' or 'm'
    items: tuple[Expression, ...]  # in the order the literal's text holds them


@record(frozen=True)
class Negate(Expression):
    operand: Expression


@record(frozen=True)
class BinOp(Expression):
    op: str
    left: Expression
    right: Expression


@record(frozen=True)
class Power(Expression):
    base: Expression
    exponent: int


@record(frozen=True)
class Call(Expression):
    func: str
    arg: Expression


# name -> (method name, {argument kind: result kind})
_FUNCTIONS: dict[str, tuple[str, dict[Kind, Kind]]] = {
    "reduce": ("reduce", {Kind.PAIR: Kind.PAIR, Kind.TRIPLE: Kind.TRIPLE, Kind.MATRIX: Kind.MATRIX}),
    "norm": ("norm", {Kind.TRIPLE: Kind.FLOAT, Kind.MATRIX: Kind.FLOAT}),
    "normsq": ("norm_sq", {Kind.TRIPLE: Kind.SCALAR, Kind.MATRIX: Kind.SCALAR}),
    "conj": ("conj", {Kind.TRIPLE: Kind.TRIPLE}),
    "tocomplex": ("to_complex", {Kind.TRIPLE: Kind.COMPLEX}),
    "rowsums": ("row_sums", {Kind.MATRIX: Kind.TRIPLE}),
    "chars": ("characters", {Kind.MATRIX: Kind.CHARS}),
}

# literal prefix -> (kind, class); the class's `_LITERAL` is the layout its items are read in
_SYSTEMS = {
    cls._LITERAL[0]: (kind, cls)
    for kind, cls in ((Kind.PAIR, UnsignedPair), (Kind.TRIPLE, CyclicTriple), (Kind.MATRIX, CyclicMatrix))
}
_BROADCAST_KINDS = tuple(kind for kind, _ in _SYSTEMS.values())  # the kinds a scalar scales
_VALUE_KINDS = (Kind.SCALAR, *_BROADCAST_KINDS)

_UNIT_TOKENS = {member.name: member for member in UnitName}

# the matches tile the text: white space, a number, a name or any one character
_TOKEN_RE = re.compile(r"\s+|\d+(?:\.\d+)?|[A-Za-z][A-Za-z0-9]*|.", re.S)
_SYMBOLS = frozenset("-+*/^(){}[],;")
_BINDING = {"+": 1, "-": 1, "*": 2}  # how tightly each binary operator binds


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token, then ("end", "", len(text)).

    A kind is 'num', 'name' or the symbol itself.  It is read from the
    first character of each match: `isdecimal` and `isspace` accept the
    characters the pattern's digit and white space classes accept.  A
    token's position is the sum of the lengths of the matches before it.
    """
    tokens = []
    pos = 0
    for piece in _TOKEN_RE.findall(text):
        first = piece[0]
        if first in _SYMBOLS:
            tokens.append((first, piece, pos))
        elif first.isdecimal():
            tokens.append(("num", piece, pos))
        elif first.isascii() and first.isalpha():
            tokens.append(("name", piece, pos))
        elif not first.isspace():
            raise ExpressionError(f"unexpected character {piece!r}", pos)
        pos += len(piece)
    tokens.append(("end", "", pos))
    return tokens


def _integer(digits: str, pos: int) -> int:
    """The value of a digit string from a number token at `pos`."""
    try:
        return int(digits)
    except ValueError:  # more digits than the interpreter's int-to-str limit
        raise ExpressionError("number literal too long", pos) from None


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.index = 0

    def _next(self, expected: str) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        if token[0] == "end":
            raise ExpressionError(f"expected {expected}, found end of input", token[2])
        self.index += 1
        return token

    def _expect(self, symbol: str) -> None:
        kind, text, pos = self.tokens[self.index]
        if kind != symbol:
            found = "end of input" if kind == "end" else repr(text)
            raise ExpressionError(f"expected '{symbol}', found {found}", pos)
        self.index += 1

    def parse(self) -> Expression:
        expr = self._expr(0)
        kind, text, pos = self.tokens[self.index]
        if kind != "end":
            raise ExpressionError(f"unexpected {text!r}", pos)
        return expr

    def _expr(self, tighter_than: int) -> Expression:
        """Factors joined by the operators that bind tighter than `tighter_than`.

        Operators of one binding join from the left in this loop, so a flat
        chain takes no stack; only a tighter operator's right side recurses.
        """
        left = self._factor()
        while (binding := _BINDING.get((token := self.tokens[self.index])[0], 0)) > tighter_than:
            self.index += 1
            left = BinOp(token[2], token[0], left, self._expr(binding))
        return left

    def _factor(self) -> Expression:
        kind, text, pos = self._next("an expression")
        if kind == "-":
            return Negate(pos, self._factor())
        if kind == "num":
            base = self._number(text, pos)
        elif kind == "name":
            base = self._name(text, pos)
        elif kind == "(":
            base = self._expr(0)
            self._expect(")")
        else:
            raise ExpressionError(f"unexpected {text!r}", pos)
        if self.tokens[self.index][0] == "^":
            self.index += 1
            kind, text, pos = self._next("a nonnegative integer exponent")
            if kind != "num" or "." in text:
                raise ExpressionError("exponent must be a nonnegative integer", pos)
            base = Power(base.pos, base, _integer(text, pos))
        return base

    def _number(self, text: str, pos: int) -> Expression:
        if self.tokens[self.index][0] == "/":
            if "." in text:
                raise ExpressionError("fraction parts must be integers", pos)
            self.index += 1
            kind, denom, denom_pos = self._next("an integer denominator")
            if kind != "num":
                raise ExpressionError("expected an integer denominator", denom_pos)
            if "." in denom:
                raise ExpressionError("fraction parts must be integers", denom_pos)
            denom_value = _integer(denom, denom_pos)
            if denom_value == 0:
                raise ExpressionError("zero denominator", denom_pos)
            return ScalarConst(pos, _normalised(_integer(text, pos), 0, denom_value))
        if "." not in text:
            return ScalarConst(pos, _normalised(_integer(text, pos), 0, 1))
        whole, _, fraction = text.partition(".")
        # the two sides are read apart, as Fraction(str) reads them, so the
        # int-to-str digit limit applies to each side, not to their sum
        scale = 10 ** len(fraction)
        numerator = _integer(whole, pos) * scale + _integer(fraction, pos)
        return ScalarConst(pos, _normalised(numerator, 0, scale))

    def _name(self, text: str, pos: int) -> Expression:
        lower = text.lower()
        follower = self.tokens[self.index][0]
        if lower == "sqrt3":
            return ScalarConst(pos, SQRT3)
        if lower in _SYSTEMS and follower == "{":
            items = []
            for mark in _SYSTEMS[lower][1]._LITERAL[1:]:  # after the prefix, each digit marks an item
                if mark.isdigit():
                    items.append(self._expr(0))
                else:
                    self._expect(mark)
            return VectorLit(pos, lower, tuple(items))
        if lower in _FUNCTIONS and follower == "(":
            self.index += 1
            arg = self._expr(0)
            self._expect(")")
            return Call(pos, lower, arg)
        upper = text.upper()
        if upper in _UNIT_TOKENS:
            return UnitRef(pos, _UNIT_TOKENS[upper])
        raise ExpressionError(f"unknown name {text!r}", pos)


def parse(text: str) -> Expression:
    """Parse an expression; raises ExpressionError with a position."""
    return _Parser(text).parse()


def _fold(expr: BinOp, walk: Callable, apply: Callable) -> object:
    """Walk ``a + b - c``, parsed as ``(a + b) - c``, and apply each operator in turn.

    The order is a recursion's: `a`, then `b`, then '+', then `c`, then '-';
    but a flat chain of any length takes no stack.
    """
    chain = []
    while isinstance(expr, BinOp):
        chain.append(expr)
        expr = expr.left
    result = walk(expr)
    for binop in reversed(chain):
        result = apply(binop, result, walk(binop.right))
    return result


def _binop_kind(expr: BinOp, left: Kind, right: Kind) -> Kind:
    if expr.op == "-":
        if left is Kind.SCALAR and right is Kind.SCALAR:
            return Kind.SCALAR
        raise ExpressionError(
            "'-' is defined for scalars only; vector negatives are structural", expr.pos
        )
    if left == right and left in _VALUE_KINDS:
        return left
    if left is Kind.SCALAR and right in _BROADCAST_KINDS:
        return right
    if right is Kind.SCALAR and left in _BROADCAST_KINDS:
        return left
    raise ExpressionError(
        f"cannot combine {left.value} and {right.value} with '{expr.op}'", expr.pos
    )


def kind_of(expr: Expression) -> Kind:
    """Static kind of an expression; raises ExpressionError on misuse."""
    if isinstance(expr, ScalarConst):
        return Kind.SCALAR
    if isinstance(expr, UnitRef):
        return Kind.MATRIX
    if isinstance(expr, VectorLit):
        for item in expr.items:
            if kind_of(item) is not Kind.SCALAR:
                raise ExpressionError("vector components must be scalars", item.pos)
        return _SYSTEMS[expr.system][0]
    if isinstance(expr, Negate):
        if kind_of(expr.operand) is not Kind.SCALAR:
            raise ExpressionError("negation is defined for scalars only", expr.pos)
        return Kind.SCALAR
    if isinstance(expr, BinOp):
        return _fold(expr, kind_of, _binop_kind)
    if isinstance(expr, Power):
        base = kind_of(expr.base)
        if base in _VALUE_KINDS:
            return base
        raise ExpressionError(f"cannot raise a {base.value} to a power", expr.pos)
    if isinstance(expr, Call):
        arg = kind_of(expr.arg)
        result = _FUNCTIONS[expr.func][1].get(arg)
        if result is None:
            raise ExpressionError(f"{expr.func}() is not defined for {arg.value} values", expr.pos)
        return result
    raise ExpressionError("unsupported expression", expr.pos)


def _binop_value(expr: BinOp, left: object, right: object) -> object:
    if expr.op == "+":
        if isinstance(left, ExactScalar) and not isinstance(right, ExactScalar):
            left = type(right).from_signed(left)
        elif isinstance(right, ExactScalar) and not isinstance(left, ExactScalar):
            right = type(left).from_signed(right)
        return left + right
    if expr.op == "-":
        return left - right
    return left * right


def evaluate(expr: Expression) -> object:
    """Evaluate a well-kinded expression exactly.

    Value errors (negative vector components, negative scale factors,
    division by zero) surface as ValueError/ZeroDivisionError.
    """
    if isinstance(expr, ScalarConst):
        return expr.value
    if isinstance(expr, UnitRef):
        return UNIT_VALUES[expr.unit]
    if isinstance(expr, VectorLit):
        return _SYSTEMS[expr.system][1]._from_literal([evaluate(item) for item in expr.items])
    if isinstance(expr, Negate):
        return -evaluate(expr.operand)
    if isinstance(expr, BinOp):
        return _fold(expr, evaluate, _binop_value)
    if isinstance(expr, Power):
        if isinstance(expr.base, UnitRef):
            return _unit_power(expr.base.unit, expr.exponent)
        return evaluate(expr.base) ** expr.exponent
    if isinstance(expr, Call):
        return getattr(evaluate(expr.arg), _FUNCTIONS[expr.func][0])()
    raise ExpressionError("unsupported expression", expr.pos)


def eval_text(text: str) -> object:
    """Parse, kind-check, then evaluate."""
    expr = parse(text)
    kind_of(expr)
    return evaluate(expr)


def format_complex(value: complex) -> str:
    re_part = value.real + 0.0  # normalizes -0.0
    im_part = value.imag + 0.0
    joiner = "-" if im_part < 0 else "+"
    return f"{re_part:.12g}{joiner}{abs(im_part):.12g}*i"


def format_value(value: object) -> str:
    """Canonical textual output for every evaluator result."""
    if isinstance(value, (ExactScalar, CyclicElement)):
        return str(value)
    if isinstance(value, complex):
        return format_complex(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, tuple):
        return "(" + ", ".join(format_complex(item) for item in value) + ")"
    raise TypeError(f"cannot format {type(value).__name__}")
