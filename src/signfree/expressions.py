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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .matrices import CyclicMatrix
from .pairs import UnsignedPair
from .scalars import SQRT3, ExactScalar, _normalised
from .triples import CyclicTriple
from .units import UNIT_VALUES, UnitName

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


@dataclass(frozen=True)
class Expression:
    pos: int


@dataclass(frozen=True)
class ScalarConst(Expression):
    value: ExactScalar


@dataclass(frozen=True)
class UnitRef(Expression):
    unit: UnitName


@dataclass(frozen=True)
class VectorLit(Expression):
    system: str  # 'p', 't' or 'm'
    items: tuple[Expression, ...]  # row-major for 'm'


@dataclass(frozen=True)
class Negate(Expression):
    operand: Expression


@dataclass(frozen=True)
class BinOp(Expression):
    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Power(Expression):
    base: Expression
    exponent: int


@dataclass(frozen=True)
class Call(Expression):
    func: str
    arg: Expression


_VALUE_KINDS = (Kind.SCALAR, Kind.PAIR, Kind.TRIPLE, Kind.MATRIX)
_BROADCAST_KINDS = (Kind.PAIR, Kind.TRIPLE, Kind.MATRIX)

_FUNCTION_KINDS: dict[str, dict[Kind, Kind]] = {
    "reduce": {Kind.PAIR: Kind.PAIR, Kind.TRIPLE: Kind.TRIPLE, Kind.MATRIX: Kind.MATRIX},
    "norm": {Kind.TRIPLE: Kind.FLOAT, Kind.MATRIX: Kind.FLOAT},
    "normsq": {Kind.TRIPLE: Kind.SCALAR, Kind.MATRIX: Kind.SCALAR},
    "conj": {Kind.TRIPLE: Kind.TRIPLE},
    "tocomplex": {Kind.TRIPLE: Kind.COMPLEX},
    "rowsums": {Kind.MATRIX: Kind.TRIPLE},
    "chars": {Kind.MATRIX: Kind.CHARS},
}

_UNIT_TOKENS = {member.name: member for member in UnitName}
_LITERAL_PREFIXES = ("p", "t", "m")

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<sym>[-+*/^(){}\[\],;])|(?P<bad>.)",
    re.S,
)


class _Token(NamedTuple):
    kind: str  # 'num', 'name', 'end', or the symbol itself
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    """The tokens of `text`, then an 'end' token at ``len(text)``."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "ws":
            continue
        value = match.group()
        if kind == "sym":
            kind = value
        elif kind == "bad":
            raise ExpressionError(f"unexpected character {value!r}", match.start())
        tokens.append(_Token(kind, value, match.start()))
    tokens.append(_Token("end", "", len(text)))
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

    def _next(self, expected: str) -> _Token:
        token = self.tokens[self.index]
        if token.kind == "end":
            raise ExpressionError(f"expected {expected}, found end of input", token.pos)
        self.index += 1
        return token

    def _expect(self, symbol: str) -> _Token:
        token = self._next(f"'{symbol}'")
        if token.kind != symbol:
            raise ExpressionError(f"expected '{symbol}', found {token.text!r}", token.pos)
        return token

    def parse(self) -> Expression:
        expr = self._expr()
        leftover = self.tokens[self.index]
        if leftover.kind != "end":
            raise ExpressionError(f"unexpected {leftover.text!r}", leftover.pos)
        return expr

    def _expr(self) -> Expression:
        left = self._term()
        while (token := self.tokens[self.index]).kind in ("+", "-"):
            self.index += 1
            right = self._term()
            left = BinOp(token.pos, token.kind, left, right)
        return left

    def _term(self) -> Expression:
        left = self._factor()
        while (token := self.tokens[self.index]).kind == "*":
            self.index += 1
            right = self._factor()
            left = BinOp(token.pos, "*", left, right)
        return left

    def _factor(self) -> Expression:
        token = self.tokens[self.index]
        if token.kind == "-":
            self.index += 1
            return Negate(token.pos, self._factor())
        base = self._primary()
        if self.tokens[self.index].kind == "^":
            self.index += 1
            exp_token = self._next("a nonnegative integer exponent")
            if exp_token.kind != "num" or "." in exp_token.text:
                raise ExpressionError(
                    "exponent must be a nonnegative integer", exp_token.pos
                )
            base = Power(base.pos, base, _integer(exp_token.text, exp_token.pos))
        return base

    def _primary(self) -> Expression:
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

    def _number(self, token: _Token) -> Expression:
        text, pos = token.text, token.pos
        if self.tokens[self.index].kind == "/":
            if "." in text:
                raise ExpressionError("fraction parts must be integers", pos)
            self.index += 1
            denom = self._next("an integer denominator")
            if denom.kind != "num":
                raise ExpressionError("expected an integer denominator", denom.pos)
            if "." in denom.text:
                raise ExpressionError("fraction parts must be integers", denom.pos)
            denom_value = _integer(denom.text, denom.pos)
            if denom_value == 0:
                raise ExpressionError("zero denominator", denom.pos)
            return ScalarConst(pos, _normalised(_integer(text, pos), 0, denom_value))
        whole, _, fraction = text.partition(".")
        # the two sides are read apart, as Fraction(str) reads them, so the
        # int-to-str digit limit applies to each side, not to their sum
        scale = 10 ** len(fraction)
        numerator = _integer(whole, pos) * scale + _integer(fraction or "0", pos)
        return ScalarConst(pos, _normalised(numerator, 0, scale))

    def _name(self, token: _Token) -> Expression:
        lower = token.text.lower()
        follower = self.tokens[self.index].kind
        if lower == "sqrt3":
            return ScalarConst(token.pos, SQRT3)
        if lower in _LITERAL_PREFIXES and follower == "{":
            return self._vector_literal(lower, token.pos)
        if lower in _FUNCTION_KINDS and follower == "(":
            self.index += 1
            arg = self._expr()
            self._expect(")")
            return Call(token.pos, lower, arg)
        upper = token.text.upper()
        if upper in _UNIT_TOKENS:
            return UnitRef(token.pos, _UNIT_TOKENS[upper])
        raise ExpressionError(f"unknown name {token.text!r}", token.pos)

    def _vector_literal(self, system: str, pos: int) -> Expression:
        self._expect("{")
        if system == "m":
            items: list[Expression] = []
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


def parse(text: str) -> Expression:
    """Parse an expression; raises ExpressionError with a position."""
    return _Parser(text).parse()


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
        return {"p": Kind.PAIR, "t": Kind.TRIPLE, "m": Kind.MATRIX}[expr.system]
    if isinstance(expr, Negate):
        if kind_of(expr.operand) is not Kind.SCALAR:
            raise ExpressionError("negation is defined for scalars only", expr.pos)
        return Kind.SCALAR
    if isinstance(expr, BinOp):
        left = kind_of(expr.left)
        right = kind_of(expr.right)
        if expr.op == "-":
            if left is Kind.SCALAR and right is Kind.SCALAR:
                return Kind.SCALAR
            raise ExpressionError(
                "'-' is defined for scalars only; vector negatives are structural",
                expr.pos,
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
    if isinstance(expr, Power):
        base = kind_of(expr.base)
        if base in _VALUE_KINDS:
            return base
        raise ExpressionError(f"cannot raise a {base.value} to a power", expr.pos)
    if isinstance(expr, Call):
        arg = kind_of(expr.arg)
        result = _FUNCTION_KINDS[expr.func].get(arg)
        if result is None:
            raise ExpressionError(f"{expr.func}() is not defined for {arg.value} values", expr.pos)
        return result
    raise ExpressionError("unsupported expression", expr.pos)


_CALL_IMPLS = {
    "reduce": lambda value: value.reduce(),
    "norm": lambda value: value.norm(),
    "normsq": lambda value: value.norm_sq(),
    "conj": lambda value: value.conj(),
    "tocomplex": lambda value: value.to_complex(),
    "rowsums": lambda value: value.row_sums(),
    "chars": lambda value: value.characters(),
}


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
        values = [evaluate(item) for item in expr.items]
        if expr.system == "p":
            return UnsignedPair(*values)
        if expr.system == "t":
            return CyclicTriple(*values)
        return CyclicMatrix.from_rows([values[0:3], values[3:6], values[6:9]])
    if isinstance(expr, Negate):
        return -evaluate(expr.operand)
    if isinstance(expr, BinOp):
        left = evaluate(expr.left)
        right = evaluate(expr.right)
        if expr.op == "+":
            if isinstance(left, ExactScalar) and not isinstance(right, ExactScalar):
                left = type(right).from_signed(left)
            elif isinstance(right, ExactScalar) and not isinstance(left, ExactScalar):
                right = type(left).from_signed(right)
            return left + right
        if expr.op == "-":
            return left - right
        return left * right
    if isinstance(expr, Power):
        return evaluate(expr.base) ** expr.exponent
    if isinstance(expr, Call):
        return _CALL_IMPLS[expr.func](evaluate(expr.arg))
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
    if isinstance(value, (ExactScalar, UnsignedPair, CyclicTriple, CyclicMatrix)):
        return str(value)
    if isinstance(value, complex):
        return format_complex(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, tuple):
        return "(" + ", ".join(format_complex(item) for item in value) + ")"
    raise TypeError(f"cannot format {type(value).__name__}")
