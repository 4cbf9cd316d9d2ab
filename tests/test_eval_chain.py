"""Seeded differential test of the operator-chain walk in `kind_of` and `evaluate`.

The reference below is the code the loop replaced: `kind_of` and
`evaluate` recursing into both operands of every `BinOp`.  On every
parsed text the current code must give the same outcome: the kind, the
printed value, or the exception's type, message and position.  Chains
longer than the recursion limit end in `RecursionError` in the
reference; the current code must return their value.
"""

import random
import sys

import pytest

from signfree.expressions import (
    BinOp,
    Call,
    ExpressionError,
    Kind,
    Negate,
    Power,
    ScalarConst,
    UnitRef,
    VectorLit,
    evaluate,
    format_value,
    kind_of,
    parse,
)
from signfree.matrices import CyclicMatrix
from signfree.pairs import UnsignedPair
from signfree.scalars import ExactScalar
from signfree.triples import CyclicTriple
from signfree.units import UNIT_VALUES

from test_eval_front_end import _texts

# -- the reference: one recursion per operator -----------------------------------------

_VALUE_KINDS = (Kind.SCALAR, Kind.PAIR, Kind.TRIPLE, Kind.MATRIX)
_BROADCAST_KINDS = (Kind.PAIR, Kind.TRIPLE, Kind.MATRIX)

_FUNCTION_KINDS = {
    "reduce": {Kind.PAIR: Kind.PAIR, Kind.TRIPLE: Kind.TRIPLE, Kind.MATRIX: Kind.MATRIX},
    "norm": {Kind.TRIPLE: Kind.FLOAT, Kind.MATRIX: Kind.FLOAT},
    "normsq": {Kind.TRIPLE: Kind.SCALAR, Kind.MATRIX: Kind.SCALAR},
    "conj": {Kind.TRIPLE: Kind.TRIPLE},
    "tocomplex": {Kind.TRIPLE: Kind.COMPLEX},
    "rowsums": {Kind.MATRIX: Kind.TRIPLE},
    "chars": {Kind.MATRIX: Kind.CHARS},
}

_CALL_IMPLS = {
    "reduce": lambda value: value.reduce(),
    "norm": lambda value: value.norm(),
    "normsq": lambda value: value.norm_sq(),
    "conj": lambda value: value.conj(),
    "tocomplex": lambda value: value.to_complex(),
    "rowsums": lambda value: value.row_sums(),
    "chars": lambda value: value.characters(),
}


def _ref_kind_of(expr):
    if isinstance(expr, ScalarConst):
        return Kind.SCALAR
    if isinstance(expr, UnitRef):
        return Kind.MATRIX
    if isinstance(expr, VectorLit):
        for item in expr.items:
            if _ref_kind_of(item) is not Kind.SCALAR:
                raise ExpressionError("vector components must be scalars", item.pos)
        return {"p": Kind.PAIR, "t": Kind.TRIPLE, "m": Kind.MATRIX}[expr.system]
    if isinstance(expr, Negate):
        if _ref_kind_of(expr.operand) is not Kind.SCALAR:
            raise ExpressionError("negation is defined for scalars only", expr.pos)
        return Kind.SCALAR
    if isinstance(expr, BinOp):
        left = _ref_kind_of(expr.left)
        right = _ref_kind_of(expr.right)
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
    if isinstance(expr, Power):
        base = _ref_kind_of(expr.base)
        if base in _VALUE_KINDS:
            return base
        raise ExpressionError(f"cannot raise a {base.value} to a power", expr.pos)
    if isinstance(expr, Call):
        arg = _ref_kind_of(expr.arg)
        result = _FUNCTION_KINDS[expr.func].get(arg)
        if result is None:
            raise ExpressionError(f"{expr.func}() is not defined for {arg.value} values", expr.pos)
        return result
    raise ExpressionError("unsupported expression", expr.pos)


def _ref_evaluate(expr):
    if isinstance(expr, ScalarConst):
        return expr.value
    if isinstance(expr, UnitRef):
        return UNIT_VALUES[expr.unit]
    if isinstance(expr, VectorLit):
        values = [_ref_evaluate(item) for item in expr.items]
        if expr.system == "p":
            return UnsignedPair(*values)
        if expr.system == "t":
            return CyclicTriple(*values)
        return CyclicMatrix.from_rows([values[0:3], values[3:6], values[6:9]])
    if isinstance(expr, Negate):
        return -_ref_evaluate(expr.operand)
    if isinstance(expr, BinOp):
        left = _ref_evaluate(expr.left)
        right = _ref_evaluate(expr.right)
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
        return _ref_evaluate(expr.base) ** expr.exponent
    if isinstance(expr, Call):
        return _CALL_IMPLS[expr.func](_ref_evaluate(expr.arg))
    raise ExpressionError("unsupported expression", expr.pos)


# -- outcomes ---------------------------------------------------------------------------


def _outcome(kind_fn, evaluate_fn, expr):
    """The kind and printed value of `expr`, or the exception that ended the walk."""
    try:
        kind = kind_fn(expr)
        return kind, format_value(evaluate_fn(expr))
    except ExpressionError as exc:
        return "ExpressionError", exc.message, exc.pos
    except Exception as exc:  # value errors, and whatever a wrong walk raises
        return type(exc).__name__, str(exc)


def _same_outcome(text):
    expr = parse(text)
    new = _outcome(kind_of, evaluate, expr)
    assert new == _outcome(_ref_kind_of, _ref_evaluate, expr), repr(text)
    return new


# -- seeded chains ----------------------------------------------------------------------

_SCALARS = ("2", "1/3", "sqrt3", "(2-sqrt3)", "0.5", "(1+sqrt3)", "0", "-1/2", "(1-3)")
_OTHER = {"s": "p{1,0}", "p": "t{1,0,2}", "t": "p{2,1}", "m": "t{0,1,1}"}
_NEGATIVE = {
    "s": "p{1-2,0}", "p": "p{0,1-3}", "t": "t{1,1-2,0}", "m": "m{[0,0,0];[0,1-2,0];[0,0,0]}"
}


def _operand(rng, system):
    """An operand of a chain in `system`; a scalar may stand in any system."""
    if system == "s" or rng.random() < 0.3:
        return rng.choice(_SCALARS)
    if system == "p":
        return f"p{{{rng.randint(0, 3)},{rng.randint(0, 3)}}}"
    if system == "t":
        return f"t{{{rng.randint(0, 3)},{rng.randint(0, 3)},{rng.randint(0, 3)}}}"
    return rng.choice(("J", "k", "NL", "I", "nkk", "m{[1,0,0];[0,1,2];[0,0,1]}"))


def _chain(rng):
    """A chain of `+ - *` over one system, with a fault at up to two operators.

    A fault is a kind error (an operand of another system, or '-' with a
    vector) or a value error (a negative component, or a vector scaled by
    a negative scalar) at the first, a middle or the last operator.
    """
    system = rng.choice("sptm")
    length = rng.randint(1, 12)
    operands = [_operand(rng, system) for _ in range(length + 1)]
    operators = [rng.choice("+-*" if system == "s" else "++*") for _ in range(length)]
    for _ in range(rng.choice((0, 1, 1, 2))):
        at = rng.choice((0, length // 2, length - 1))  # the operator at fault
        fault = rng.randrange(4)
        if fault == 0:
            operands[at + 1] = _OTHER[system]
        elif fault == 1:
            operators[at], operands[at + 1] = "-", _operand(rng, "m")
        elif fault == 2:
            operands[at + 1] = _NEGATIVE[system]
        else:
            operators[at], operands[at + 1] = "*", rng.choice(("(1-2)", "-1/3", "(sqrt3-2)"))
        if rng.random() < 0.2:
            operands[0] = _NEGATIVE[system]  # and one in the leftmost operand
    return operands[0] + "".join(op + operand for op, operand in zip(operators, operands[1:]))


# -- the tests --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_chain_walk_matches_reference_on_front_end_texts(seed):
    outcomes = []
    for text in _texts(seed, 1000):
        try:
            parse(text)
        except ExpressionError:
            continue
        outcomes.append(_same_outcome(text))
    # the parsed texts reach both values and kind errors
    assert sum(isinstance(outcome[0], Kind) for outcome in outcomes) > 300
    assert sum(outcome[0] == "ExpressionError" for outcome in outcomes) > 100


@pytest.mark.parametrize("seed", range(4))
def test_chain_walk_matches_reference_on_chains(seed):
    rng = random.Random(1000 + seed)
    outcomes = [_same_outcome(_chain(rng)) for _ in range(1000)]
    # the chains reach values, kind errors and value errors
    assert sum(isinstance(outcome[0], Kind) for outcome in outcomes) > 200
    assert sum(outcome[0] == "ExpressionError" for outcome in outcomes) > 200
    assert sum(outcome[0] == "ValueError" for outcome in outcomes) > 200


def _long_chains():
    """(leftmost operand, [(operator, operand), ...]) for chains twice the recursion limit."""
    rng = random.Random(5)
    terms = 2 * sys.getrecursionlimit()

    def chain(operators, operands):
        steps = [(rng.choice(operators), rng.choice(operands)) for _ in range(terms)]
        return rng.choice(operands), steps

    return {
        "ones": ("1", [("+", "1")] * terms),
        "scalars": chain("+-", ("2", "1/3", "sqrt3", "(2-sqrt3)")),
        "pairs": chain("+", ("p{1,2}", "p{0,1}", "3", "(0-1)")),
        "triples": chain("*", ("t{1,1,0}", "t{0,0,1}", "2")),
    }


_LONG_CHAINS = _long_chains()


@pytest.mark.parametrize("name", _LONG_CHAINS)
def test_chain_walk_past_the_recursion_limit(name):
    first, steps = _LONG_CHAINS[name]
    expr = parse(first + "".join(op + operand for op, operand in steps))
    with pytest.raises(RecursionError):
        _ref_kind_of(expr)
    with pytest.raises(RecursionError):
        _ref_evaluate(expr)
    # the same fold through the reference, one operator at a time, carried by the printed value
    kind, shown = _ref_kind_of(parse(first)), first
    for op, operand in steps:
        step = parse(f"({shown}){op}{operand}")
        kind, shown = _ref_kind_of(step), format_value(_ref_evaluate(step))
    assert (kind_of(expr), format_value(evaluate(expr))) == (kind, shown)
