"""Grammar fuzz of `eval`: any text ends in one value line or one error line.

The strategy writes texts over the README grammar by kind, as
`bench/evalgen.py` does, and mixes kinds at random at the top, so kind
and value errors come up beside values of every kind.  Depth is at most 3, exponents at most 8 and literals
small, so that no example starts a large computation.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from signfree import CyclicMatrix, CyclicTriple, ExactScalar, UnitName, UnsignedPair
from signfree.cli import _eval_line
from signfree.expressions import eval_text, format_value

EXACT = (ExactScalar, UnsignedPair, CyclicTriple, CyclicMatrix)
FUNCTIONS = ("reduce", "norm", "normsq", "conj", "tocomplex", "rowsums", "chars")


def _cased(name):
    """`name` in lower, upper or its own case: names are case-insensitive."""
    return st.sampled_from((name, name.lower(), name.upper()))


NUMBERS = st.one_of(
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 20), st.integers(1, 9)).map("{0[0]}/{0[1]}".format),
    st.tuples(st.integers(0, 9), st.integers(0, 99)).map("{0[0]}.{0[1]:02d}".format),
    _cased("sqrt3"),
)
UNITS = st.sampled_from([unit.name for unit in UnitName]).flatmap(_cased)
SPACE = st.sampled_from(("", "", " "))


def _literal(system, size, entries):
    """A pair, triple or matrix literal of `size` entries drawn from `entries`."""
    items = st.lists(entries, min_size=size, max_size=size)
    if system == "m":
        return items.map(lambda e: "m{" + ";".join("[" + ",".join(e[r : r + 3]) + "]" for r in (0, 3, 6)) + "}")
    return items.map(",".join).map(f"{system}{{{{{{}}}}}}".format)


def _binop(left, ops, right):
    return st.tuples(left, SPACE, st.sampled_from(ops), SPACE, right).map("".join)


def _call(names, arg):
    return st.tuples(st.sampled_from(names).flatmap(_cased), arg).map("{0[0]}({0[1]})".format)


def _power(base):
    return st.tuples(base, st.integers(0, 8)).map("({0[0]})^{0[1]}".format)


def by_kind(depth):
    """kind -> texts of that kind, nested at most `depth` deep, as evalgen writes them."""
    if depth == 0:
        return {
            "scalar": NUMBERS,
            "pair": _literal("p", 2, NUMBERS),
            "triple": _literal("t", 3, NUMBERS),
            "matrix": st.one_of(UNITS, _literal("m", 9, NUMBERS)),
        }
    sub = by_kind(depth - 1)
    scalar = sub["scalar"]
    kinds = {
        "scalar": st.one_of(
            scalar,
            _binop(scalar, "+-*", scalar),
            scalar.map("-({})".format),
            _power(scalar),
            _call(("normsq",), st.one_of(sub["triple"], sub["matrix"])),
        )
    }
    extra = {
        "pair": _call(("reduce",), sub["pair"]),
        "triple": _call(("reduce", "conj"), sub["triple"]) | _call(("rowsums",), sub["matrix"]),
        "matrix": _call(("reduce",), sub["matrix"]),
    }
    for kind, system, size in (("pair", "p", 2), ("triple", "t", 3), ("matrix", "m", 9)):
        x = sub[kind]
        kinds[kind] = st.one_of(
            x,
            _literal(system, size, scalar),
            _binop(x, "+*", x),
            _binop(scalar, "+*", x),  # a scalar embedded or a factor (a negative one is an error)
            _binop(x, "+", scalar),
            _power(x),
            extra[kind],
        )
    return kinds


def texts(depth):
    """Any text: a value of each kind, a float view, or one with a kind error."""
    kinds = by_kind(depth)
    sub = st.one_of(*by_kind(depth - 1).values())
    return st.one_of(
        *kinds.values(),
        _call(("norm",), st.one_of(kinds["triple"], kinds["matrix"])),
        _call(("tocomplex",), kinds["triple"]),
        _call(("chars",), kinds["matrix"]),
        _binop(sub, "+-*", sub),  # kinds at random: often a kind error
        sub.map("-{}".format),
        _call(FUNCTIONS, sub),
        _literal("p", 2, sub),
        _binop(sub, "+*", st.integers(0, 3).map("{}/0".format)),  # a value error
    )


TEXTS = texts(3)


def _run(text):
    """`_eval_line(text)`: its status and what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = _eval_line(text)
    return status, out.getvalue(), err.getvalue()


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(TEXTS)
def test_each_text_prints_one_value_or_one_error(text):
    status, out, err = _run(text)
    if status:
        assert status == 1 and out == "", (out, err)
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        return
    assert err == "" and out.count("\n") == 1 and out.endswith("\n") and out != "\n", (out, err)
    value = eval_text(text)
    if isinstance(value, EXACT):  # the fixed point; floats print rounded
        shown = out[:-1]
        again = eval_text(shown)
        assert type(again) is type(value) and again == value, (text, shown)
        assert format_value(again) == shown, (text, shown)
