"""Differential test of the record classes against the dataclasses they replaced.

The references are in ``record_reference.py``.  For each of the twelve
classes, built from the same arguments, replacement and reference must
agree on field order and defaults, `__match_args__`, `repr` text, `==`
and `!=` (also against a subclass with the same fields and against a
plain tuple), `hash` or unhashability, assignment and deletion of a
field, keyword construction, copies and pickles, and `RowSelector`'s
error text for an invalid column.
"""

import copy
import dataclasses
import inspect
import itertools
import pickle

import pytest

import record_reference as ref
from signfree import expressions, matrices, units, verify
from signfree.scalars import SQRT3, ExactScalar
from signfree.units import UnitName

_ONE = expressions.ScalarConst(0, ExactScalar(1))
_J = expressions.UnitRef(2, UnitName.J)
_CELLS = units.verify_unit_table("plus-one-table").cells

# (replacement, reference, argument tuples); the tuples differ in one field or more
CASES = [
    (expressions.Expression, ref.Expression, [(0,), (3,)]),
    (expressions.ScalarConst, ref.ScalarConst, [(0, SQRT3), (1, SQRT3), (0, ExactScalar(2))]),
    (expressions.UnitRef, ref.UnitRef, [(0, UnitName.J), (0, UnitName.K)]),
    (expressions.VectorLit, ref.VectorLit, [(0, "p", (_ONE, _ONE)), (0, "t", (_ONE, _ONE)), (0, "p", (_ONE,))]),
    (expressions.Negate, ref.Negate, [(4, _ONE), (4, _J)]),
    (expressions.BinOp, ref.BinOp, [(1, "+", _ONE, _J), (1, "*", _ONE, _J), (1, "+", _J, _ONE)]),
    (expressions.Power, ref.Power, [(0, _J, 3), (0, _J, 4), (0, _ONE, 3)]),
    (expressions.Call, ref.Call, [(0, "norm", _J), (0, "chars", _J), (5, "norm", _J)]),
    (matrices.RowSelector, ref.RowSelector, [(), ("B",), ("A", "C", "B"), ("A", "B", "C")]),
    (
        units.Table,
        ref.Table,
        [
            ("t", (UnitName.ONE,), (UnitName.J,), ((UnitName.J,),)),
            ("t", (UnitName.ONE,), (UnitName.J,), ((UnitName.K,),)),
        ],
    ),
    (units.TableReport, ref.TableReport, [("plus-one-table", _CELLS[:2]), ("plus-one-table", _CELLS[:3])]),
    (verify.CheckResult, ref.CheckResult, [("x", 3), ("x", 3, 0, ""), ("x", 3, 1, "bad"), ("y", 3)]),
]
IDS = [new.__name__ for new, _, _ in CASES]


def _parameters(cls):
    return [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]


def _reference_parameters(cls):
    empty = inspect.Parameter.empty
    return [(f.name, empty if f.default is dataclasses.MISSING else f.default) for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("new, old, samples", CASES, ids=IDS)
def test_fields_defaults_and_match_args(new, old, samples):
    assert _parameters(new) == _reference_parameters(old)
    assert new.__match_args__ == old.__match_args__
    assert new.__name__ == old.__name__ and new.__qualname__ == old.__qualname__


@pytest.mark.parametrize("new, old, samples", CASES, ids=IDS)
def test_construction_and_repr(new, old, samples):
    for args in samples:
        x, y = new(*args), old(*args)
        assert repr(x) == repr(y)
        keywords = dict(zip(new.__match_args__, args))
        assert new(**keywords) == x and old(**keywords) == y
        for name in new.__match_args__:
            assert getattr(x, name) == getattr(y, name)
    # no arguments, and one more than there are fields: the same error text, or none
    for args in ((), (None,) * (len(new.__match_args__) + 1)):
        assert _outcome(new, args) == _outcome(old, args)


def _outcome(cls, args):
    try:
        return repr(cls(*args))
    except TypeError as error:
        return str(error)


@pytest.mark.parametrize("new, old, samples", CASES, ids=IDS)
def test_equality(new, old, samples):
    for a, b in itertools.product(samples, repeat=2):
        assert (new(*a) == new(*b)) is (old(*a) == old(*b))
        assert (new(*a) != new(*b)) is (old(*a) != old(*b))
    # a subclass with the same fields, and a plain tuple of the same values, are never equal
    new_twin, old_twin = type("Twin", (new,), {}), type("Twin", (old,), {})
    for args in samples:
        for x, others in ((new(*args), (new_twin(*args), args)), (old(*args), (old_twin(*args), args))):
            for other in others:
                assert not x == other and x != other
                assert not other == x and other != x


@pytest.mark.parametrize("new, old, samples", CASES, ids=IDS)
def test_hash_or_unhashability(new, old, samples):
    assert (new.__hash__ is None) is (old.__hash__ is None)
    for args in samples:
        x, y = new(*args), old(*args)
        if old.__hash__ is None:
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == hash(y)


@pytest.mark.parametrize("new, old, samples", CASES, ids=IDS)
def test_assignment(new, old, samples):
    frozen = old.__dataclass_params__.frozen
    x, y = new(*samples[-1]), old(*samples[-1])
    for name, value in zip(new.__match_args__, samples[0]):
        if frozen:
            for obj in (x, y):
                with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                    setattr(obj, name, value)
                with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                    delattr(obj, name)
        else:
            setattr(x, name, value)
            setattr(y, name, value)
            assert getattr(x, name) is value
    assert repr(x) == repr(y)
    assert x == new(*samples[0 if not frozen else -1])


@pytest.mark.parametrize("new, old, samples", CASES, ids=IDS)
def test_copies_and_pickles(new, old, samples):
    for args in samples:
        x = new(*args)
        for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(twin) is new and twin == x and repr(twin) == repr(x)


@pytest.mark.parametrize("args", [("D",), ("A", "x"), ("A", "B", 3), ("a",)])
def test_row_selector_rejects_an_invalid_column_with_the_same_text(args):
    with pytest.raises(ValueError) as new_error:
        matrices.RowSelector(*args)
    with pytest.raises(ValueError) as old_error:
        ref.RowSelector(*args)
    assert str(new_error.value) == str(old_error.value)


def test_match_statement_reads_the_fields():
    match expressions.parse("2*J + 1"):
        case expressions.BinOp(pos, "+", expressions.BinOp(_, "*", left, expressions.UnitRef(_, unit)), right):
            assert (pos, left, unit) == (4, expressions.ScalarConst(0, ExactScalar(2)), UnitName.J)
            assert right == expressions.ScalarConst(6, ExactScalar(1))
        case other:
            pytest.fail(f"unmatched {other!r}")
