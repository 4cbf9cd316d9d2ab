"""Shared core of pairs, triples and matrices: Q(sqrt 3)[G] modulo constants.

G is a finite abelian group: C2 for pairs, C3 for triples and C3 x C3
for matrices, whose part ``3*s + r`` is row r of column s.  Parts add
componentwise and multiply by the convolution over G,
``out[k] = sum of x[i]*y[j] over i + j == k``.  Each shape builds a
small index table once (`convolution_table`) and generates its product
from it as unrolled code (`straight_line_product`): one function
with no loop, so the table stays the only source of the formula.  It
tests which halves of each operand (rational or sqrt3 ints) are zero
and, when each operand has one, returns the one unrolled sum left,
else the full expression.  It is the only multiply of elements: a
scale factor is the element with the factor at part 0, the identity
of G, and zeros elsewhere.  Each shape's `_make`, which builds every
result in lowest terms, and `_key`, its equality key, are generated
the same way (`straight_line_make`, `straight_line_key`): the ints
unpacked by name, one gcd, and a divide written out for each int.  So
is its sum, `__add__` (`straight_line_sum`): the ints cross-multiplied
over the product of the denominators.  The loops these replaced are
kept in ``tests/test_cyclic_core.py`` as the reference.

An element holds its n parts as one flat tuple of ints
``(p0, q0, p1, q1, ...)`` over one shared denominator ``d > 0``: part i
is ``(p_i + q_i*sqrt(3)) / d``.  The ints and ``d`` have no common
factor, so each operation is int multiplies and adds plus one gcd over
the whole tuple, with no `ExactScalar` in between.  Scalars and triples
are built only at the boundary: constructors, accessors, `repr` and the
float views.  `str` fills the marks of the class's `_LITERAL` with each
part's ints printed by `scalars._text`; the parser reads the same literal.

The parts fall into runs of consecutive parts (the whole element for
pairs and triples, one column for matrices), and a run that is a
constant vector acts as zero.  Equality needs no ordering to see that:
x ~ y exactly when, in every run, x[i] - x[first] == y[i] - y[first],
so equality and hashing compare those differences over ``d`` in lowest
terms (`_key`).  `reduce()`, which subtracts each run's minimum part,
gives the printed form.

Nonnegativity is checked once, where values come from outside: every
constructor and every scale factor passes its entries through
`checked_payload`, which reads each entry as ``(p, q, d)`` ints, tests
its sign once and joins the entries over one denominator, the only join:
a matrix built from columns passes it all nine entries, a built triple's
by its components, and a literal its items in part order.  Sums, products
and reductions of nonnegative parts stay nonnegative, so results are
built unchecked by the class's ``_make``.  ``*``, ``**``, ``==``, ``hash`` and `reduce()`
are written once, here, and each public class gets its own copy of them
(and its own generated ``+``), so per-class instrumentation
(``bench/tracing.py``) can wrap each apart.
"""

from __future__ import annotations

import math
import re
import types
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import product

from .scalars import ExactScalar, _int_sign, _normalised, _text, as_scalar, power

SCALAR_TYPES = (ExactScalar, int, Fraction, str)


def convolution_table(*orders: int) -> tuple:
    """For each part k of C_orders[0] x C_orders[1] x ..., the offsets
    ``(2*i, 2*j)`` into two flat int tuples of the parts with i + j == k.

    Parts are numbered in mixed radix, the last order fastest.
    """
    elements = list(product(*(range(n) for n in orders)))
    index = {element: k for k, element in enumerate(elements)}
    table = [[] for _ in elements]
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            k = index[tuple((a + b) % n for a, b, n in zip(x, y, orders))]
            table[k].append((2 * i, 2 * j))
    return tuple(map(tuple, table))


def straight_line_product(table: tuple, name: str) -> "Callable[[tuple, tuple], tuple]":
    """The convolution over `table` as one generated function of two flat
    int tuples, compiled under the filename ``<signfree NAME product>``.

    With P, Q the rational and sqrt3 ints of x and P', Q' those of y, the
    product is PP' + 3QQ' + sqrt3(PQ' + QP'), where PP' is ``sum of
    p_i*p'_j`` over the table's pairs (i, j) of each part, and so on.
    Each of the four sums is written out once, unrolled.  When each
    operand has a zero half, as every unit and every rational element
    has, one sum is all that is left, and the function returns it alone;
    every other operand pair takes the full expression.  Scaling calls it
    too, with y the factor at part 0 and zeros elsewhere.
    """
    size = 2 * len(table)
    # per part: x's p (offset 0) or q (offset 1) ints times y's
    pp, qq, pq, qp = (
        [" + ".join(f"x{i + a}*y{j + b}" for i, j in pairs) for pairs in table]
        for a, b in ((0, 0), (1, 1), (0, 1), (1, 0))
    )
    three_qq = [f"3*({s})" for s in qq]
    full_p = [f"{a} + {b}" for a, b in zip(pp, three_qq)]
    full_q = [f"{a} + {b}" for a, b in zip(pq, qp)]
    zeros = ["0"] * len(table)

    def parts(p: list, q: list) -> str:
        return "(" + ", ".join(f"{a}, {b}" for a, b in zip(p, q)) + ")"

    def nonzero(v: str, half: int) -> str:
        return " or ".join(f"{v}{i}" for i in range(half, size, 2))

    source = (
        "def product(x, y):\n"
        f"    {_names('x', size)}= x\n"
        f"    {_names('y', size)}= y\n"
        f"    if not ({nonzero('x', 1)}):\n"  # x rational
        f"        if not ({nonzero('y', 1)}):\n"
        f"            return {parts(pp, zeros)}\n"
        f"        if not ({nonzero('y', 0)}):\n"
        f"            return {parts(zeros, pq)}\n"
        f"    elif not ({nonzero('x', 0)}):\n"  # x a multiple of sqrt3
        f"        if not ({nonzero('y', 1)}):\n"
        f"            return {parts(zeros, qp)}\n"
        f"        if not ({nonzero('y', 0)}):\n"
        f"            return {parts(three_qq, zeros)}\n"
        f"    return {parts(full_p, full_q)}\n"
    )
    return _compiled(source, name, "product")


def straight_line_make(size: int, name: str) -> "Callable[..., CyclicElement]":
    """`_make(cls, num, den)` for elements of `size` flat ints, as one
    generated function compiled under ``<signfree NAME make>``.

    It unpacks ``num``, takes one gcd of its ints and ``den``, and when
    that is not 1 divides each of them by it, written out.
    """
    ints = _names("x", size)
    source = (
        "def make(cls, num, den):\n"
        f"    {ints}= num\n"
        f"    g = gcd({ints}den)\n"
        "    element = new(cls)\n"
        "    if g == 1:\n"  # kept: verify-laws x0.97 ops/s without it (BENCH_27.json)
        f"        element._num = ({ints})\n"
        "        element._den = den\n"
        "    else:\n"
        f"        element._num = ({_names('x', size, ' // g')})\n"
        "        element._den = den // g\n"
        "    return element\n"
    )
    return _compiled(source, name, "make")


def straight_line_sum(size: int, name: str) -> "Callable[[CyclicElement, object], CyclicElement]":
    """`__add__(self, other)` for elements of `size` flat ints, as one
    generated function compiled under ``<signfree NAME add>``.

    Another shape or a non-element gives `NotImplemented`.  It
    cross-multiplies the ints over ``dx * dy``, equal denominators too,
    and the class's `_make` divides out the gcd.
    """
    cross = ", ".join(f"x{i} * dy + y{i} * dx" for i in range(size))
    source = (
        "def add(self, other):\n"
        "    if not isinstance(other, type(self)):\n"
        "        return NotImplemented\n"
        f"    {_names('x', size)}= self._num\n"
        f"    {_names('y', size)}= other._num\n"
        "    dx = self._den\n"
        "    dy = other._den\n"
        f"    return self._make(({cross}), dx * dy)\n"
    )
    return _compiled(source, name, "add")


def straight_line_key(size: int, pairs: list, name: str) -> "Callable[[CyclicElement], tuple]":
    """`_key(self)` as one generated function compiled under
    ``<signfree NAME key>``: the differences ``x[i] - x[j]`` over `pairs`
    and the denominator, divided by their gcd when it is not 1."""
    diffs = _names("k", len(pairs))
    source = (
        "def key(self):\n"
        f"    {_names('x', size)}= self._num\n"
        "    den = self._den\n"
        + "".join(f"    k{n} = x{i} - x{j}\n" for n, (i, j) in enumerate(pairs))
        + f"    g = gcd({diffs}den)\n"
        "    if g == 1:\n"  # kept: unit-tables x0.96 ops/s at seed 918273 without it (BENCH_27.json)
        f"        return ({diffs}), den\n"
        f"    return ({_names('k', len(pairs), ' // g')}), den // g\n"
    )
    return _compiled(source, name, "key")


def _names(prefix: str, count: int, suffix: str = "") -> str:
    """`count` numbered names, each with `suffix` and a comma: ``x0, x1, ``
    or, with the suffix `` // g``, ``x0 // g, x1 // g, ``."""
    return "".join(f"{prefix}{i}{suffix}, " for i in range(count))


def _compiled(source: str, name: str, what: str) -> Callable:
    """The function `what` that `source` defines, compiled under the
    filename ``<signfree NAME WHAT>``."""
    namespace: dict = {"gcd": math.gcd, "new": object.__new__}
    exec(compile(source, f"<signfree {name} {what}>", "exec"), namespace)
    return namespace[what]


def checked_payload(entries: "Iterable[object]", names: "Iterable[str]") -> "tuple[tuple, int]":
    """The ``(ints, d)`` payload of outside entries, one part each.

    An entry is an `ExactScalar`, int, Fraction or numeric str; each must
    be nonnegative, and its name in `names` says which one is not.  A scalar is
    read by type, any other entry by `ExactScalar._parts`, through `as_scalar`
    where that reads none.  Each entry is checked before the next is drawn.
    """
    num, dens = [], []
    for value, what in zip(entries, names):
        if type(value) is ExactScalar:
            p, q, d = value._p, value._q, value._d
        else:
            p, q, d = ExactScalar._parts(value) or ExactScalar._parts(as_scalar(value))
        # kept, as is the join below: eval-stream p50 x1.05 without them and three others (BENCH_27.json)
        if (p < 0) if q == 0 else (_int_sign(p, q) < 0):
            raise ValueError(f"{what} must be nonnegative, got {_normalised(p, q, d)}")
        num += (p, q)
        dens.append(d)
    den = math.lcm(*dens)
    # The join is in lowest terms, as each entry is: a prime power that divides the lcm
    # exactly divides some entry's d, whose p and q are not both divisible by the prime.
    if den != 1:  # kept with the sign test above (BENCH_27.json)
        for i, d in enumerate(dens):
            if d != den:
                f = den // d
                num[2 * i] *= f
                num[2 * i + 1] *= f
    return tuple(num), den


class CyclicElement:
    """Nonnegative parts of a group algebra element, as ints over one denominator.

    Subclasses set `_NOUN`, their plural for error texts, `_ORDERS`, the
    cyclic factors of their group (the last one's order is a run's length),
    `_LITERAL`, their text with each item marked by its part's digit, and
    `_ENTRIES`, the part names for error texts.  Each subclass gets its own
    copy of the operators and `reduce` below; its product, sum, `_make`
    (nonnegative ints over a denominator, to an element in lowest terms)
    and `_key` are generated for its shape when it is created.
    """

    __slots__ = ("_num", "_den")

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._TABLE = convolution_table(*cls._ORDERS)
        name = "x".join(f"C{n}" for n in cls._ORDERS)
        cls._product = staticmethod(straight_line_product(cls._TABLE, name))
        cls._SIZE = size = 2 * math.prod(cls._ORDERS)  # flat ints per element
        cls._ZEROS = (0,) * (size - 2)  # the parts after part 0 of a scale factor
        cls._RUN = run = 2 * cls._ORDERS[-1]  # flat ints per run
        cls._make = classmethod(straight_line_make(size, name))
        cls.__add__ = straight_line_sum(size, name)
        # (i, j): flat int i and the same int (p or q) of its run's first part
        key_pairs = [(start + i, start + i % 2) for start in range(0, size, run) for i in range(2, run)]
        cls._key = straight_line_key(size, key_pairs, name)
        # bench/tracing.py tells the classes apart by these entries, so each owns a copy
        for name in ("__mul__", "__pow__", "reduce", "__eq__", "__hash__"):
            f = vars(CyclicElement)[name]
            own = types.FunctionType(f.__code__, f.__globals__, name, f.__defaults__, f.__closure__)
            setattr(cls, name, own)
        cls.__rmul__ = cls.__mul__
        # the literal as a format string, each mark a field, and each part's item in text order
        cls._FORMAT = re.sub(r"\d", r"{\g<0>}", cls._LITERAL.replace("{", "{{").replace("}", "}}"))
        marks = re.findall(r"\d", cls._LITERAL)
        cls._ITEM_OF_PART = tuple(marks.index(str(k)) for k in range(size // 2))

    @classmethod
    def _from_literal(cls, items: "Sequence[object]") -> "CyclicElement":
        """The element whose literal holds `items` in text order, checked in part order."""
        return cls._make(*checked_payload([items[i] for i in cls._ITEM_OF_PART], cls._ENTRIES))

    @classmethod
    def zero(cls) -> "CyclicElement":
        return cls._make([0] * cls._SIZE, 1)

    @classmethod
    def one(cls) -> "CyclicElement":
        return cls._make([1] + [0] * (cls._SIZE - 1), 1)

    @classmethod
    def from_signed(cls, value: object) -> "CyclicElement":
        """A real number v, reduced: v >= 0 as part 0, v < 0 as -v in the
        other parts of the first run."""
        scalar = as_scalar(value)
        p, q = scalar._p, scalar._q
        num = [0] * cls._SIZE
        if _int_sign(p, q) < 0:
            num[2 : cls._RUN] = [-p, -q] * (cls._RUN // 2 - 1)
        else:
            num[:2] = p, q
        return cls._make(num, scalar._d)

    def _part(self, i: int) -> ExactScalar:
        return _normalised(self._num[2 * i], self._num[2 * i + 1], self._den)

    @property
    def components(self) -> tuple:
        return tuple(self._part(i) for i in range(len(self._num) // 2))

    def __mul__(self, other: object) -> "CyclicElement":
        if isinstance(other, type(self)):
            num, den = other._num, other._den
        elif isinstance(other, SCALAR_TYPES):
            (p, q), den = checked_payload((other,), ("scale factor",))
            num = (p, q, *self._ZEROS)
        else:
            return NotImplemented
        return self._make(self._product(self._num, num), self._den * den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "CyclicElement":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError(f"negative powers are not defined for {self._NOUN}")
        return power(self, exponent, self.one)

    def reduce(self) -> "CyclicElement":
        """Each run less its minimum part; idempotent.

        A pair loses the smaller of its two parts, a triple the minimum of
        its three, and each matrix column its own minimum.  The minima are
        found by exact signs over the common ``d``.
        """
        num, run = self._num, self._RUN
        out = []
        for start in range(0, len(num), run):
            lp, lq = num[start], num[start + 1]
            for i in range(start + 2, start + run, 2):
                if _int_sign(num[i] - lp, num[i + 1] - lq) < 0:
                    lp, lq = num[i], num[i + 1]
            for i in range(start, start + run, 2):
                out += (num[i] - lp, num[i + 1] - lq)
        return self._make(out, self._den)

    @property
    def is_reduced(self) -> bool:
        # the core's own function: a tracer may wrap the class's copy, and counts calls to it
        return CyclicElement.reduce(self)._num == self._num

    def __str__(self) -> str:
        num, d = self._num, self._den
        return self._FORMAT.format(*[_text(num[i], num[i + 1], d) for i in range(0, len(num), 2)])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(str, self.components))})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))
