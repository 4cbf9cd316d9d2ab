"""Seeded differential test of the shared cyclic core.

The reference below is the arithmetic the core replaced: the
hand-expanded pair, triple and matrix product formulas and the old
square-and-multiply loop (which starts from one and squares after the
top bit), on plain tuples of ExactScalar, with a matrix as three triple
columns.  The core holds ints over one shared denominator instead.
Raw, unreduced results must print identically, since printed output
includes raw components, and the float views must agree bit for bit.
Further down, the loop `convolve` over an index table is the reference
for the core's generated straight-line product, the old per-entry
construction path the reference for its checked construction, and
comprehensions over the payload ints the reference for a matrix's row
sums, a sum of products in Q(sqrt3) over Fraction pairs the reference
for a matrix's norm, and the loops the generated `_make`, `_key` and sum
replaced the reference for those; `_normalised` must give the same
value in lowest terms.
"""

import math
import random
import sys
from enum import IntEnum
from fractions import Fraction
from itertools import product

import pytest

from signfree import (
    UNIT_VALUES,
    CyclicMatrix,
    CyclicTriple,
    ExactScalar,
    RowSelector,
    UnitName,
    UnsignedPair,
    absolute_zero,
    as_scalar,
    rotation_zero,
)
from signfree._cyclic import CyclicElement
from signfree.matrices import _norm_ints
from signfree.scalars import _normalised
from signfree.verify import _norm_sign, _same_norm

from unit_reference import UNIT_DEFS

SEEDS = range(200)
EXPONENTS = range(13)


def ref_pair_mul(x, y):
    a1, b1 = x
    a2, b2 = y
    return (a1 * a2 + b1 * b2, a1 * b2 + a2 * b1)


def ref_triple_mul(x, y):
    a1, b1, c1 = x
    a2, b2, c2 = y
    return (
        a1 * a2 + b1 * c2 + b2 * c1,
        a1 * b2 + a2 * b1 + c1 * c2,
        a1 * c2 + a2 * c1 + b1 * b2,
    )


def ref_add(x, y):
    return tuple(p + q for p, q in zip(x, y))


def ref_matrix_mul(x, y):
    a1, b1, c1 = x
    a2, b2, c2 = y
    mul = ref_triple_mul
    return (
        ref_add(ref_add(mul(a1, a2), mul(b1, c2)), mul(b2, c1)),
        ref_add(ref_add(mul(a1, b2), mul(a2, b1)), mul(c1, c2)),
        ref_add(ref_add(mul(a1, c2), mul(a2, c1)), mul(b1, b2)),
    )


def ref_matrix_add(x, y):
    return tuple(ref_add(p, q) for p, q in zip(x, y))


def ref_reduce(x):
    low = min(x)
    return tuple(p - low for p in x)


def ref_matrix_reduce(x):
    return tuple(ref_reduce(col) for col in x)


def ref_scale(factor, x):
    return tuple(factor * p for p in x)


def ref_matrix_scale(factor, x):
    return tuple(ref_scale(factor, col) for col in x)


def ref_pow(x, n, one, mul):
    result = one
    base = x
    while n:
        if n & 1:
            result = mul(result, base)
        base = mul(base, base)
        n >>= 1
    return result


def show_matrix(cols):
    rows = ("[" + ",".join(str(col[r]) for col in cols) + "]" for r in range(3))
    return "m{" + ";".join(rows) + "}"


_ONE, _ZERO = ExactScalar(1), ExactScalar(0)

# name -> (build from parts, mul, add, reduce, scale, one, show)
SYSTEMS = {
    "pair": (
        lambda x: UnsignedPair(*x), ref_pair_mul, ref_add, ref_reduce, ref_scale,
        (_ONE, _ZERO), lambda x: "p{%s,%s}" % x,
    ),
    "triple": (
        lambda x: CyclicTriple(*x), ref_triple_mul, ref_add, ref_reduce, ref_scale,
        (_ONE, _ZERO, _ZERO), lambda x: "t{%s,%s,%s}" % x,
    ),
    "matrix": (
        lambda x: CyclicMatrix(*x), ref_matrix_mul, ref_matrix_add, ref_matrix_reduce,
        ref_matrix_scale, ((_ONE, _ZERO, _ZERO), (_ZERO,) * 3, (_ZERO,) * 3), show_matrix,
    ),
}


def rand_entry(rng):
    """A nonnegative integer, fraction or value with a sqrt3 part."""
    kind = rng.randrange(3)
    if kind == 0:
        return ExactScalar(rng.randint(0, 5))
    if kind == 1:
        return ExactScalar(Fraction(rng.randint(0, 9), rng.randint(1, 6)))
    root = Fraction(rng.randint(-4, 4), rng.randint(1, 9))
    return ExactScalar(2 * abs(root) + Fraction(rng.randint(0, 4), rng.randint(1, 3)), root)


def rand_parts(rng, name):
    if name == "pair":
        return (rand_entry(rng), rand_entry(rng))
    if name == "triple":
        return tuple(rand_entry(rng) for _ in range(3))
    return tuple(tuple(rand_entry(rng) for _ in range(3)) for _ in range(3))


def constant_like(rng, x):
    """A random constant vector shaped like `x`; a constant per column for matrices."""
    if isinstance(x[0], tuple):
        return tuple(constant_like(rng, col) for col in x)
    return (rand_entry(rng),) * len(x)


def bump_like(rng, x):
    """Zeros shaped like `x` but for one positive entry: never a constant vector."""
    if isinstance(x[0], tuple):
        which = rng.randrange(len(x))
        return tuple(bump_like(rng, col) if i == which else (_ZERO,) * 3 for i, col in enumerate(x))
    parts = [_ZERO] * len(x)
    parts[rng.randrange(len(x))] = ExactScalar(rng.randint(1, 4), rng.randint(0, 1))
    return tuple(parts)


@pytest.mark.parametrize("name", SYSTEMS)
def test_core_matches_hand_expanded_formulas(name):
    build, mul, add, reduce, scale, one, show = SYSTEMS[name]
    for seed in SEEDS:
        rng = random.Random(f"{name}:{seed}")
        x, y = rand_parts(rng, name), rand_parts(rng, name)
        factor = rand_entry(rng)
        bx, by = build(x), build(y)
        where = f"{name} seed {seed}"
        assert str(bx * by) == show(mul(x, y)), where
        assert str(bx + by) == show(add(x, y)), where
        assert str(bx.reduce()) == show(reduce(x)), where
        assert str(factor * bx) == show(scale(factor, x)), where
        assert str(bx * factor) == show(scale(factor, x)), where
        # equality against the reduce-and-compare it replaced: a random y,
        # y = x plus a constant vector (a constant per column for matrices),
        # and that y with one part raised, which leaves the class
        shifted = add(x, constant_like(rng, x))
        raised = add(shifted, bump_like(rng, x))
        for other in (y, shifted, raised):
            bother = build(other)
            assert (bx == bother) == (reduce(x) == reduce(other)), where
            if bx == bother:
                assert hash(bx) == hash(bother), where
        assert bx == build(shifted) and bx != build(raised), where
        if name == "matrix" and seed % 4:
            continue  # matrix powers cost ~0.15 s a seed; every fourth seed runs them
        for n in EXPONENTS:
            assert str(bx**n) == show(ref_pow(x, n, one, mul)), f"{where}, n = {n}"


def test_scalar_power_matches_old_loop():
    rng = random.Random("scalar")
    for seed in SEEDS:
        x = rand_entry(rng)
        for n in EXPONENTS:
            assert str(x**n) == str(ref_pow(x, n, _ONE, lambda p, q: p * q)), (seed, n)


def _count_products(monkeypatch, cls):
    """Route `cls` products through a counter; returns the live count."""
    original = cls.__mul__
    count = [0]

    def counting(self, other):
        count[0] += 1
        return original(self, other)

    monkeypatch.setattr(cls, "__mul__", counting)
    return count


@pytest.mark.parametrize(
    "value",
    [ExactScalar(2, 1), UnsignedPair(3, 1), CyclicTriple(1, 2, 0), UNIT_VALUES[UnitName.J]],
    ids=["scalar", "pair", "triple", "matrix"],
)
def test_power_does_minimal_products(monkeypatch, value):
    count = _count_products(monkeypatch, type(value))
    for n in EXPONENTS:
        count[0] = 0
        value**n
        expected = n.bit_length() + bin(n).count("1") - 2 if n else 0
        assert count[0] == expected, n


def test_unit_square_is_one_product(monkeypatch):
    count = _count_products(monkeypatch, CyclicMatrix)
    assert UNIT_VALUES[UnitName.I] ** 2 == UNIT_VALUES[UnitName.NEG1]
    assert count[0] == 1


# The old views of a tuple of ExactScalar (the columns, for matrices).

_HALF, _ROOT_HALF = ExactScalar(Fraction(1, 2)), ExactScalar(0, Fraction(1, 2))


def ref_repr(name, x):
    if name == "pair":
        return "UnsignedPair(%s, %s)" % x
    if name == "triple":
        return "CyclicTriple(%s, %s, %s)" % x
    return "CyclicMatrix(%s, %s, %s)" % tuple(ref_repr("triple", col) for col in x)


def ref_is_reduced(name, x):
    if name == "matrix":
        return all(ref_is_reduced("triple", col) for col in x)
    return min(x).sign() == 0


def ref_norm_sq(x):
    a, b, c = x
    return a * a + b * b + c * c - a * b - a * c - b * c


def ref_complex_parts(x):
    """The real and imaginary parts of a + b*w + c*w^2, exactly."""
    a, b, c = x
    return a - (b + c) * _HALF, (b - c) * _ROOT_HALF


def ref_to_complex(x):
    return complex(*map(float, ref_complex_parts(x)))


_W_POWERS = ((_ONE, _ZERO, _ZERO), (_ZERO, _ONE, _ZERO), (_ZERO, _ZERO, _ONE))  # 1, w, w^2 as triples


def ref_characters(cols):
    """psi_0, psi_1, psi_2 exactly, as triples: psi_k = A + w^k*B + w^2k*C by
    the reference triple product."""
    a, b, c = cols
    return [
        ref_add(ref_add(a, ref_triple_mul(_W_POWERS[k], b)), ref_triple_mul(_W_POWERS[2 * k % 3], c))
        for k in range(3)
    ]


def bits(values):
    return [(z.real.hex(), z.imag.hex()) for z in values]


def float_view(view):
    """The bits of `view()`'s complex values, or its OverflowError as (type, text)."""
    try:
        values = view()
    except OverflowError as err:
        return type(err), str(err)
    return bits(values if isinstance(values, tuple) else [values])


def check_characters(bx, cols, where):
    """`bx.characters()` is each exact psi part of `cols` rounded once, as
    `float` rounds an ExactScalar: an exact zero part is 0.0, and
    `OverflowError` is raised exactly where an exact part is past float range."""
    exact = [part for psi in ref_characters(cols) for part in ref_complex_parts(psi)]
    try:
        rounded = [float(part) for part in exact]
    except OverflowError:
        rounded = None
    try:
        got = [value for z in bx.characters() for value in (z.real, z.imag)]
    except OverflowError:
        assert rounded is None, where
        return
    assert rounded is not None, where
    assert [value.hex() for value in got] == [value.hex() for value in rounded], where
    assert all(repr(value) == "0.0" for value, part in zip(got, exact) if not part), where


def check_views(name, bx, x, where):
    """Accessors, float views and norms of `bx` against the parts `x`."""
    assert bx.is_reduced == ref_is_reduced(name, x), where
    if name == "matrix":
        columns = bx.columns
        assert bx.components == columns and (bx.col_a, bx.col_b, bx.col_c) == columns, where
        assert all(type(col) is CyclicTriple for col in columns), where
        assert [col.components for col in columns] == list(x), where
        rows = bx.rows()
        assert all(type(entry) is ExactScalar for row in rows for entry in row), where
        assert rows == tuple(zip(*x)), where
        sums = ref_add(ref_add(x[0], x[1]), x[2])
        assert bx.row_sums().components == sums, where
        assert str(bx.norm_sq()) == str(ref_norm_sq(sums)), where
        check_characters(bx, x, where)
        return
    components = bx.components
    assert all(type(part) is ExactScalar for part in components), where
    assert components == x and [str(part) for part in components] == [str(part) for part in x], where
    if name == "triple":
        assert (bx.a, bx.b, bx.c) == x, where
        assert str(bx.norm_sq()) == str(ref_norm_sq(x)), where
        assert float_view(bx.to_complex) == float_view(lambda: ref_to_complex(x)), where
    else:
        assert (bx.plus, bx.minus) == x and bx.to_signed() == x[0] - x[1], where


def check_against_reference(name, x, y, factor, exponents, where):
    """Raw str and repr of every operation, and the views of each result."""
    build, mul, add, reduce, scale, one, show = SYSTEMS[name]
    bx, by = build(x), build(y)
    results = [
        (bx, x),
        (bx * by, mul(x, y)),
        (bx + by, add(x, y)),
        (factor * bx, scale(factor, x)),
        (bx * factor, scale(factor, x)),
        (bx.reduce(), reduce(x)),
    ]
    results += [(bx**n, ref_pow(x, n, one, mul)) for n in exponents]
    for value, ref in results:
        assert str(value) == show(ref), where
        assert repr(value) == ref_repr(name, ref), where
        check_views(name, value, ref, where)


# the units' columns from their hand-written reference: a scale times integer rows
UNIT_PARTS = {
    name: tuple(tuple(scale * ExactScalar(row[s]) for row in rows) for s in range(3))
    for name, (scale, rows) in UNIT_DEFS.items()
}

_ROOT_NINTH = ExactScalar(0, Fraction(1, 9))
# entries whose denominators differ, so an element's shared one is an lcm
MIXED = [
    ExactScalar(Fraction(1, 2)), ExactScalar(Fraction(1, 3)), _ROOT_NINTH, ExactScalar(Fraction(7, 5)), _ZERO, _ONE
]
# sixths and their cancelling partners: a product or scaling loses the denominator
SIXTHS = [ExactScalar(Fraction(1, 6)), ExactScalar(Fraction(1, 2)), ExactScalar(0, Fraction(1, 3)), _ZERO]
CANCELLERS = [ExactScalar(6), ExactScalar(12), ExactScalar(0, 2), _ZERO]
# entries a float holds alone, whose sums, sqrt3 multiples and products leave the float range
_FLOAT_MAX = int(sys.float_info.max)
NEAR_FLOAT_MAX = [
    ExactScalar(_FLOAT_MAX), ExactScalar(0, _FLOAT_MAX // 2), ExactScalar(_FLOAT_MAX, -(_FLOAT_MAX // 2)),
    ExactScalar(Fraction(_FLOAT_MAX, 3)), ExactScalar(1, 1), _ZERO,
]


def draw_parts(rng, name, pool):
    if name == "matrix":
        return tuple(tuple(rng.choice(pool) for _ in range(3)) for _ in range(3))
    return tuple(rng.choice(pool) for _ in range(len(SYSTEMS[name][5])))


def edge_operands(name):
    """(label, x, y, factor): the operand families next to random ones."""
    rng = random.Random(f"edge:{name}")
    zero = draw_parts(rng, name, [_ZERO])
    for i in range(12):
        x, y = draw_parts(rng, name, MIXED), draw_parts(rng, name, MIXED)
        yield f"mixed {i}", x, y, rng.choice(MIXED)
    for i in range(12):
        x, y = draw_parts(rng, name, SIXTHS), draw_parts(rng, name, CANCELLERS)
        yield f"cancelling {i}", x, y, rng.choice(CANCELLERS)
    yield "zero times mixed", zero, draw_parts(rng, name, MIXED), ExactScalar(0, 1)
    yield "zero times zero", zero, zero, _ZERO
    for i in range(12):
        yield f"random {i}", rand_parts(rng, name), rand_parts(rng, name), rand_entry(rng)
    opposite = [*SIGN_EDGES, _ZERO]  # positive entries whose halves have opposite signs
    for i in range(8):
        x, y = draw_parts(rng, name, opposite), draw_parts(rng, name, opposite)
        yield f"opposite halves {i}", x, y, rng.choice(SIGN_EDGES)
    for i in range(8):
        x, y = draw_parts(rng, name, NEAR_FLOAT_MAX), draw_parts(rng, name, NEAR_FLOAT_MAX)
        yield f"near float max {i}", x, y, rng.choice(SIGN_EDGES)
    if name == "matrix":
        units = list(UNIT_PARTS.values())
        for i, unit in enumerate(units):
            yield f"unit {i}", unit, units[(5 * i + 3) % len(units)], _ROOT_NINTH


@pytest.mark.parametrize("name", SYSTEMS)
def test_core_matches_reference_on_edge_operands(name):
    for label, x, y, factor in edge_operands(name):
        check_against_reference(name, x, y, factor, range(6), f"{name} {label}")


def test_unit_products_match_reference():
    for u, x in UNIT_PARTS.items():
        assert str(UNIT_VALUES[u]) == show_matrix(x), u
        for v, y in UNIT_PARTS.items():
            product = UNIT_VALUES[u] * UNIT_VALUES[v]
            assert str(product) == show_matrix(ref_matrix_mul(x, y)), (u, v)
            assert str(product.reduce()) == show_matrix(ref_matrix_reduce(ref_matrix_mul(x, y))), (u, v)


def test_equality_and_hash_across_denominators():
    pairs = [
        (UnsignedPair(Fraction(1, 2), Fraction(1, 2)), UnsignedPair(0, 0)),
        (CyclicTriple(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)), CyclicTriple(0, 0, 0)),
        (
            CyclicTriple(Fraction(1, 3), ExactScalar(1, Fraction(1, 9)), 1),
            CyclicTriple(0, ExactScalar(Fraction(2, 3), Fraction(1, 9)), Fraction(2, 3)),
        ),
    ]
    rng = random.Random("across")
    for _ in range(20):
        col_a, col_b, col_c = draw_parts(rng, "matrix", MIXED)
        x = CyclicMatrix((_ROOT_NINTH,) + col_a[1:], col_b, col_c)
        pairs.append((x + absolute_zero(Fraction(1, 3), Fraction(1, 7), 0), x))
    for a, b in pairs:
        assert a == b and b == a and hash(a) == hash(b), (a, b)
    assert CyclicTriple(Fraction(1, 2), 0, 0) != CyclicTriple(0, 0, 0)


# The construction path the boundary function replaced: each entry checked
# on its own (`require_nonneg`), the checked scalars joined over the lcm
# of their denominators (`join_scalars`), a matrix built from three such
# triples and joined again, and the old hand-written embeddings.


def ref_require_nonneg(value, what):
    scalar = as_scalar(value)
    if scalar.sign() < 0:
        raise ValueError(f"{what} must be nonnegative, got {scalar}")
    return scalar


def ref_join(payloads):
    den = math.lcm(*[d for _, d in payloads])
    return tuple([n * (den // d) for num, d in payloads for n in num]), den


def ref_vector(entries, names):
    """(parts, payload) of a pair or triple."""
    parts = tuple(ref_require_nonneg(value, what) for value, what in zip(entries, names))
    return parts, ref_join([((s._p, s._q), s._d) for s in parts])


_PAIR_NAMES = ("plus component", "minus component")
_TRIPLE_NAMES = ("component a", "component b", "component c")


def ref_matrix(columns):
    """(parts, payload) of a matrix from three triples' (parts, payload)."""
    return tuple(parts for parts, _ in columns), ref_join([payload for _, payload in columns])


def ref_from_rows(rows):
    return ref_matrix([ref_vector([row[s] for row in rows], _TRIPLE_NAMES) for s in range(3)])


def ref_from_signed(name, value):
    scalar = as_scalar(value)
    negative = scalar.sign() < 0
    if name == "pair":
        return ref_vector((0, -scalar) if negative else (scalar, 0), _PAIR_NAMES)
    triple = ref_vector((0, -scalar, -scalar) if negative else (scalar, 0, 0), _TRIPLE_NAMES)
    if name == "triple":
        return triple
    zero = ref_vector((0, 0, 0), _TRIPLE_NAMES)
    return ref_matrix([triple, zero, zero])


def ref_absolute_zero(xi, zeta, eta):
    constants = [
        ref_require_nonneg(value, f"column {column} constant")
        for value, column in zip((xi, zeta, eta), "ABC")
    ]
    return ref_matrix([ref_vector((k, k, k), _TRIPLE_NAMES) for k in constants])


def ref_rotation_zero(selector, xi):
    value = as_scalar(xi)
    if value.sign() <= 0:
        raise ValueError(f"rotation zeros need a positive entry, got {value}")
    grid = [[_ZERO] * 3 for _ in range(3)]
    for row, column in enumerate(selector.choices):
        grid[row]["ABC".index(column)] = value
    return ref_from_rows(grid)


# positive values whose rational and sqrt3 parts have opposite signs
SIGN_EDGES = [ExactScalar(-1, 1), ExactScalar(Fraction(-5, 3), 1), ExactScalar(Fraction(1, 2), Fraction(-1, 4))]


class Digit(IntEnum):
    """An int subclass, which the boundary reads as an int, not by its type."""

    NEG = -3
    ZERO = 0
    SEVEN = 7


_HUGE = 2**200
# entries read apart from the plain int and Fraction ones: bools, an int
# subclass, and ints and Fractions past a machine word
TYPE_EDGES = [True, False, Digit.SEVEN, Digit.ZERO, _HUGE, Fraction(_HUGE, 3**50), Fraction(3**50, _HUGE)]
# entries every constructor refuses, one at a time
BAD_ENTRIES = [
    -1, Fraction(-1, 6), "-0.75", ExactScalar(1, -1), ExactScalar(Fraction(-7, 4), 1), 1.5, "1/x",
    -_HUGE, Fraction(-_HUGE, 3**50), Digit.NEG, None,
]
# every entry type in one call, all over d = 1 or over mixed denominators
TYPE_BATCHES = [
    [7, True, Digit.SEVEN, Fraction(4), ExactScalar(2), ExactScalar(1, 1), "5", _HUGE, False],
    [7, True, Digit.SEVEN, Fraction(1, 2), ExactScalar(Fraction(2, 3)), ExactScalar(1, Fraction(1, 4)), "0.25",
     "5/6", Fraction(_HUGE, 3**50)],
]


def raw_entry(rng):
    """An outside entry: an int, Fraction, numeric str, scalar or type edge, mixed denominators."""
    kind = rng.randrange(6)
    if kind == 0:
        return rng.randint(0, 9)
    if kind == 1:
        return Fraction(rng.randint(0, 9), rng.randint(1, 12))
    if kind == 2:
        return rng.choice((f"{rng.randint(0, 9)}/{rng.randint(1, 12)}", f"{rng.randint(0, 99) / 20}"))
    if kind == 3:
        return rand_entry(rng)
    if kind == 4:
        return rng.choice(SIGN_EDGES)
    return rng.choice(TYPE_EDGES)


def raw_entries(rng, n):
    entries = [raw_entry(rng) for _ in range(n)]
    if rng.randrange(4) == 0:
        entries[rng.randrange(n)] = rng.choice(BAD_ENTRIES)
    return entries


def construction_cases(name, rng):
    """(label, build, reference) for each construction path of a system."""
    signed = rng.choice([raw_entry(rng), -as_scalar(raw_entry(rng)), rng.choice(BAD_ENTRIES)])
    if name == "pair":
        x = raw_entries(rng, 2)
        yield "init", lambda: UnsignedPair(*x), lambda: ref_vector(x, _PAIR_NAMES)
        yield "zero", UnsignedPair.zero, lambda: ref_vector((0, 0), _PAIR_NAMES)
        yield "one", UnsignedPair.one, lambda: ref_vector((1, 0), _PAIR_NAMES)
        yield "from_signed", lambda: UnsignedPair.from_signed(signed), lambda: ref_from_signed(name, signed)
        return
    if name == "triple":
        x = raw_entries(rng, 3)
        yield "init", lambda: CyclicTriple(*x), lambda: ref_vector(x, _TRIPLE_NAMES)
        yield "zero", CyclicTriple.zero, lambda: ref_vector((0, 0, 0), _TRIPLE_NAMES)
        yield "one", CyclicTriple.one, lambda: ref_vector((1, 0, 0), _TRIPLE_NAMES)
        yield "from_signed", lambda: CyclicTriple.from_signed(signed), lambda: ref_from_signed(name, signed)
        return
    x = raw_entries(rng, 9)
    rows = [x[r::3] for r in range(3)]  # x holds the entries column by column
    columns = [x[0:3], tuple(x[3:6]), x[6:9]]
    yield "from_rows", lambda: CyclicMatrix.from_rows(rows), lambda: ref_from_rows(rows)
    yield "init", lambda: CyclicMatrix(*columns), lambda: ref_from_rows(rows)
    try:
        first = CyclicTriple(*x[0:3])  # a built column is taken as it is
    except (TypeError, ValueError):
        pass
    else:
        yield "init with a triple", lambda: CyclicMatrix(first, *columns[1:]), lambda: ref_from_rows(rows)
    yield "zero", CyclicMatrix.zero, lambda: ref_from_rows([[0] * 3] * 3)
    yield "one", CyclicMatrix.one, lambda: ref_from_rows([[1, 0, 0], [0] * 3, [0] * 3])
    yield "from_signed", lambda: CyclicMatrix.from_signed(signed), lambda: ref_from_signed(name, signed)
    constants = raw_entries(rng, 3)
    yield "absolute_zero", lambda: absolute_zero(*constants), lambda: ref_absolute_zero(*constants)
    selector, xi = rng.choice(RowSelector.all()), rng.choice([x[0], 0, signed])
    yield "rotation_zero", lambda: rotation_zero(selector, xi), lambda: ref_rotation_zero(selector, xi)
    batch = rng.sample(rng.choice(TYPE_BATCHES), 9)
    batch_rows = [batch[r::3] for r in range(3)]
    yield "from_rows of every entry type", lambda: CyclicMatrix.from_rows(batch_rows), lambda: ref_from_rows(batch_rows)


def check_construction(name, build, reference, where):
    """`build()` gives `reference()`'s payload, str and repr, or raises its error with its text."""
    try:
        parts, payload = reference()
    except (TypeError, ValueError) as err:
        with pytest.raises(type(err)) as got:
            build()
        assert str(got.value) == str(err), where
        return
    value = build()
    assert (value._num, value._den) == payload, where
    assert all(type(n) is int for n in (*value._num, value._den)), where  # no bool or int subclass kept
    assert str(value) == SYSTEMS[name][6](parts), where
    assert repr(value) == ref_repr(name, parts), where


@pytest.mark.parametrize("name", SYSTEMS)
def test_construction_matches_old_path(name):
    for seed in SEEDS:
        rng = random.Random(f"construct:{name}:{seed}")
        for label, build, reference in construction_cases(name, rng):
            check_construction(name, build, reference, f"{name} seed {seed} {label}")


def test_each_bad_entry_is_refused_in_each_position():
    good = [3, Fraction(1, 2), "0.25", ExactScalar(0, 1), True, Digit.SEVEN, _HUGE, Fraction(_HUGE, 3**50), 0]
    for bad in BAD_ENTRIES:
        for i in range(9):
            x = good[:i] + [bad] + good[i + 1 :]
            rows, pair, triple = [x[r::3] for r in range(3)], x[:2], x[:3]
            cases = [
                ("matrix", lambda: CyclicMatrix.from_rows(rows), lambda: ref_from_rows(rows)),
                ("matrix", lambda: CyclicMatrix(x[0:3], x[3:6], x[6:9]), lambda: ref_from_rows(rows)),
            ]
            if i < 3:
                cases += [
                    ("triple", lambda: CyclicTriple(*triple), lambda: ref_vector(triple, _TRIPLE_NAMES)),
                    ("matrix", lambda: absolute_zero(*triple), lambda: ref_absolute_zero(*triple)),
                ]
            if i < 2:
                cases.append(("pair", lambda: UnsignedPair(*pair), lambda: ref_vector(pair, _PAIR_NAMES)))
            for name, build, reference in cases:
                check_construction(name, build, reference, f"{bad!r} at {i}")
        if isinstance(bad, (int, Fraction, str, ExactScalar)):  # a scale factor of another type is no product
            for one in (UnsignedPair.one(), CyclicTriple.one(), CyclicMatrix.one()):
                with pytest.raises(ValueError) as got:
                    one * bad
                with pytest.raises(ValueError) as ref:
                    ref_require_nonneg(bad, "scale factor")
                assert str(got.value) == str(ref.value), bad


# rotation zero entries: each type, zero, negative, and both signs of
# rational and sqrt3 halves; the negative sums and 1.5 are refused
XIS = [
    0, 3, -2, _HUGE, True, False, Digit.SEVEN, Digit.NEG,
    Fraction(7, 3), Fraction(-1, 2), Fraction(0), Fraction(_HUGE, 3**50),
    "5/4", "-0.5", "0", "2.25",
    ExactScalar(0), ExactScalar(2, 1), ExactScalar(0, Fraction(1, 3)), ExactScalar(0, -1),
    ExactScalar(-1, 1), ExactScalar(2, -1), ExactScalar(1, -1), ExactScalar(-2, 1), 1.5,
]


def test_rotation_zero_matches_reference_for_each_entry():
    for xi in XIS:
        for selector in RowSelector.all():
            build, reference = lambda: rotation_zero(selector, xi), lambda: ref_rotation_zero(selector, xi)
            check_construction("matrix", build, reference, f"{selector} xi={xi!r}")


def test_row_selectors_are_the_27_patterns_in_order():
    fresh = tuple(RowSelector(*choice) for choice in product("ABC", repeat=3))
    assert RowSelector.all() == fresh
    assert [str(s) for s in RowSelector.all()] == [str(s) for s in fresh]


# The product the generated straight-line code replaced: one loop over an
# index table.  The reference table is built here from the group law on
# its own, so a wrong `convolution_table` fails as well as a wrong
# generator.


def convolve(x, y, table):
    """The flat ints of the product of the flat parts x and y (s^2 = 3)."""
    out = []
    for pairs in table:
        p = r = q = 0
        for i, j in pairs:
            xp, xq, yp, yq = x[i], x[i + 1], y[j], y[j + 1]
            p += xp * yp
            r += xq * yq
            q += xp * yq + xq * yp
        out += (p + 3 * r, q)
    return out


def ref_table(orders):
    """For each part k of C_orders[0] x ..., the flat offsets (2*i, 2*j) of
    the parts with i + j == k; part numbers are mixed-radix digits, the
    last order fastest."""
    size = math.prod(orders)

    def plus(i, j):
        k, place = 0, 1
        for n in reversed(orders):
            k += (i // place + j // place) % n * place
            place *= n
        return k

    return [[(2 * i, 2 * j) for i in range(size) for j in range(size) if plus(i, j) == k] for k in range(size)]


PRODUCT_SHAPES = {"pair": (UnsignedPair, (2,)), "triple": (CyclicTriple, (3,)), "matrix": (CyclicMatrix, (3, 3))}
PRODUCT_CASES = 300
# units with sqrt3 entries, whose powers keep growing ints before reduction
ROOTED_UNITS = [UnitName.I, UnitName.JJ, UnitName.NKK, UnitName.LL]


def rooted_parts(rng, name):
    """Parts that all have a sqrt3 part, so that powers grow in both ints."""
    pool = [
        ExactScalar(Fraction(rng.randint(2, 9), rng.randint(1, 4)), Fraction(1, rng.randint(1, 9)))
        for _ in range(4)
    ]
    return draw_parts(rng, name, pool)


# which halves of an element's flat ints are nonzero: P, its rational ints,
# and Q, its sqrt3 ints; the generated product has a branch for each
# operand pair with a zero half
HALVES = ("zero", "P only", "Q only", "both")


def halves_of(num):
    return HALVES[any(num[0::2]) + 2 * any(num[1::2])]


def half_operand(rng, name, halves):
    """An element whose nonzero halves are `halves`; its entries are 0,
    r, r*sqrt3 or a nonnegative mix, over mixed denominators."""

    def rational():
        return Fraction(rng.randint(1, 9), rng.choice((1, 1, 2, 3, 6)))

    r = rational()
    kinds = {
        "zero": [(0, 0)],
        "P only": [(0, 0), (rational(), 0)],
        "Q only": [(0, 0), (0, rational())],
        "both": [(0, 0), (rational(), 0), (0, rational()), (2 * r, -r / 2)],
    }[halves]
    flat = [rng.choice(kinds) for _ in range(math.prod(PRODUCT_SHAPES[name][1]))]
    # one entry with each of the halves asked for
    if halves in ("P only", "both"):
        flat[rng.randrange(len(flat))] = (rational(), 0)
    if halves in ("Q only", "both"):
        flat[rng.randrange(len(flat))] = (0, rational())
    entries = [ExactScalar(p, q) for p, q in flat]
    if name == "matrix":
        entries = [entries[3 * col : 3 * col + 3] for col in range(3)]
    return SYSTEMS[name][0](entries)


def product_operands(name):
    """PRODUCT_CASES (label, x, y) elements: zeros, mixed denominators,
    units, large sqrt3 powers, every pattern of zero halves, then seeded
    random operands."""
    cls, orders = PRODUCT_SHAPES[name]
    build = SYSTEMS[name][0]
    rng = random.Random(f"product:{name}")
    size = math.prod(orders)
    # the group elements (one part 1) and -1 are units of every shape
    units = [cls._make([int(k == 2 * part) for k in range(2 * size)], 1) for part in range(size)]
    units.append(cls.from_signed(-1))
    if name == "matrix":
        units += UNIT_VALUES.values()
    cases = [("zero times zero", cls.zero(), cls.zero())]
    cases += [(f"zero times mixed {i}", cls.zero(), build(draw_parts(rng, name, MIXED))) for i in range(4)]
    for i in range(40):
        cases.append((f"mixed {i}", build(draw_parts(rng, name, MIXED)), build(draw_parts(rng, name, MIXED))))
    cases += [(f"unit {i}", u, rng.choice(units)) for i, u in enumerate(units)]
    cases += [(f"unit {i} times mixed", u, build(draw_parts(rng, name, MIXED))) for i, u in enumerate(units)]
    for i in range(8):
        u, v = build(rooted_parts(rng, name)), rng.choice(units) * build(rooted_parts(rng, name))
        cases += [(f"U^7 x U^9 {i}", u**7, u**9), (f"U^9 x V^7 {i}", u**9, v**7)]
    if name == "matrix":
        rooted = [UNIT_VALUES[u] for u in ROOTED_UNITS]
        cases += [(f"unit power {i}", u**7, rooted[(i + 3) % len(rooted)] ** 9) for i, u in enumerate(rooted)]
    for hx in HALVES:
        for hy in HALVES:
            cases += [
                (f"{hx} x {hy} {i}", half_operand(rng, name, hx), half_operand(rng, name, hy)) for i in range(2)
            ]
    while len(cases) < PRODUCT_CASES:
        cases.append((f"random {len(cases)}", build(rand_parts(rng, name)), build(rand_parts(rng, name))))
    return cases


@pytest.mark.parametrize("name", PRODUCT_SHAPES)
def test_generated_product_matches_loop(name):
    cls, orders = PRODUCT_SHAPES[name]
    table = ref_table(orders)
    assert [list(pairs) for pairs in cls._TABLE] == table
    cases = product_operands(name)
    assert len(cases) == PRODUCT_CASES
    # each of the 16 ordered patterns of zero halves, run below in both orders
    assert len({(halves_of(x._num), halves_of(y._num)) for _, x, y in cases}) == len(HALVES) ** 2
    for label, x, y in cases:
        where = f"{name} {label}"
        for a, b in ((x, y), (y, x)):
            raw = convolve(a._num, b._num, table)
            assert list(cls._product(a._num, b._num)) == raw, where
            ref, got = cls._make(raw, a._den * b._den), a * b
            assert (got._num, got._den) == (ref._num, ref._den), where
            assert str(got) == str(ref) and repr(got) == repr(ref), where


def test_each_class_owns_a_distinct_copy_of_each_shared_entry():
    # per-class instrumentation wraps cls.__dict__[entry], keyed by the function
    # object: a shared object would count every class's calls under one name
    classes = (UnsignedPair, CyclicTriple, CyclicMatrix)
    for entry in ("__mul__", "__rmul__", "__pow__", "reduce", "__eq__", "__hash__"):
        assert all(entry in vars(cls) for cls in classes), entry
        functions = [vars(cls)[entry] for cls in classes]
        assert len({id(f) for f in functions}) == len(classes), entry
        assert all(f.__code__ is vars(CyclicElement)[entry].__code__ for f in functions), entry
    assert all(vars(cls)["__rmul__"] is vars(cls)["__mul__"] for cls in classes)


# The comprehension over a matrix's payload ints that `matrices._character_ints`
# replaced in `row_sums`, and a norm that shares no code with the core's: each
# row sum of the printed rows as a (rational, sqrt3) pair of Fractions, and
# a^2 + b^2 + c^2 - ab - bc - ca of them multiplied out in Q(sqrt3).


def ref_row_sums(m):
    num = m._num
    return CyclicTriple._make([num[k] + num[k + 6] + num[k + 12] for k in range(6)], m._den)


def q3_mul(x, y):
    """(x0 + x1*sqrt3) * (y0 + y1*sqrt3) as a (rational, sqrt3) pair."""
    return x[0] * y[0] + 3 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def ref_matrix_norm(m):
    """m's norm as a (rational, sqrt3) pair of Fractions."""
    a, b, c = ((sum(e.rat for e in row), sum(e.root for e in row)) for row in m.rows())
    plus = [q3_mul(a, a), q3_mul(b, b), q3_mul(c, c)]
    minus = [q3_mul(a, b), q3_mul(b, c), q3_mul(c, a)]
    return tuple(Fraction(sum(t[k] for t in plus) - sum(t[k] for t in minus)) for k in (0, 1))


def ref_matrix_norm_sq(m):
    return ExactScalar(*ref_matrix_norm(m))


def row_sum_entry(rng, size):
    """A nonnegative entry (p + q*sqrt3)/d, d up to 12, rational, a multiple
    of sqrt3 or both, with ints up to `size`."""
    d, kind = rng.randint(1, 12), rng.randrange(3)
    q = 0 if kind == 0 else rng.randint(0 if kind == 1 else -size, size)
    p = 0 if kind == 1 else 2 * abs(q) + rng.randint(0, size)
    return ExactScalar(Fraction(p, d), Fraction(q, d))


def test_row_sums_and_norm_match_comprehensions():
    rng = random.Random("row sums")
    zeros = [rotation_zero(s, xi) for xi in (Fraction(7, 3), Fraction(1)) for s in RowSelector.all()]
    matrices = list(UNIT_VALUES.values()) + zeros
    for seed in range(600):
        size = (_HUGE, 9, 2**110)[seed % 3]
        matrices.append(CyclicMatrix.from_rows([[row_sum_entry(rng, size) for _ in range(3)] for _ in range(3)]))
    seeded = matrices[16 + 54 :]
    entries = [e for m in seeded for row in m.rows() for e in row]
    # sqrt3 ints of both signs, entries over unequal denominators, ints past 2**100
    assert min(e.root for e in entries) < 0 < max(e.root for e in entries)
    assert sum(len({e.rat.denominator for row in m.rows() for e in row}) > 1 for m in seeded) > 400
    assert max(abs(n) for m in seeded for n in m._num).bit_length() > 100
    verdicts = {True: 0, False: 0}
    for i, m in enumerate(matrices):
        sums, ref = m.row_sums(), ref_row_sums(m)
        assert type(sums) is CyclicTriple and (sums._num, sums._den) == (ref._num, ref._den), i
        norm, ref_norm = m.norm_sq(), ref_matrix_norm_sq(m)
        assert type(norm) is ExactScalar, i
        assert (norm._p, norm._q, norm._d) == (ref_norm._p, ref_norm._q, ref_norm._d), i
        p, q, d = _norm_ints(m)  # not in lowest terms: compared as values
        assert d > 0 and p * ref_norm._d == ref_norm._p * d and q * ref_norm._d == ref_norm._q * d, i
        assert _norm_sign(m) == norm.sign(), i  # read from the ints before the gcd
        # equal norms (a rotation zero added, a zero doubled) and unequal ones
        for other in (m + zeros[i % 54], 2 * m, matrices[i - 1]):
            same = norm == other.norm_sq()
            assert _same_norm(m, other) == same, i
            verdicts[same] += 1
    assert verdicts[True] and verdicts[False], verdicts
    assert all(ref_matrix_norm(m) == (0, 0) for m in zeros)
    # norms 4 + 2*sqrt3 and 4: equal rational parts only
    root, two = (CyclicMatrix.from_rows([[x, 0, 0], [0, 0, 0], [0, 0, 0]]) for x in (ExactScalar(1, 1), 2))
    assert not _same_norm(root, two) and not _same_norm(two, root)


# The loop `_make` and `_key` that the generated straight-line ones replaced.


def ref_make(cls, num, den):
    g = math.gcd(*num, den)
    element = object.__new__(cls)
    if g == 1:
        element._num, element._den = tuple(num), den
    else:
        element._num, element._den = tuple([n // g for n in num]), den // g
    return element


def ref_key(element, orders):
    num, run = element._num, 2 * orders[-1]
    pairs = [(start + i, start + i % 2) for start in range(0, len(num), run) for i in range(2, run)]
    diffs = [num[i] - num[j] for i, j in pairs]
    g = math.gcd(*diffs, element._den)
    if g != 1:
        diffs = [n // g for n in diffs]
    return tuple(diffs), element._den // g


def make_key_cases(rng, orders):
    """(ints, den) payloads: zeros, small and huge ints, a common factor
    with den (the make gcd > 1), and runs that differ from a constant by
    multiples of a factor of den (the key gcd > 1), with dens up to 12."""
    size, run = 2 * math.prod(orders), 2 * orders[-1]
    cases = [([0] * size, d) for d in range(1, 13)]
    for seed in range(600):
        top = _HUGE if seed % 3 == 0 else 9
        den = rng.randint(1, 12)
        num = [rng.randint(0, top) if rng.random() < 0.7 else 0 for _ in range(size)]
        kind = seed % 4
        if kind == 1:  # a common factor of the ints and den
            f = rng.randint(2, 12)
            num, den = [n * f for n in num], den * f
        elif kind == 2:  # each run a constant plus multiples of a factor of den
            f = rng.randint(2, 12)
            bases = [rng.randint(0, top) for _ in range(size // run * 2)]
            num = [bases[k // run * 2 + k % 2] + f * n for k, n in enumerate(num)]
            den = f * rng.randint(1, 12 // f)
        elif kind == 3:  # both
            f, h = rng.randint(2, 6), rng.randint(2, 6)
            bases = [rng.randint(0, top) for _ in range(size // run * 2)]
            num = [h * (bases[k // run * 2 + k % 2] + f * n) for k, n in enumerate(num)]
            den = h * f * rng.randint(1, 2)
        cases.append((num, den))
    return cases + gcd_order_cases(rng, size)


def gcd_order_cases(rng, size):
    """(ints, den) payloads where the order of its arguments decides how soon
    `math.gcd` stops: ints with a common factor over d = 1, leading zero
    ints, every int a multiple of 6 over d = 12, and ints past 2**64."""
    cases = []
    for _ in range(40):
        f = rng.randint(2, 12)
        cases.append(([f * rng.randint(0, 99) for _ in range(size)], 1))
        lead = rng.randint(1, size - 1)
        cases.append(([0] * lead + [f * rng.randint(0, 99) for _ in range(size - lead)], f * rng.randint(1, 3)))
        cases.append(([6 * rng.randint(0, 99) for _ in range(size)], 12))
        big = [rng.getrandbits(80) | 2**64 for _ in range(size)]
        cases += [(big, rng.randint(1, 12)), ([f * n for n in big], f * rng.randint(1, 12))]
    return cases


@pytest.mark.parametrize("name", PRODUCT_SHAPES)
def test_generated_make_and_key_match_loops(name):
    cls, orders = PRODUCT_SHAPES[name]
    branches = set()
    for i, (num, den) in enumerate(make_key_cases(random.Random(f"make and key:{name}"), orders)):
        for ints in (list(num), tuple(num)):
            got, ref = cls._make(ints, den), ref_make(cls, ints, den)
            assert type(got) is cls and type(got._num) is tuple, (name, i)
            assert (got._num, got._den) == (ref._num, ref._den), (name, i)
            key = got._key()
            assert key == ref_key(ref, orders), (name, i)
        branches.add((ref._den != den, key[1] != got._den))
    # each of gcd 1 and gcd > 1, in make and in key, together
    assert branches == {(False, False), (False, True), (True, False), (True, True)}, name


def test_normalised_divides_out_the_gcd():
    rng = random.Random("normalised")
    cases = gcd_order_cases(rng, 2)
    cases += [([rng.randint(0, 99), rng.randint(0, 99)], rng.randint(1, 12)) for _ in range(200)]
    divided = 0
    for i, ((p, q), d) in enumerate(cases):
        p, q = rng.choice((1, -1)) * p, rng.choice((1, -1)) * q
        got = _normalised(p, q, d)
        # the same value in lowest terms, which is unique
        assert type(got) is ExactScalar and got._d > 0 and math.gcd(got._p, got._q, got._d) == 1, i
        assert got._p * d == p * got._d and got._q * d == q * got._d, i
        divided += got._d != d
    assert 0 < divided < len(cases)


# The loop `__add__` that the generated straight-line sum replaced.


def ref_sum(x, y):
    if not isinstance(y, type(x)):
        return NotImplemented
    dx, dy = x._den, y._den
    if dx == dy:
        return ref_make(type(x), [a + b for a, b in zip(x._num, y._num)], dx)
    return ref_make(type(x), [a * dy + b * dx for a, b in zip(x._num, y._num)], dx * dy)


def sum_operands(name, rng):
    """Elements of one shape: zero, constant runs, units, rotation and
    absolute zeros for matrices, and seeded payloads with ints up to 125
    bits over denominators up to 12 or of 64 bits."""
    cls, orders = PRODUCT_SHAPES[name]
    size, run = 2 * math.prod(orders), 2 * orders[-1]
    elements = [cls.zero()]
    # one part 1 (the group elements) and -1, reduced
    elements += [cls._make([int(k == 2 * part) for k in range(size)], 1) for part in range(size // 2)]
    elements.append(cls.from_signed(-1))
    # each run a constant vector: a zero of the quotient
    constants = [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(size // run)]
    elements.append(cls._make([n for p, q in constants for n in (p, q) * (run // 2)], 3))
    if name == "matrix":
        elements += UNIT_VALUES.values()
        elements += [rotation_zero(s, Fraction(rng.randint(1, 9), rng.randint(1, 4))) for s in RowSelector.all()]
        for _ in range(8):
            elements.append(absolute_zero(*(Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(3))))
    for i in range(300):
        bits = rng.choice((4, 20, 64, 125))
        den = rng.randint(1, 12) if i % 4 else rng.getrandbits(64) | 1
        elements.append(cls._make([rng.getrandbits(bits) if rng.random() < 0.8 else 0 for _ in range(size)], den))
    return elements


@pytest.mark.parametrize("name", PRODUCT_SHAPES)
def test_generated_sum_matches_loop(name):
    cls = PRODUCT_SHAPES[name][0]
    rng = random.Random(f"sum:{name}")
    elements = sum_operands(name, rng)
    assert max(max(x._num).bit_length() for x in elements) == 125
    pairs = [(x, x) for x in elements] + [(x, rng.choice(elements)) for x in elements]
    # another element's ints over x's denominator, so that equal denominators meet every kind of payload
    pairs += [(x, cls._make(rng.choice(elements)._num, x._den)) for x in elements]
    dens = {True: 0, False: 0}
    for i, (x, y) in enumerate(pairs):
        for a, b in ((x, y), (y, x)):
            got, ref = a + b, ref_sum(a, b)
            assert type(got) is cls and type(got._num) is tuple, (name, i)
            assert (got._num, got._den) == (ref._num, ref._den), (name, i)
        dens[x._den == y._den] += 1
    assert dens[True] > 100 and dens[False] > 100, dens


def test_generated_sum_refuses_other_operands():
    classes = (UnsignedPair, CyclicTriple, CyclicMatrix)
    for cls in classes:
        x = cls.one()
        for other in (1, Fraction(1, 2), ExactScalar(1), 1.5, "1", *(c.one() for c in classes if c is not cls)):
            assert x.__add__(other) is NotImplemented, (cls, other)
            with pytest.raises(TypeError):
                x + other
            with pytest.raises(TypeError):
                other + x
    # each class owns its own generated sum, compiled under its shape's name
    assert "__add__" not in vars(CyclicElement)
    filenames = [vars(cls)["__add__"].__code__.co_filename for cls in classes]
    assert filenames == ["<signfree C2 add>", "<signfree C3 add>", "<signfree C3xC3 add>"]
