"""Seeded differential test of the shared cyclic core.

The reference below is the arithmetic the core replaced: the
hand-expanded pair, triple and matrix product formulas and the old
square-and-multiply loop (which starts from one and squares after the
top bit), on plain tuples of ExactScalar, with a matrix as three triple
columns.  The core holds ints over one shared denominator instead.
Raw, unreduced results must print identically, since printed output
includes raw components, and the float views must agree bit for bit.
"""

import math
import random
from fractions import Fraction

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
from signfree.units import _UNIT_DEFS

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
_OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)
_OMEGA2 = complex(-0.5, -math.sqrt(3.0) / 2.0)


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


def ref_to_complex(x):
    a, b, c = x
    return complex(float(a - (b + c) * _HALF), float((b - c) * _ROOT_HALF))


def ref_characters(cols):
    pa, pb, pc = (ref_to_complex(col) for col in cols)
    return (pa + pb + pc, pa + _OMEGA * pb + _OMEGA2 * pc, pa + _OMEGA2 * pb + _OMEGA * pc)


def bits(values):
    return [(z.real.hex(), z.imag.hex()) for z in values]


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
        assert bits(bx.characters()) == bits(ref_characters(x)), where
        return
    components = bx.components
    assert all(type(part) is ExactScalar for part in components), where
    assert components == x and [str(part) for part in components] == [str(part) for part in x], where
    if name == "triple":
        assert (bx.a, bx.b, bx.c) == x, where
        assert str(bx.norm_sq()) == str(ref_norm_sq(x)), where
        assert bits([bx.to_complex()]) == bits([ref_to_complex(x)]), where
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


# the units' columns from their definitions: a scale times integer rows
UNIT_PARTS = {
    name: tuple(tuple(scale * ExactScalar(row[s]) for row in rows) for s in range(3))
    for name, (scale, rows) in _UNIT_DEFS.items()
}

_ROOT_NINTH = ExactScalar(0, Fraction(1, 9))
# entries whose denominators differ, so an element's shared one is an lcm
MIXED = [
    ExactScalar(Fraction(1, 2)), ExactScalar(Fraction(1, 3)), _ROOT_NINTH, ExactScalar(Fraction(7, 5)), _ZERO, _ONE
]
# sixths and their cancelling partners: a product or scaling loses the denominator
SIXTHS = [ExactScalar(Fraction(1, 6)), ExactScalar(Fraction(1, 2)), ExactScalar(0, Fraction(1, 3)), _ZERO]
CANCELLERS = [ExactScalar(6), ExactScalar(12), ExactScalar(0, 2), _ZERO]


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
# entries every constructor refuses, one at a time
BAD_ENTRIES = [-1, Fraction(-1, 6), "-0.75", ExactScalar(1, -1), ExactScalar(Fraction(-7, 4), 1), 1.5, "1/x"]


def raw_entry(rng):
    """An outside entry: an int, Fraction, numeric str or scalar, mixed denominators."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randint(0, 9)
    if kind == 1:
        return Fraction(rng.randint(0, 9), rng.randint(1, 12))
    if kind == 2:
        return rng.choice((f"{rng.randint(0, 9)}/{rng.randint(1, 12)}", f"{rng.randint(0, 99) / 20}"))
    if kind == 3:
        return rand_entry(rng)
    return rng.choice(SIGN_EDGES)


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


@pytest.mark.parametrize("name", SYSTEMS)
def test_construction_matches_old_path(name):
    show = SYSTEMS[name][6]
    for seed in SEEDS:
        rng = random.Random(f"construct:{name}:{seed}")
        for label, build, reference in construction_cases(name, rng):
            where = f"{name} seed {seed} {label}"
            try:
                parts, payload = reference()
            except (TypeError, ValueError) as err:
                with pytest.raises(type(err)) as got:
                    build()
                assert str(got.value) == str(err), where
                continue
            value = build()
            assert (value._num, value._den) == payload, where
            assert str(value) == show(parts), where
            assert repr(value) == ref_repr(name, parts), where
