"""Seeded differential test of the shared cyclic core.

The reference below is the arithmetic the core replaced: the
hand-expanded pair, triple and matrix product formulas and the old
square-and-multiply loop (which starts from one and squares after the
top bit), on plain tuples of ExactScalar.  Raw, unreduced results must
print identically, since printed output includes raw components.
"""

import random
from fractions import Fraction

import pytest

from signfree import UNIT_VALUES, CyclicMatrix, CyclicTriple, ExactScalar, UnitName, UnsignedPair

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
