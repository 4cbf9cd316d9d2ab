"""Seeded property checks over all three number systems.

Each check draws deterministic random samples (the generator is seeded
from the run seed plus the check name, so reports are reproducible) and
records into its own `CheckResult`: each law reads ``if not (ok):
rec.fail(fmt, *operands)``, and `fail` counts each failed law and formats
the detail of the first only, so a passing law builds no detail and no
closure, and a later failure formats nothing.
Algebraic laws are asserted with exact arithmetic.
Pair, triple and matrix samples are drawn straight into payload ints by
the draws of entry-by-entry `_rand_nonneg` calls, so no `Fraction` is
built and no `checked_payload` runs: the entries are nonnegative by construction.
Each sample reads `rng.getrandbits` through one `_below` call, as
`randrange`, `randint` and `choice` read it (k = n.bit_length() bits,
again while the value is >= n), so every sample, and the generator's
state after it, is the one those calls give.  Rotation-zero norms are
compared as their ints, cross-multiplied, with no scalar built.
No term is computed twice: the 54 rotation zeros are constants, built
once at import (`_ROTATION_ZEROS`), and each ring-law sample computes
x*y, x + y and y + z once and reuses them in every law and in closure.
`TOLERANCE` (1e-9) is for the checks that go through floating point on
purpose: the triple -> complex homomorphism, norm vs complex modulus,
the triangle inequality, the complex and triple round trips, sign vs
float and the character oracle.

Pairs, triples and matrices are one construction, a group algebra modulo
constants, so each law they share (the ring laws, a homomorphism, the
unit-family patterns) is written once and applied per system in `_CHECKS`.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from fractions import Fraction
from itertools import product as _iter_product
from operator import add, eq, methodcaller, mul

from ._record import record
from .matrices import (
    CyclicMatrix,
    RowSelector,
    _norm_ints,
    absolute_zero,
    characters_close,
    rotation_zero,
)
from .pairs import UnsignedPair
from .scalars import ExactScalar, _int_sign
from .triples import CyclicTriple
from .units import IMAGINARY_FAMILY, PLUS_FAMILY, UNIT_VALUES

__all__ = ["CheckResult", "CHECK_NAMES", "run_checks", "TOLERANCE"]

TOLERANCE = 1e-9

_SMALL_DENOMS = (1, 1, 1, 1, 2, 3, 4)
_DENOMS_LCM = math.lcm(*_SMALL_DENOMS)
_LCM_OVER_DENOMS = tuple(_DENOMS_LCM // d for d in _SMALL_DENOMS)
_Check = Callable[[int, random.Random, "CheckResult"], None]


def _below(bits: Callable[[int], int], bounds: "tuple[tuple[int, int], ...]") -> "list[int]":
    """`Random._randbelow(n)` for each ``(n, k)`` of `bounds` in turn, read from
    `bits` (an `rng.getrandbits`), with ``k == n.bit_length()``: k-bit words until
    one is below n.  `randrange`, `randint` and `choice` draw exactly so."""
    drawn = []
    for n, k in bounds:
        r = bits(k)
        while r >= n:
            r = bits(k)
        drawn.append(r)
    return drawn


_DIGIT = ((10, 4),)  # randrange(10), the draw of randint(0, 9)
_NONNEG = _DIGIT + ((7, 3),)  # then the index of choice(_SMALL_DENOMS)
_SIGNED = ((199, 8), (99, 7))  # randint(-99, 99) + 99, then randint(1, 99) - 1


def _rand_nonneg(rng: random.Random) -> Fraction:
    n, i = _below(rng.getrandbits, _NONNEG)
    return Fraction(n, _SMALL_DENOMS[i])


def _rand_signed(rng: random.Random) -> Fraction:
    n, d = _below(rng.getrandbits, _SIGNED)
    return Fraction(n - 99, d + 1)


def _rand_scalar(rng: random.Random) -> ExactScalar:
    return ExactScalar(_rand_signed(rng), _rand_signed(rng))


def _nonneg_payload(rng: random.Random, parts: int) -> "tuple[list, int]":
    """The flat ints and denominator of `parts` draws of `_rand_nonneg`, by the
    same draws in the same order.  Each entry is over the lcm of `_SMALL_DENOMS`;
    `_make` divides out the gcd, and lowest terms are unique, so the element is the same."""
    drawn = _below(rng.getrandbits, _NONNEG * parts)
    num = [0] * (2 * parts)  # the sqrt3 ints stay zero
    num[::2] = [n * _LCM_OVER_DENOMS[i] for n, i in zip(drawn[::2], drawn[1::2])]
    return num, _DENOMS_LCM


def _rand_pair(rng: random.Random) -> UnsignedPair:
    return UnsignedPair._make(*_nonneg_payload(rng, 2))


def _rand_triple(rng: random.Random) -> CyclicTriple:
    return CyclicTriple._make(*_nonneg_payload(rng, 3))


def _rand_matrix(rng: random.Random) -> CyclicMatrix:
    # drawn in part order: column A top to bottom, then B, then C
    return CyclicMatrix._make(*_nonneg_payload(rng, 9))


def _rand_digit_matrix(rng: random.Random) -> CyclicMatrix:
    # each entry a draw of randrange(10), in part order
    num = [0] * 18
    num[::2] = _below(rng.getrandbits, _DIGIT * 9)
    return CyclicMatrix._make(num, 1)


@record()
class CheckResult:
    name: str
    samples: int
    failures: int = 0
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def fail(self, fmt: str, *args: object) -> None:
        """Counts a failed law; formats `fmt` with `args` into the detail only
        for the first, so a later failure formats nothing."""
        self.failures += 1
        if not self.detail:
            self.detail = fmt.format(*args)


def _ring_laws(draw: Callable[[random.Random], object], reducible: bool = False) -> _Check:
    """The commutative ring laws on random x, y, z; a `reducible` system
    (pairs and triples) is also checked for `reduce()` and closure."""

    def check(n: int, rng: random.Random, rec: CheckResult) -> None:
        for _ in range(n):
            x, y, z = (draw(rng) for _ in range(3))
            xy, x_plus_y, y_plus_z = x * y, x + y, y + z
            if not (x_plus_y == y + x):
                rec.fail("add commutativity: {}, {}", x, y)
            if not (x_plus_y + z == x + y_plus_z):
                rec.fail("add associativity: {}, {}, {}", x, y, z)
            if not (xy == y * x):
                rec.fail("mul commutativity: {}, {}", x, y)
            if not (xy * z == x * (y * z)):
                rec.fail("mul associativity: {}, {}, {}", x, y, z)
            if not (x * y_plus_z == xy + x * z):
                rec.fail("distributivity: {}, {}, {}", x, y, z)
            if not reducible:
                continue
            reduced = x.reduce()
            if not (reduced.reduce().components == reduced.components):
                rec.fail("reduce idempotence: {}", x)
            if not (reduced.is_reduced and x == reduced):
                rec.fail("reduce equivalence: {}", x)
            if not all(part.sign() >= 0 for part in xy.components):
                rec.fail("closure: {} * {}", x, y)

    return check


def _homomorphism(
    draw: Callable[[random.Random], object], image: Callable, same: Callable[..., bool], label: str = ""
) -> _Check:
    """That `image` carries products and sums of random x, y to products
    and sums, as told by `same`."""

    def check(n: int, rng: random.Random, rec: CheckResult) -> None:
        for _ in range(n):
            x, y = draw(rng), draw(rng)
            for op, law in ((mul, "mul"), (add, "add")):
                if not same(image(op(x, y)), op(image(x), image(y))):
                    rec.fail("{}{} homomorphism: {}, {}", label, law, x, y)

    return check


def _close(z: complex, w: complex) -> bool:
    return abs(z - w) <= TOLERANCE


def _same_components(x: CyclicTriple, y: CyclicTriple) -> bool:
    return x.components == y.components  # exact componentwise, no quotient needed


def _check_scalar_sign_and_reciprocal(n: int, rng: random.Random, rec: CheckResult) -> None:
    for _ in range(n):
        x = _rand_scalar(rng)
        if not ((x * x).sign() >= 0):
            rec.fail("square sign: {}", x)
        approx = float(x)
        if abs(approx) > TOLERANCE and not (x.sign() == (approx > 0) - (approx < 0)):
            rec.fail("sign vs float: {}", x)
        if x.sign() != 0 and not (x * (1 / x) == 1):
            rec.fail("reciprocal: {}", x)


def _check_pair_roundtrip(n: int, rng: random.Random, rec: CheckResult) -> None:
    for _ in range(n):
        value = ExactScalar(_rand_signed(rng))
        pair = UnsignedPair.from_signed(value)
        if not pair.is_reduced:
            rec.fail("from_signed reduced: {}", value)
        if not (pair.to_signed() == value):
            rec.fail("roundtrip: {}", value)


def _check_triple_well_defined(n: int, rng: random.Random, rec: CheckResult) -> None:
    for _ in range(n):
        x, y = _rand_triple(rng), _rand_triple(rng)
        shift = _rand_nonneg(rng)
        zero = CyclicTriple(shift, shift, shift)
        if not (x + zero == x):
            rec.fail("constant triples are zeros: {}, {}", x, zero)
        if not ((x + zero) * y == x * y):
            rec.fail("well-definedness: {}, {}, {}", x, zero, y)


def _check_triple_norms(n: int, rng: random.Random, rec: CheckResult) -> None:
    for _ in range(n):
        x, y = _rand_triple(rng), _rand_triple(rng)
        if not ((x * y).norm_sq() == x.norm_sq() * y.norm_sq()):
            rec.fail("norm multiplicativity: {}, {}", x, y)
        if not (abs(float(x.norm_sq()) - abs(x.to_complex()) ** 2) <= TOLERANCE):
            rec.fail("norm vs complex modulus: {}", x)
        if not ((x + y).norm() <= x.norm() + y.norm() + TOLERANCE):
            rec.fail("triangle inequality: {}, {}", x, y)
        if not (x.norm_sq().sign() >= 0):
            rec.fail("norm nonnegative: {}", x)


def _check_triple_complex_roundtrip(n: int, rng: random.Random, rec: CheckResult) -> None:
    for _ in range(n):
        z = complex(rng.uniform(-100, 100), rng.uniform(-100, 100))
        rebuilt = CyclicTriple.from_complex(z)
        if not rebuilt.is_reduced:
            rec.fail("from_complex reduced: {}", z)
        if not (abs(rebuilt.to_complex() - z) <= TOLERANCE):
            rec.fail("complex roundtrip: {}", z)
        x = _rand_triple(rng)
        again = CyclicTriple.from_complex(x.to_complex())
        if not (abs(again.to_complex() - x.to_complex()) <= TOLERANCE):
            rec.fail("triple roundtrip: {}", x)


def _check_matrix_well_defined(n: int, rng: random.Random, rec: CheckResult) -> None:
    for _ in range(n):
        x, y = _rand_matrix(rng), _rand_matrix(rng)
        zero = absolute_zero(_rand_nonneg(rng), _rand_nonneg(rng), _rand_nonneg(rng))
        if not (x + zero == x):
            rec.fail("absolute zeros are zeros: {}", x)
        if not ((x + zero) * y == x * y):
            rec.fail("well-definedness: {}, {}", x, y)
        if not (zero == CyclicMatrix.zero()):
            rec.fail("zero class: {}", zero)


def _check_matrix_norms(n: int, rng: random.Random, rec: CheckResult) -> None:
    for _ in range(n):
        x, y = _rand_matrix(rng), _rand_matrix(rng)
        if not ((x * y).norm_sq() == x.norm_sq() * y.norm_sq()):
            rec.fail("norm multiplicativity: {}, {}", x, y)


def _norm_sign(m: CyclicMatrix) -> int:
    """The sign of ``m.norm_sq()``, read from its ints."""
    p, q, _ = _norm_ints(m)
    return _int_sign(p, q)


def _same_norm(x: CyclicMatrix, y: CyclicMatrix) -> bool:
    """``x.norm_sq() == y.norm_sq()``, cross-multiplied over the positive denominators."""
    p, q, d = _norm_ints(x)
    p2, q2, d2 = _norm_ints(y)
    return p * d2 == p2 * d and q * d2 == q2 * d


# (selector, xi, rotation_zero(selector, xi)) in the order the check meets them:
# xi = 1, then 7/3, each through `RowSelector.all()`; that order decides which
# draws meet which zero
_ROTATION_ZEROS = tuple(
    (selector, xi, rotation_zero(selector, xi))
    for xi in (Fraction(1), Fraction(7, 3))
    for selector in RowSelector.all()
)


def _check_rotation_zeros(n: int, rng: random.Random, rec: CheckResult) -> None:
    for selector, xi, zero in _ROTATION_ZEROS:
        if not (_norm_sign(zero) == 0):
            rec.fail("rotation zero norm: {} xi={}", selector, xi)
        for _ in range(n):
            m = _rand_digit_matrix(rng)
            if not (_norm_sign(m * zero) == 0):
                rec.fail("product absorbs to norm zero: {}, {}", m, selector)
            if not _same_norm(m + zero, m):
                rec.fail("addition preserves norm: {}, {}", m, selector)


def _character_pattern(matrix: CyclicMatrix) -> "tuple[complex, ...] | None":
    pattern = []
    for value in matrix.characters():
        for target in (1, -1, 1j, -1j):
            if abs(value - target) <= TOLERANCE:
                pattern.append(target)
                break
        else:
            return None
    return tuple(pattern)


def _check_character_oracle(n: int, rng: random.Random, rec: CheckResult) -> None:
    for label, family, signs in (("plus", PLUS_FAMILY, (1, -1)), ("imaginary", IMAGINARY_FAMILY, (1j, -1j))):
        patterns = {_character_pattern(UNIT_VALUES[u]) for u in family}
        if not (patterns == set(_iter_product(signs, repeat=3))):
            rec.fail("{}-family patterns: {}", label, sorted(map(str, patterns)))
    for _ in range(n):
        x = _rand_matrix(rng)
        variant = rng.randrange(4)
        if variant == 0:
            y = _rand_matrix(rng)
        elif variant == 1:
            y = x + absolute_zero(_rand_nonneg(rng), _rand_nonneg(rng), _rand_nonneg(rng))
        elif variant == 2:
            y = x.reduce()
        else:
            y = x + rotation_zero(rng.choice(RowSelector.all()), Fraction(rng.randint(1, 9)))
        if not ((x == y) == characters_close(x, y)):
            rec.fail("character equality agreement: {}, {}", x, y)


# name -> (check, divisor: the check runs max(1, samples // divisor) samples)
_CHECKS: tuple[tuple[str, _Check, int], ...] = (
    ("scalar-field-laws", _ring_laws(_rand_scalar), 1),
    ("scalar-sign-and-reciprocal", _check_scalar_sign_and_reciprocal, 1),
    ("pair-ring-laws", _ring_laws(_rand_pair, reducible=True), 1),
    ("pair-signed-homomorphism", _homomorphism(_rand_pair, methodcaller("to_signed"), eq), 1),
    ("pair-roundtrip", _check_pair_roundtrip, 1),
    ("triple-ring-laws", _ring_laws(_rand_triple, reducible=True), 1),
    ("triple-well-defined", _check_triple_well_defined, 1),
    ("triple-complex-homomorphism", _homomorphism(_rand_triple, methodcaller("to_complex"), _close), 1),
    ("triple-norms", _check_triple_norms, 1),
    ("triple-complex-roundtrip", _check_triple_complex_roundtrip, 1),
    ("matrix-ring-laws", _ring_laws(_rand_matrix), 2),
    ("matrix-well-defined", _check_matrix_well_defined, 2),
    (
        "matrix-rowsums-homomorphism",
        _homomorphism(_rand_matrix, methodcaller("row_sums"), _same_components, "row-sums "),
        2,
    ),
    ("matrix-norms", _check_matrix_norms, 2),
    ("rotation-zeros", _check_rotation_zeros, 10),
    ("character-oracle", _check_character_oracle, 2),
)

CHECK_NAMES = tuple(name for name, _, _ in _CHECKS)


def run_checks(samples: int = 1000, seed: int = 42) -> list[CheckResult]:
    """Run every check deterministically; identical inputs, identical reports.

    `samples` drives the scalar, pair and triple checks; the ratios to
    the rest are fixed: matrix checks run samples//2 and the rotation-zero
    check samples//10 random matrices per zero, each at least one (so
    --samples 1000 exercises 1000 / 500 / 100-per-zero cases).
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    results: list[CheckResult] = []
    for name, check, divisor in _CHECKS:
        result = CheckResult(name, max(1, samples // divisor))
        check(result.samples, random.Random(f"{seed}:{name}"), result)
        results.append(result)
    return results
