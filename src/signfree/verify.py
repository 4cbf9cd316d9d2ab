"""Seeded property checks over all three number systems.

Each check draws deterministic random samples (the generator is seeded
from the run seed plus the check name, so reports are reproducible) and
records into its own `CheckResult`: `expect` counts each failed law and
keeps the description of the first.  Algebraic laws are asserted with
exact arithmetic.
Pair, triple and matrix samples are drawn straight into payload ints by
the draws of entry-by-entry `_rand_nonneg` calls, so no `Fraction` is
built and no `checked_payload` runs: the entries are nonnegative by construction.
Each sample reads `rng.getrandbits` through one `_below` call, as
`randrange`, `randint` and `choice` read it (k = n.bit_length() bits,
again while the value is >= n), so every sample, and the generator's
state after it, is the one those calls give.  Rotation-zero norms are
compared as their ints, cross-multiplied, with no scalar built.
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

    def expect(self, ok: bool, describe: Callable[[], str]) -> None:
        """Counts a failure unless `ok`, keeping the first description."""
        if not ok:
            self.failures += 1
            if not self.detail:
                self.detail = describe()


def _ring_laws(draw: Callable[[random.Random], object], reducible: bool = False) -> _Check:
    """The commutative ring laws on random x, y, z; a `reducible` system
    (pairs and triples) is also checked for `reduce()` and closure."""

    def check(n: int, rng: random.Random, rec: CheckResult) -> None:
        for _ in range(n):
            x, y, z = (draw(rng) for _ in range(3))
            rec.expect(x + y == y + x, lambda: f"add commutativity: {x}, {y}")
            rec.expect((x + y) + z == x + (y + z), lambda: f"add associativity: {x}, {y}, {z}")
            rec.expect(x * y == y * x, lambda: f"mul commutativity: {x}, {y}")
            rec.expect((x * y) * z == x * (y * z), lambda: f"mul associativity: {x}, {y}, {z}")
            rec.expect(x * (y + z) == x * y + x * z, lambda: f"distributivity: {x}, {y}, {z}")
            if not reducible:
                continue
            reduced = x.reduce()
            rec.expect(reduced.reduce().components == reduced.components, lambda: f"reduce idempotence: {x}")
            rec.expect(reduced.is_reduced and x == reduced, lambda: f"reduce equivalence: {x}")
            rec.expect(all(part.sign() >= 0 for part in (x * y).components), lambda: f"closure: {x} * {y}")

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
                rec.expect(
                    same(image(op(x, y)), op(image(x), image(y))),
                    lambda: f"{label}{law} homomorphism: {x}, {y}",
                )

    return check


def _close(z: complex, w: complex) -> bool:
    return abs(z - w) <= TOLERANCE


def _same_components(x: CyclicTriple, y: CyclicTriple) -> bool:
    return x.components == y.components  # exact componentwise, no quotient needed


def _check_scalar_sign_and_reciprocal(n: int, rng: random.Random, rec: CheckResult) -> None:
    for _ in range(n):
        x = _rand_scalar(rng)
        rec.expect((x * x).sign() >= 0, lambda: f"square sign: {x}")
        approx = float(x)
        if abs(approx) > TOLERANCE:
            float_sign = (approx > 0) - (approx < 0)
            rec.expect(x.sign() == float_sign, lambda: f"sign vs float: {x}")
        if x.sign() != 0:
            rec.expect(x * (1 / x) == 1, lambda: f"reciprocal: {x}")


def _check_pair_roundtrip(n: int, rng: random.Random, rec: CheckResult) -> None:
    for _ in range(n):
        value = ExactScalar(_rand_signed(rng))
        pair = UnsignedPair.from_signed(value)
        rec.expect(pair.is_reduced, lambda: f"from_signed reduced: {value}")
        rec.expect(pair.to_signed() == value, lambda: f"roundtrip: {value}")


def _check_triple_well_defined(n: int, rng: random.Random, rec: CheckResult) -> None:
    for _ in range(n):
        x, y = _rand_triple(rng), _rand_triple(rng)
        shift = _rand_nonneg(rng)
        zero = CyclicTriple(shift, shift, shift)
        rec.expect(x + zero == x, lambda: f"constant triples are zeros: {x}, {zero}")
        rec.expect((x + zero) * y == x * y, lambda: f"well-definedness: {x}, {zero}, {y}")


def _check_triple_norms(n: int, rng: random.Random, rec: CheckResult) -> None:
    for _ in range(n):
        x, y = _rand_triple(rng), _rand_triple(rng)
        rec.expect(
            (x * y).norm_sq() == x.norm_sq() * y.norm_sq(),
            lambda: f"norm multiplicativity: {x}, {y}",
        )
        rec.expect(
            abs(float(x.norm_sq()) - abs(x.to_complex()) ** 2) <= TOLERANCE,
            lambda: f"norm vs complex modulus: {x}",
        )
        rec.expect(
            (x + y).norm() <= x.norm() + y.norm() + TOLERANCE,
            lambda: f"triangle inequality: {x}, {y}",
        )
        rec.expect(x.norm_sq().sign() >= 0, lambda: f"norm nonnegative: {x}")


def _check_triple_complex_roundtrip(n: int, rng: random.Random, rec: CheckResult) -> None:
    for _ in range(n):
        z = complex(rng.uniform(-100, 100), rng.uniform(-100, 100))
        rebuilt = CyclicTriple.from_complex(z)
        rec.expect(rebuilt.is_reduced, lambda: f"from_complex reduced: {z}")
        rec.expect(
            abs(rebuilt.to_complex() - z) <= TOLERANCE,
            lambda: f"complex roundtrip: {z}",
        )
        x = _rand_triple(rng)
        again = CyclicTriple.from_complex(x.to_complex())
        rec.expect(
            abs(again.to_complex() - x.to_complex()) <= TOLERANCE,
            lambda: f"triple roundtrip: {x}",
        )


def _check_matrix_well_defined(n: int, rng: random.Random, rec: CheckResult) -> None:
    for _ in range(n):
        x, y = _rand_matrix(rng), _rand_matrix(rng)
        zero = absolute_zero(_rand_nonneg(rng), _rand_nonneg(rng), _rand_nonneg(rng))
        rec.expect(x + zero == x, lambda: f"absolute zeros are zeros: {x}")
        rec.expect((x + zero) * y == x * y, lambda: f"well-definedness: {x}, {y}")
        rec.expect(zero == CyclicMatrix.zero(), lambda: f"zero class: {zero}")


def _check_matrix_norms(n: int, rng: random.Random, rec: CheckResult) -> None:
    for _ in range(n):
        x, y = _rand_matrix(rng), _rand_matrix(rng)
        rec.expect(
            (x * y).norm_sq() == x.norm_sq() * y.norm_sq(),
            lambda: f"norm multiplicativity: {x}, {y}",
        )


def _norm_sign(m: CyclicMatrix) -> int:
    """The sign of ``m.norm_sq()``, read from its ints."""
    p, q, _ = _norm_ints(m)
    return _int_sign(p, q)


def _same_norm(x: CyclicMatrix, y: CyclicMatrix) -> bool:
    """``x.norm_sq() == y.norm_sq()``, cross-multiplied over the positive denominators."""
    p, q, d = _norm_ints(x)
    p2, q2, d2 = _norm_ints(y)
    return p * d2 == p2 * d and q * d2 == q2 * d


def _check_rotation_zeros(n: int, rng: random.Random, rec: CheckResult) -> None:
    for xi in (Fraction(1), Fraction(7, 3)):
        for selector in RowSelector.all():
            zero = rotation_zero(selector, xi)
            rec.expect(
                _norm_sign(zero) == 0,
                lambda: f"rotation zero norm: {selector} xi={xi}",
            )
            for _ in range(n):
                m = _rand_digit_matrix(rng)
                rec.expect(
                    _norm_sign(m * zero) == 0,
                    lambda: f"product absorbs to norm zero: {m}, {selector}",
                )
                rec.expect(
                    _same_norm(m + zero, m),
                    lambda: f"addition preserves norm: {m}, {selector}",
                )


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
        rec.expect(
            patterns == set(_iter_product(signs, repeat=3)),
            lambda: f"{label}-family patterns: {sorted(map(str, patterns))}",
        )
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
        rec.expect(
            (x == y) == characters_close(x, y),
            lambda: f"character equality agreement: {x}, {y}",
        )


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
