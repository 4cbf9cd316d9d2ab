"""Seeded property checks over all three number systems.

Each check draws deterministic random samples (the generator is seeded
from the run seed plus the check name, so reports are reproducible) and
counts failures.  Algebraic laws are asserted with exact arithmetic;
only the complex-plane cross-checks carry a 1e-9 tolerance, since they
go through floating point on purpose.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .matrices import (
    CyclicMatrix,
    RowSelector,
    absolute_zero,
    characters_close,
    rotation_zero,
)
from .pairs import UnsignedPair
from .scalars import ExactScalar
from .triples import CyclicTriple
from .units import IMAGINARY_FAMILY, PLUS_FAMILY, UNIT_VALUES

__all__ = ["CheckResult", "CHECK_NAMES", "run_checks", "TOLERANCE"]

TOLERANCE = 1e-9

_SMALL_DENOMS = (1, 1, 1, 1, 2, 3, 4)
_Draw = Callable[[random.Random], object]  # one random entry


def _rand_nonneg(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, 9), rng.choice(_SMALL_DENOMS))


def _rand_signed(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-99, 99), rng.randint(1, 99))


def _rand_scalar(rng: random.Random) -> ExactScalar:
    return ExactScalar(_rand_signed(rng), _rand_signed(rng))


def _rand_pair(rng: random.Random) -> UnsignedPair:
    return UnsignedPair(_rand_nonneg(rng), _rand_nonneg(rng))


def _rand_digit(rng: random.Random) -> int:
    return rng.randint(0, 9)


def _rand_triple(rng: random.Random, entry: _Draw = _rand_nonneg) -> CyclicTriple:
    return CyclicTriple(entry(rng), entry(rng), entry(rng))


def _rand_matrix(rng: random.Random, entry: _Draw = _rand_nonneg) -> CyclicMatrix:
    return CyclicMatrix(_rand_triple(rng, entry), _rand_triple(rng, entry), _rand_triple(rng, entry))


@dataclass
class CheckResult:
    name: str
    samples: int
    failures: int
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0


class _Recorder:
    """Counts failures, keeping the first description."""

    def __init__(self) -> None:
        self.failures = 0
        self.detail = ""

    def expect(self, ok: bool, describe: Callable[[], str]) -> None:
        if not ok:
            self.failures += 1
            if not self.detail:
                self.detail = describe()


def _expect_ring_laws(rec: _Recorder, x: object, y: object, z: object) -> None:
    """The commutative ring laws on one sample; the systems share them."""
    rec.expect(x + y == y + x, lambda: f"add commutativity: {x}, {y}")
    rec.expect((x + y) + z == x + (y + z), lambda: f"add associativity: {x}, {y}, {z}")
    rec.expect(x * y == y * x, lambda: f"mul commutativity: {x}, {y}")
    rec.expect((x * y) * z == x * (y * z), lambda: f"mul associativity: {x}, {y}, {z}")
    rec.expect(x * (y + z) == x * y + x * z, lambda: f"distributivity: {x}, {y}, {z}")


def _check_scalar_field_laws(n: int, rng: random.Random, rec: _Recorder) -> None:
    for _ in range(n):
        x, y, z = (_rand_scalar(rng) for _ in range(3))
        _expect_ring_laws(rec, x, y, z)


def _check_scalar_sign_and_reciprocal(n: int, rng: random.Random, rec: _Recorder) -> None:
    for _ in range(n):
        x = _rand_scalar(rng)
        rec.expect((x * x).sign() >= 0, lambda: f"square sign: {x}")
        approx = float(x)
        if abs(approx) > TOLERANCE:
            float_sign = (approx > 0) - (approx < 0)
            rec.expect(x.sign() == float_sign, lambda: f"sign vs float: {x}")
        if x.sign() != 0:
            rec.expect(x * (1 / x) == 1, lambda: f"reciprocal: {x}")


def _check_pair_ring_laws(n: int, rng: random.Random, rec: _Recorder) -> None:
    for _ in range(n):
        x, y, z = (_rand_pair(rng) for _ in range(3))
        _expect_ring_laws(rec, x, y, z)
        reduced = x.reduce()
        rec.expect(reduced.reduce().components == reduced.components, lambda: f"reduce idempotence: {x}")
        rec.expect(reduced.is_reduced and x == reduced, lambda: f"reduce equivalence: {x}")
        product = x * y
        rec.expect(
            product.plus.sign() >= 0 and product.minus.sign() >= 0,
            lambda: f"closure: {x} * {y}",
        )


def _check_pair_signed_homomorphism(n: int, rng: random.Random, rec: _Recorder) -> None:
    for _ in range(n):
        x, y = _rand_pair(rng), _rand_pair(rng)
        rec.expect(
            (x * y).to_signed() == x.to_signed() * y.to_signed(),
            lambda: f"mul homomorphism: {x}, {y}",
        )
        rec.expect(
            (x + y).to_signed() == x.to_signed() + y.to_signed(),
            lambda: f"add homomorphism: {x}, {y}",
        )


def _check_pair_roundtrip(n: int, rng: random.Random, rec: _Recorder) -> None:
    for _ in range(n):
        value = ExactScalar(_rand_signed(rng))
        pair = UnsignedPair.from_signed(value)
        rec.expect(pair.is_reduced, lambda: f"from_signed reduced: {value}")
        rec.expect(pair.to_signed() == value, lambda: f"roundtrip: {value}")


def _check_triple_ring_laws(n: int, rng: random.Random, rec: _Recorder) -> None:
    for _ in range(n):
        x, y, z = (_rand_triple(rng) for _ in range(3))
        _expect_ring_laws(rec, x, y, z)
        rec.expect(x.reduce().reduce().components == x.reduce().components, lambda: f"reduce idempotence: {x}")
        rec.expect(x == x.reduce(), lambda: f"reduce equivalence: {x}")


def _check_triple_well_defined(n: int, rng: random.Random, rec: _Recorder) -> None:
    for _ in range(n):
        x, y = _rand_triple(rng), _rand_triple(rng)
        shift = _rand_nonneg(rng)
        zero = CyclicTriple(shift, shift, shift)
        rec.expect(x + zero == x, lambda: f"constant triples are zeros: {x}, {zero}")
        rec.expect((x + zero) * y == x * y, lambda: f"well-definedness: {x}, {zero}, {y}")


def _check_triple_complex_homomorphism(n: int, rng: random.Random, rec: _Recorder) -> None:
    for _ in range(n):
        x, y = _rand_triple(rng), _rand_triple(rng)
        zx, zy = x.to_complex(), y.to_complex()
        rec.expect(
            abs((x * y).to_complex() - zx * zy) <= TOLERANCE,
            lambda: f"mul homomorphism: {x}, {y}",
        )
        rec.expect(
            abs((x + y).to_complex() - (zx + zy)) <= TOLERANCE,
            lambda: f"add homomorphism: {x}, {y}",
        )


def _check_triple_norms(n: int, rng: random.Random, rec: _Recorder) -> None:
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


def _check_triple_complex_roundtrip(n: int, rng: random.Random, rec: _Recorder) -> None:
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


def _check_matrix_ring_laws(n: int, rng: random.Random, rec: _Recorder) -> None:
    for _ in range(n):
        x, y, z = (_rand_matrix(rng) for _ in range(3))
        _expect_ring_laws(rec, x, y, z)


def _check_matrix_well_defined(n: int, rng: random.Random, rec: _Recorder) -> None:
    for _ in range(n):
        x, y = _rand_matrix(rng), _rand_matrix(rng)
        zero = absolute_zero(_rand_nonneg(rng), _rand_nonneg(rng), _rand_nonneg(rng))
        rec.expect(x + zero == x, lambda: f"absolute zeros are zeros: {x}")
        rec.expect((x + zero) * y == x * y, lambda: f"well-definedness: {x}, {y}")
        rec.expect(zero == CyclicMatrix.zero(), lambda: f"zero class: {zero}")


def _check_matrix_rowsums_homomorphism(n: int, rng: random.Random, rec: _Recorder) -> None:
    for _ in range(n):
        x, y = _rand_matrix(rng), _rand_matrix(rng)
        # exact componentwise, no quotient needed
        rec.expect(
            (x * y).row_sums().components
            == (x.row_sums() * y.row_sums()).components,
            lambda: f"row-sums mul homomorphism: {x}, {y}",
        )
        rec.expect(
            (x + y).row_sums().components
            == (x.row_sums() + y.row_sums()).components,
            lambda: f"row-sums add homomorphism: {x}, {y}",
        )


def _check_matrix_norms(n: int, rng: random.Random, rec: _Recorder) -> None:
    for _ in range(n):
        x, y = _rand_matrix(rng), _rand_matrix(rng)
        rec.expect(
            (x * y).norm_sq() == x.norm_sq() * y.norm_sq(),
            lambda: f"norm multiplicativity: {x}, {y}",
        )


def _check_rotation_zeros(n: int, rng: random.Random, rec: _Recorder) -> None:
    for xi in (Fraction(1), Fraction(7, 3)):
        for selector in RowSelector.all():
            zero = rotation_zero(selector, xi)
            rec.expect(
                zero.norm_sq().sign() == 0,
                lambda: f"rotation zero norm: {selector} xi={xi}",
            )
            for _ in range(n):
                m = _rand_matrix(rng, _rand_digit)
                rec.expect(
                    (m * zero).norm_sq().sign() == 0,
                    lambda: f"product absorbs to norm zero: {m}, {selector}",
                )
                rec.expect(
                    (m + zero).norm_sq() == m.norm_sq(),
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


def _check_character_oracle(n: int, rng: random.Random, rec: _Recorder) -> None:
    sign_patterns = {_character_pattern(UNIT_VALUES[u]) for u in PLUS_FAMILY}
    expected_signs = {(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)}
    rec.expect(
        sign_patterns == expected_signs,
        lambda: f"plus-family patterns: {sorted(map(str, sign_patterns))}",
    )
    imag_patterns = {_character_pattern(UNIT_VALUES[u]) for u in IMAGINARY_FAMILY}
    expected_imag = {(a, b, c) for a in (1j, -1j) for b in (1j, -1j) for c in (1j, -1j)}
    rec.expect(
        imag_patterns == expected_imag,
        lambda: f"imaginary-family patterns: {sorted(map(str, imag_patterns))}",
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


# name -> (function, sampling scale: base / matrix / per-zero)
_CHECKS: tuple[tuple[str, Callable[[int, random.Random, _Recorder], None], str], ...] = (
    ("scalar-field-laws", _check_scalar_field_laws, "base"),
    ("scalar-sign-and-reciprocal", _check_scalar_sign_and_reciprocal, "base"),
    ("pair-ring-laws", _check_pair_ring_laws, "base"),
    ("pair-signed-homomorphism", _check_pair_signed_homomorphism, "base"),
    ("pair-roundtrip", _check_pair_roundtrip, "base"),
    ("triple-ring-laws", _check_triple_ring_laws, "base"),
    ("triple-well-defined", _check_triple_well_defined, "base"),
    ("triple-complex-homomorphism", _check_triple_complex_homomorphism, "base"),
    ("triple-norms", _check_triple_norms, "base"),
    ("triple-complex-roundtrip", _check_triple_complex_roundtrip, "base"),
    ("matrix-ring-laws", _check_matrix_ring_laws, "matrix"),
    ("matrix-well-defined", _check_matrix_well_defined, "matrix"),
    ("matrix-rowsums-homomorphism", _check_matrix_rowsums_homomorphism, "matrix"),
    ("matrix-norms", _check_matrix_norms, "matrix"),
    ("rotation-zeros", _check_rotation_zeros, "zeros"),
    ("character-oracle", _check_character_oracle, "matrix"),
)

CHECK_NAMES = tuple(name for name, _, _ in _CHECKS)


def run_checks(
    samples: int = 1000,
    seed: int = 42,
    matrix_samples: "int | None" = None,
    per_zero: "int | None" = None,
) -> list[CheckResult]:
    """Run every check deterministically; identical inputs, identical reports.

    `samples` drives the pair/triple/scalar checks; matrix-law checks
    default to samples//2 and the rotation-zero check to samples//10
    random matrices per zero (so --samples 1000 exercises 1000 / 500 /
    100-per-zero cases).
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    if matrix_samples is None:
        matrix_samples = max(1, samples // 2)
    if per_zero is None:
        per_zero = max(1, samples // 10)
    scales = {"base": samples, "matrix": matrix_samples, "zeros": per_zero}
    results: list[CheckResult] = []
    for name, check, scale in _CHECKS:
        n = scales[scale]
        rng = random.Random(f"{seed}:{name}")
        recorder = _Recorder()
        check(n, rng, recorder)
        results.append(CheckResult(name, n, recorder.failures, recorder.detail))
    return results
