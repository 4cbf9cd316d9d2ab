"""Seeded property checks over all three number systems.

Each check draws deterministic random samples (the generator is seeded
from the run seed plus the check name, so reports are reproducible) and
records into its own `CheckResult`: each law reads ``if not (ok):
rec.fail(fmt, *operands)``, and `fail` counts each failed law and formats
the detail of the first only, so a passing law builds no detail and no
closure, and a later failure formats nothing.
Algebraic laws are asserted with exact arithmetic: the norm axioms, the
triple -> complex homomorphism and the character oracle on the ints of the
exact image (`triples._image`, of each psi by `matrices._character_images`),
and the rotation-zero norms on theirs, cross-multiplied, with signs by `_int_sign`.
Every draw reads `rng.getrandbits` through one `_below` call, as `randrange`,
`randint` and `choice` read it (k = n.bit_length() bits, again while the
value is >= n), so each sample and the generator's state after it are the
ones those calls give; `_normalised` or `_make` builds the value from the
drawn ints, with no `Fraction` and no `checked_payload` (entries are
nonnegative by construction).
No term is computed twice: the 54 rotation zeros are constants, built
once at import (`_ROTATION_ZEROS`), and each ring-law sample computes
x*y, x + y and y + z once and reuses them in every law and in closure.
`TOLERANCE` (1e-9) is left for the checks whose subject is a float:
sign vs float and the complex and triple round trips.

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
from .matrices import CyclicMatrix, RowSelector, _character_images, _norm_ints, rotation_zero
from .pairs import UnsignedPair
from .scalars import ExactScalar, _int_sign, _normalised
from .triples import CyclicTriple, _image, _norm_sq_ints
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
_VARIANT, _SELECTOR, _XI = ((4, 3),), ((27, 5),), ((9, 4),)  # randrange(4), choice(_SELECTORS), randint(1, 9) - 1


def _rand_scalar(rng: random.Random) -> ExactScalar:  # randint(-99, 99) / randint(1, 99): rational, then sqrt3 part
    n, d, m, e = _below(rng.getrandbits, _SIGNED * 2)
    return _normalised((n - 99) * (e + 1), (m - 99) * (d + 1), (d + 1) * (e + 1))


def _rand_rational(rng: random.Random) -> ExactScalar:
    n, d = _below(rng.getrandbits, _SIGNED)
    return _normalised(n - 99, 0, d + 1)


def _nonneg_payload(rng: random.Random, parts: int) -> "tuple[list, int]":
    """The flat ints and denominator of `parts` entries, each randint(0, 9) over
    choice(_SMALL_DENOMS).  Each is over the lcm of `_SMALL_DENOMS`; `_make` divides
    out the gcd, and lowest terms are unique, so the element is the one they give."""
    drawn = _below(rng.getrandbits, _NONNEG * parts)
    num = [0] * (2 * parts)  # the sqrt3 ints stay zero
    num[::2] = [n * _LCM_OVER_DENOMS[i] for n, i in zip(drawn[::2], drawn[1::2])]
    return num, _DENOMS_LCM


def _rand_pair(rng: random.Random) -> UnsignedPair:
    return UnsignedPair._make(*_nonneg_payload(rng, 2))


def _rand_triple(rng: random.Random) -> CyclicTriple:
    return CyclicTriple._make(*_nonneg_payload(rng, 3))


def _rand_zero(rng: random.Random, cls: type) -> object:
    """An element of cls's zero class: one entry per run, repeated through it (a constant triple, an absolute zero)."""
    num, den = _nonneg_payload(rng, cls._SIZE // cls._RUN)
    return cls._make([n for p in num[::2] for n in (p, 0) * (cls._RUN // 2)], den)


def _rand_rotation_zero(rng: random.Random) -> CyclicMatrix:
    s, xi = _below(rng.getrandbits, _SELECTOR + _XI)
    return rotation_zero(RowSelector.all()[s], xi + 1)


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


def _same_payload(x: object, y: object) -> bool:
    """x and y, each in lowest terms, equal part by part: lowest terms are unique, so their payloads are equal."""
    return x._num == y._num and x._den == y._den


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
            again = reduced.reduce()
            if not _same_payload(again, reduced):
                rec.fail("reduce idempotence: {}", x)
            if not (reduced.is_reduced and x == reduced):
                rec.fail("reduce equivalence: {}", x)
            if not all(_int_sign(p, q) >= 0 for p, q in zip(xy._num[::2], xy._num[1::2])):
                rec.fail("closure: {} * {}", x, y)

    return check


def _homomorphism(
    draw: Callable[[random.Random], object], image: Callable, same: Callable, label: str = "", image_ops=(mul, add)
) -> _Check:
    """That `image` carries products and sums of random x, y to products
    and sums, formed by `image_ops`, as told by `same`."""

    def check(n: int, rng: random.Random, rec: CheckResult) -> None:
        for _ in range(n):
            x, y = draw(rng), draw(rng)
            for op, image_op, law in zip((mul, add), image_ops, ("mul", "add")):
                if not same(image(op(x, y)), image_op(image(x), image(y))):
                    rec.fail("{}{} homomorphism: {}, {}", label, law, x, y)

    return check


def _exact_complex(x: CyclicTriple) -> "tuple[int, ...]":
    """x's complex image, `_image` of its payload."""
    return _image(*x._num, x._den)


def _complex_product(z: tuple, w: tuple) -> "tuple[int, ...]":
    (a, b, c, f, d), (g, h, k, m, e) = z, w  # re = a + b*sqrt3 and im = c + f*sqrt3 over d, and so on
    return (
        a * g + 3 * b * h - c * k - 3 * f * m, a * h + b * g - c * m - f * k,
        a * k + 3 * b * m + c * g + 3 * f * h, a * m + b * k + c * h + f * g, d * e,
    )


def _complex_sum(z: tuple, w: tuple) -> "tuple[int, ...]":
    (a, b, c, f, d), (g, h, k, m, e) = z, w
    return a * e + g * d, b * e + h * d, c * e + k * d, f * e + m * d, d * e


def _same_complex(z: tuple, w: tuple) -> bool:
    (a, b, c, f, d), (g, h, k, m, e) = z, w
    return a * e == g * d and b * e == h * d and c * e == k * d and f * e == m * d


_COMPLEX_OPS = (_complex_product, _complex_sum)  # the image's product and sum


def _modulus_holds(x: CyclicTriple) -> bool:
    """re^2 + im^2 == x.norm_sq(), both sides over d*d*e, read from the exact image and `_norm_sq_ints`."""
    rp, rq, ip, iq, d = _exact_complex(x)
    p, q, e = _norm_sq_ints(*x._num, x._den)
    return (rp * rp + 3 * rq * rq + ip * ip + 3 * iq * iq) * e == p * d * d and 2 * (rp * rq + ip * iq) * e == q * d * d


def _triangle_holds(x: CyclicTriple, y: CyclicTriple, x_plus_y: CyclicTriple) -> bool:
    """|x + y| <= |x| + |y|: with s, a, b the norms of x + y, x, y, s - a - b <= 0 or (s - a - b)^2 <= 4ab."""
    (sp, sq, sd), (ap, aq, ad), (bp, bq, bd) = (_norm_sq_ints(*t._num, t._den) for t in (x_plus_y, x, y))
    ap, aq, bp, bq = ap * sd * bd, aq * sd * bd, bp * sd * ad, bq * sd * ad
    tp, tq = sp * ad * bd - ap - bp, sq * ad * bd - aq - bq
    if _int_sign(tp, tq) <= 0:
        return True
    # (s - a - b)^2 - 4ab, over the square of that denominator
    return _int_sign(tp * tp + 3 * tq * tq - 4 * (ap * bp + 3 * aq * bq), 2 * (tp * tq - 2 * (ap * bq + aq * bp))) <= 0


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
        value = _rand_rational(rng)
        pair = UnsignedPair.from_signed(value)
        if not pair.is_reduced:
            rec.fail("from_signed reduced: {}", value)
        if not (pair.to_signed() == value):
            rec.fail("roundtrip: {}", value)


def _check_triple_well_defined(n: int, rng: random.Random, rec: CheckResult) -> None:
    for _ in range(n):
        x, y = _rand_triple(rng), _rand_triple(rng)
        zero = _rand_zero(rng, CyclicTriple)
        if not (x + zero == x):
            rec.fail("constant triples are zeros: {}, {}", x, zero)
        if not ((x + zero) * y == x * y):
            rec.fail("well-definedness: {}, {}, {}", x, zero, y)


def _check_triple_norms(n: int, rng: random.Random, rec: CheckResult) -> None:
    for _ in range(n):
        x, y = _rand_triple(rng), _rand_triple(rng)
        if not ((x * y).norm_sq() == x.norm_sq() * y.norm_sq()):
            rec.fail("norm multiplicativity: {}, {}", x, y)
        if not _modulus_holds(x):
            rec.fail("norm vs complex modulus: {}", x)
        if not _triangle_holds(x, y, x + y):
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
        zero = _rand_zero(rng, CyclicMatrix)
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
    """The characters as 1, -1, 1j or -1j, each matched exactly; None if one is none of them."""
    images = _character_images(matrix)
    d = images[0][4]  # each image is over 2*den
    targets = {(d, 0, 0, 0, d): 1, (-d, 0, 0, 0, d): -1, (0, 0, d, 0, d): 1j, (0, 0, -d, 0, d): -1j}
    pattern = tuple(map(targets.get, images))
    return None if None in pattern else pattern


def _check_character_oracle(n: int, rng: random.Random, rec: CheckResult) -> None:
    for label, family, signs in (("plus", PLUS_FAMILY, (1, -1)), ("imaginary", IMAGINARY_FAMILY, (1j, -1j))):
        patterns = {_character_pattern(UNIT_VALUES[u]) for u in family}
        if not (patterns == set(_iter_product(signs, repeat=3))):
            rec.fail("{}-family patterns: {}", label, sorted(map(str, patterns)))
    for _ in range(n):
        x = _rand_matrix(rng)
        (variant,) = _below(rng.getrandbits, _VARIANT)
        if variant == 0:
            y = _rand_matrix(rng)
        elif variant == 1:
            y = x + _rand_zero(rng, CyclicMatrix)
        elif variant == 2:
            y = x.reduce()
        else:
            y = x + _rand_rotation_zero(rng)
        if not ((x == y) == all(map(_same_complex, _character_images(x), _character_images(y)))):
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
    ("triple-complex-homomorphism", _homomorphism(_rand_triple, _exact_complex, _same_complex, "", _COMPLEX_OPS), 1),
    ("triple-norms", _check_triple_norms, 1),
    ("triple-complex-roundtrip", _check_triple_complex_roundtrip, 1),
    ("matrix-ring-laws", _ring_laws(_rand_matrix), 2),
    ("matrix-well-defined", _check_matrix_well_defined, 2),
    (
        "matrix-rowsums-homomorphism",
        _homomorphism(_rand_matrix, methodcaller("row_sums"), _same_payload, "row-sums "),
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
