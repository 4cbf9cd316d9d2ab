import hashlib
import random
import sys
from collections import Counter
from fractions import Fraction
from operator import add, mul
from pathlib import Path

import pytest

from signfree import (
    CHECK_NAMES,
    UNIT_VALUES,
    CyclicMatrix,
    CyclicTriple,
    ExactScalar,
    UnitName,
    UnsignedPair,
    run_checks,
)
from signfree import matrices, scalars, triples, verify
from signfree.matrices import RowSelector, _character_images, absolute_zero, characters_close, rotation_zero
from signfree.verify import (
    _ROTATION_ZEROS,
    _VARIANT,
    CheckResult,
    _below,
    _character_pattern,
    _complex_product,
    _complex_sum,
    _exact_complex,
    _modulus_holds,
    _rand_digit_matrix,
    _rand_matrix,
    _rand_pair,
    _rand_rational,
    _rand_rotation_zero,
    _rand_scalar,
    _rand_triple,
    _rand_zero,
    _same_complex,
    _triangle_holds,
)

GOLDEN = Path(__file__).parent / "golden"


def test_small_run_passes_everything():
    results = run_checks(samples=40, seed=7)
    assert [r.name for r in results] == list(CHECK_NAMES)
    for result in results:
        assert result.passed, f"{result.name}: {result.detail}"


def test_same_seed_gives_identical_reports():
    first = run_checks(samples=30, seed=123)
    second = run_checks(samples=30, seed=123)
    assert first == second


def test_different_seeds_still_pass():
    for seed in (0, 1, 99):
        assert all(r.passed for r in run_checks(samples=15, seed=seed))


def test_sample_scaling():
    for samples, base, matrix, per_zero in ((100, 100, 50, 10), (1, 1, 1, 1), (19, 19, 9, 1)):
        results = {r.name: r for r in run_checks(samples=samples, seed=5)}
        assert results["pair-ring-laws"].samples == base
        assert results["matrix-ring-laws"].samples == matrix
        assert results["rotation-zeros"].samples == per_zero


def test_fail_counts_every_call_and_keeps_the_first_detail():
    class Unformattable:
        def __format__(self, spec):
            raise AssertionError("a later failure was formatted")

    rec = CheckResult("law", 3)
    assert rec.passed and rec.detail == ""
    rec.fail("first: {}, {}", 1, "x")
    rec.fail("second: {}", Unformattable())
    rec.fail("third")
    assert rec == CheckResult("law", 3, failures=3, detail="first: 1, x") and not rec.passed


def _count_str(monkeypatch, classes):
    """The instances whose `__str__` runs from now on, in order."""
    printed = []
    for cls in classes:
        text = cls.__str__
        monkeypatch.setattr(cls, "__str__", lambda self, text=text: printed.append(self) or text(self))
    return printed


def test_passing_laws_format_no_detail(monkeypatch):
    """A passing law builds no detail: no sample is printed on a passing run."""
    printed = _count_str(monkeypatch, (ExactScalar, UnsignedPair, CyclicTriple, CyclicMatrix))
    assert all(r.passed for r in run_checks(samples=20, seed=7))
    assert printed == []


def test_failing_laws_format_only_the_first_detail(monkeypatch):
    """A failing check formats the operands of its first failing law and no other."""
    text = UnsignedPair.__str__
    MUTANTS["pair-extra-term"](monkeypatch)
    printed = _count_str(monkeypatch, (UnsignedPair,))
    failing = [r for r in run_checks(samples=20, seed=1) if not r.passed]
    assert [r.name for r in failing] == ["pair-ring-laws", "pair-signed-homomorphism"]
    assert [r.failures for r in failing] == [35, 18]
    operands = [r.detail.split(": ", 1)[1] for r in failing]
    assert [", ".join(map(text, printed[:2])), ", ".join(map(text, printed[2:]))] == operands


def test_rejects_nonpositive_samples():
    with pytest.raises(ValueError):
        run_checks(samples=0)


# The draws the payload and `getrandbits` draws replaced, made by `randint`,
# `randrange` and `choice` and entry by entry through the public
# constructors: the reference for `test_draws_match_entry_by_entry_draws`.

_REF_DENOMS = (1, 1, 1, 1, 2, 3, 4)


def ref_rand_nonneg(rng):
    return Fraction(rng.randint(0, 9), rng.choice(_REF_DENOMS))


def ref_rand_signed(rng):
    return Fraction(rng.randint(-99, 99), rng.randint(1, 99))


def ref_rand_digit(rng):
    return rng.randrange(10)


def ref_rand_matrix(rng, entry):
    columns = [[entry(rng) for _ in range(3)] for _ in range(3)]  # A top to bottom, then B, then C
    return CyclicMatrix.from_rows(zip(*columns))


def ref_rand_shift(rng):
    s = ref_rand_nonneg(rng)
    return CyclicTriple(s, s, s)


# name -> (draw, reference draw); "nonneg" and "signed" are the draws of one
# nonnegative and one signed value, as the constant triple and the scalar they make
DRAWS = {
    "nonneg": (lambda rng: _rand_zero(rng, CyclicTriple), ref_rand_shift),
    "signed": (_rand_rational, lambda rng: ExactScalar(ref_rand_signed(rng))),
    "scalar": (_rand_scalar, lambda rng: ExactScalar(ref_rand_signed(rng), ref_rand_signed(rng))),
    "absolute-zero": (
        lambda rng: _rand_zero(rng, CyclicMatrix),
        lambda rng: absolute_zero(*(ref_rand_nonneg(rng) for _ in range(3))),
    ),
    "oracle-variant": (lambda rng: _below(rng.getrandbits, _VARIANT)[0], lambda rng: rng.randrange(4)),
    "oracle-rotation-zero": (
        _rand_rotation_zero,
        lambda rng: rotation_zero(rng.choice(RowSelector.all()), Fraction(rng.randint(1, 9))),
    ),
    "pair": (_rand_pair, lambda rng: UnsignedPair(ref_rand_nonneg(rng), ref_rand_nonneg(rng))),
    "triple": (_rand_triple, lambda rng: CyclicTriple(*(ref_rand_nonneg(rng) for _ in range(3)))),
    "matrix": (_rand_matrix, lambda rng: ref_rand_matrix(rng, ref_rand_nonneg)),
    "digit-matrix": (_rand_digit_matrix, lambda rng: ref_rand_matrix(rng, ref_rand_digit)),
}
DRAW_SEEDS = range(2000)


@pytest.mark.parametrize("name", DRAWS)
def test_draws_match_entry_by_entry_draws(name):
    """The same element, payload for payload, and the generator left in the same state."""
    draw, reference = DRAWS[name]
    for seed in DRAW_SEEDS:
        rng, ref_rng = random.Random(f"{name}:{seed}"), random.Random(f"{name}:{seed}")
        for k in range(3):
            x, ref = draw(rng), reference(ref_rng)
            assert type(x) is type(ref) and _ints(x) == _ints(ref), (seed, k)
            assert rng.getstate() == ref_rng.getstate(), (seed, k)


def test_rotation_zero_table_is_the_nested_loop_in_order():
    """The zeros the rotation-zero check built on each call, entry by entry:
    the order decides which draws meet which zero."""
    loop = []
    for xi in (Fraction(1), Fraction(7, 3)):
        for selector in RowSelector.all():
            loop.append((selector, xi, rotation_zero(selector, xi)))
    assert len(_ROTATION_ZEROS) == len(loop) == 54
    for k, ((selector, xi, zero), (ref_selector, ref_xi, ref_zero)) in enumerate(zip(_ROTATION_ZEROS, loop)):
        assert selector is ref_selector and str(selector) == str(ref_selector), k
        assert type(xi) is Fraction and xi == ref_xi, k
        assert type(zero) is CyclicMatrix and (zero._num, zero._den) == (ref_zero._num, ref_zero._den), k


def _ints(x):
    if isinstance(x, int):
        return x
    return (x._p, x._q, x._d) if isinstance(x, ExactScalar) else (x._num, x._den)


def _extra_term(cls):
    """`cls`'s product plus one more term, x[0]*y[2], in its first int."""
    product = cls._product

    def mutant(x, y):
        out = list(product(x, y))
        out[0] += x[0] * y[2]
        return tuple(out)

    return staticmethod(mutant)


def _off_by_one_scalar_product():
    """The scalar product plus one whenever the left factor has a sqrt3 part."""
    product = ExactScalar.__mul__

    def mutant(self, other):
        result = product(self, other)
        return result + 1 if self._q and result is not NotImplemented else result

    return mutant


def _swap_j_and_jj(monkeypatch):
    j, jj = UNIT_VALUES[UnitName.J], UNIT_VALUES[UnitName.JJ]
    monkeypatch.setitem(UNIT_VALUES, UnitName.J, jj)
    monkeypatch.setitem(UNIT_VALUES, UnitName.JJ, j)


# name -> installs one deliberate defect
MUTANTS = {
    "pair-extra-term": lambda mp: mp.setattr(UnsignedPair, "_product", _extra_term(UnsignedPair)),
    "triple-extra-term": lambda mp: mp.setattr(CyclicTriple, "_product", _extra_term(CyclicTriple)),
    "matrix-extra-term": lambda mp: mp.setattr(CyclicMatrix, "_product", _extra_term(CyclicMatrix)),
    "scalar-off-by-one": lambda mp: mp.setattr(ExactScalar, "__mul__", _off_by_one_scalar_product()),
    "j-jj-swapped": _swap_j_and_jj,
}


def _mutant_reports(monkeypatch, samples, seed):
    """mutant -> {check name: report} from `run_checks` with that mutant installed."""
    reports = {}
    for mutant, install in MUTANTS.items():
        with monkeypatch.context() as mp:
            install(mp)
            reports[mutant] = {r.name: r for r in run_checks(samples=samples, seed=seed)}
    return reports


def _mutant_lines(mutant, results):
    """One mutant's reports in the line format of verify-mutants.txt."""
    return "".join(f"{mutant}\t{r.name}\t{r.samples}\t{r.failures}\t{r.detail}\n" for r in results.values())


def test_mutant_reports_match_golden(monkeypatch):
    """Every report under each mutant, byte for byte as the per-system checkers gave it."""
    reports = _mutant_reports(monkeypatch, samples=20, seed=1)
    text = "".join(_mutant_lines(mutant, results) for mutant, results in reports.items())
    assert text.encode() == (GOLDEN / "verify-mutants.txt").read_bytes()
    # together the mutants fail every shared law
    merged = [f"{system}-ring-laws" for system in ("pair", "triple", "matrix")] + [
        "scalar-field-laws",
        "pair-signed-homomorphism",
        "triple-complex-homomorphism",
        "matrix-rowsums-homomorphism",
    ]
    for name in merged:
        assert any(results[name].failures for results in reports.values()), name
    # the random comparisons take no unit, so both family patterns failed
    oracle = reports["j-jj-swapped"]["character-oracle"]
    assert oracle.failures == 2 and oracle.detail.startswith("plus-family patterns: ")


# sha256 of each mutant's reports at samples=200, seed=42, in the verify-mutants.txt
# line format: about ten times the draws of the golden above
MUTANT_DIGESTS_200 = {
    "pair-extra-term": "205ca1a5e25c83e239cd25582e380ff5e43e1052428168bee47168dd55351ae7",
    "triple-extra-term": "e480938892214a5b77605139bcb4ede9349daaf39cfc2f8622b14e0fb8e055dc",
    "matrix-extra-term": "73ff2939662a1e62ab88ea87805762745e5d7d1071c19106184a63f9ee9d1b64",
    "scalar-off-by-one": "e0af65d6f4b9041f9c7d711d6a1cc0890221607852a27d05f7c491d2a5b72163",
    "j-jj-swapped": "4c59ada9ebad4c6e74f48c02c7925c839aa19f8494bfe6cf96601dc85bce54c9",
}


def test_mutant_reports_match_pinned_digests(monkeypatch):
    reports = _mutant_reports(monkeypatch, samples=200, seed=42)
    digests = {
        mutant: hashlib.sha256(_mutant_lines(mutant, results).encode()).hexdigest()
        for mutant, results in reports.items()
    }
    assert digests == MUTANT_DIGESTS_200


def test_triple_ring_laws_check_closure(monkeypatch):
    product = CyclicTriple._product

    def shifted(x, y):  # less a constant vector: the same class, negative parts
        return tuple(n - 10**6 if k % 2 == 0 else n for k, n in enumerate(product(x, y)))

    monkeypatch.setattr(CyclicTriple, "_product", staticmethod(shifted))
    result = {r.name: r for r in run_checks(samples=20, seed=1)}["triple-ring-laws"]
    assert result.failures == 20
    assert result.detail.startswith("closure: ")


def test_triple_ring_laws_check_sums(monkeypatch):
    add = CyclicTriple.__add__

    def left_heavy(x, y):  # x + y plus x's component a again: not commutative
        return add(add(x, y), CyclicTriple._make((*x._num[:2], 0, 0, 0, 0), x._den))

    monkeypatch.setattr(CyclicTriple, "__add__", left_heavy)
    result = {r.name: r for r in run_checks(samples=20, seed=1)}["triple-ring-laws"]
    assert result.failures >= 20  # commutativity, associativity and distributivity can each fail
    assert result.detail.startswith("add commutativity: ")


# The norm axioms, the triple -> complex homomorphism and the character oracle
# through floats, within 1e-9: the reference for the differential tests below.


def float_modulus_holds(x):
    return abs(float(x.norm_sq()) - abs(x.to_complex()) ** 2) <= 1e-9


def float_triangle_holds(x, y, x_plus_y):
    return x_plus_y.norm() <= x.norm() + y.norm() + 1e-9


def float_homomorphic(op, x, y):
    return abs(op(x, y).to_complex() - op(x.to_complex(), y.to_complex())) <= 1e-9


def float_character_pattern(matrix):
    pattern = []
    for value in matrix.characters():
        for target in (1, -1, 1j, -1j):
            if abs(value - target) <= 1e-9:
                pattern.append(target)
                break
        else:
            return None
    return tuple(pattern)


def exact_homomorphic(op, x, y):
    image_op = {mul: _complex_product, add: _complex_sum}[op]
    return _same_complex(_exact_complex(op(x, y)), image_op(_exact_complex(x), _exact_complex(y)))


def _assert_triple_verdicts_agree(x, y):
    assert _modulus_holds(x) == float_modulus_holds(x), x
    assert _triangle_holds(x, y, x + y) == float_triangle_holds(x, y, x + y), (x, y)
    # |2(x + y)| <= |x| + |y| fails unless x + y ~ 0: the exact sign of (s - a - b)^2 - 4ab decides
    assert _triangle_holds(x, y, (x + y) * 2) == float_triangle_holds(x, y, (x + y) * 2), (x, y)
    for op in (mul, add):
        assert exact_homomorphic(op, x, y) == float_homomorphic(op, x, y), (op, x, y)


def test_exact_triple_laws_agree_with_the_float_laws():
    """5,000 seeded sample pairs, each verdict exact and by floats within 1e-9."""
    rng = random.Random("exact-triple-laws")
    for _ in range(5000):
        _assert_triple_verdicts_agree(_rand_triple(rng), _rand_triple(rng))


def test_exact_triple_laws_hold_at_equality():
    """y = x and y = 2x: collinear, so |x + y| == |x| + |y| and the triangle is an equality."""
    rng = random.Random("exact-triple-equality")
    for _ in range(500):
        x = _rand_triple(rng)
        for y in (x, x * 2):
            _assert_triple_verdicts_agree(x, y)
            assert _triangle_holds(x, y, x + y)


def test_exact_character_pattern_agrees_with_the_float_pattern():
    """On the 16 units, whose characters are 1, -1, i or -i, and on random matrices, whose are not."""
    for name, unit in UNIT_VALUES.items():
        assert _character_pattern(unit) == float_character_pattern(unit) is not None, name
    rng = random.Random("exact-pattern")
    for _ in range(500):
        m = _rand_matrix(rng)
        assert _character_pattern(m) == float_character_pattern(m), m


# the oracle's four ways to pick y for x, and the verdicts x == y each gives
ORACLE_VARIANTS = (
    (lambda rng, x: _rand_matrix(rng), {False}),
    (lambda rng, x: x + _rand_zero(rng, CyclicMatrix), {True}),
    (lambda rng, x: x.reduce(), {True}),
    (lambda rng, x: x + _rand_rotation_zero(rng), {False, True}),  # a one-column rotation zero is constant
)


@pytest.mark.parametrize("variant", range(4))
def test_exact_character_agreement_agrees_with_characters_close(variant):
    """2,000 seeded oracle pairs of each variant: another draw, an absolute zero
    added, the reduced form and a rotation zero added."""
    draw_y, verdicts = ORACLE_VARIANTS[variant]
    seen = set()
    rng = random.Random(f"exact-oracle:{variant}")
    for _ in range(2000):
        x = _rand_matrix(rng)
        y = draw_y(rng, x)
        same = all(map(_same_complex, _character_images(x), _character_images(y)))
        assert same == characters_close(x, y) == (x == y), (x, y)
        seen.add(same)
    assert seen == verdicts


def _install_everywhere(mp, original, mutant):
    """Bind `mutant` wherever a signfree module bound `original` by name."""
    for module in (triples, matrices, verify):
        for name, value in list(vars(module).items()):
            if value is original:
                mp.setattr(module, name, mutant)


def _norm_sq_ints_with(term):
    """`triples._norm_sq_ints` with its term ``up * vp`` replaced by `term(up, vp)`."""

    def mutant(pa, qa, pb, qb, pc, qc, den):
        up, uq, vp, vq = pa - pb, qa - qb, pb - pc, qb - qc
        return (
            up * up + vp * vp + term(up, vp) + 3 * (uq * uq + vq * vq + uq * vq),
            2 * (up * uq + vp * vq) + up * vq + uq * vp,
            den * den,
        )

    return mutant


def _image_plus_pc(pa, qa, pb, qb, pc, qc, den):
    """`triples._image` with re's ``- pc`` flipped to ``+ pc``."""
    return 2 * pa - pb + pc, 2 * qa - qb - qc, 3 * (qb - qc), pb - pc, 2 * den


def _character_ints_without_c2(num, character_ints=matrices._character_ints):
    """`matrices._character_ints` with the column-C term c2 dropped from psi_1's first int."""
    ints = list(character_ints(num))
    ints[6] -= num[14]
    return tuple(ints)


# exact law -> (the function the mutant replaces, the mutant, the laws its check reports failed)
EXACT_LAW_MUTANTS = {
    "modulus": (
        triples._norm_sq_ints,
        _norm_sq_ints_with(lambda u, v: -u * v),
        {("triple-norms", "norm vs complex modulus")},
    ),
    "triangle": (
        triples._norm_sq_ints,
        _norm_sq_ints_with(lambda u, v: u * u * v),
        {("triple-norms", "triangle inequality")},
    ),
    "homomorphism": (
        triples._image,
        _image_plus_pc,
        {("triple-complex-homomorphism", "mul homomorphism")},
    ),
    "oracle": (
        matrices._character_ints,
        _character_ints_without_c2,
        {("character-oracle", "plus-family patterns"), ("character-oracle", "character equality agreement")},
    ),
}


@pytest.mark.parametrize("law", EXACT_LAW_MUTANTS)
def test_each_exact_law_fails_under_a_mutant(monkeypatch, law):
    """Each exact law reports failures when the formula it checks is broken."""
    original, mutant, expected = EXACT_LAW_MUTANTS[law]
    failed = set()
    fail = CheckResult.fail

    def recording(self, fmt, *args):
        failed.add((self.name, fmt.format(*args).split(": ")[0]))
        fail(self, fmt, *args)

    with monkeypatch.context() as mp:
        _install_everywhere(mp, original, mutant)
        mp.setattr(CheckResult, "fail", recording)
        run_checks(samples=20, seed=1)
    assert expected <= failed, failed


def test_run_checks_rounds_few_floats_and_builds_no_fraction():
    """The laws are exact: only sign vs float (one a sample) and the complex and
    triple round trips (eight a sample) round a value to a float, and no draw builds a Fraction."""
    codes = {scalars._float.__code__: "float", Fraction.__new__.__code__: "Fraction"}
    coprime = getattr(Fraction, "_from_coprime_ints", None)  # Python 3.12+
    if coprime is not None:
        codes[coprime.__func__.__code__] = "Fraction"
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        run_checks(samples=2, seed=7)
    finally:
        sys.setprofile(None)
    assert calls == {"float": 18}
