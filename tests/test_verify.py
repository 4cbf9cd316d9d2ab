import hashlib
import random
from fractions import Fraction
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
from signfree.verify import _rand_digit_matrix, _rand_matrix, _rand_nonneg, _rand_pair, _rand_signed, _rand_triple

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


# name -> (draw, reference draw)
DRAWS = {
    "nonneg": (_rand_nonneg, ref_rand_nonneg),
    "signed": (_rand_signed, ref_rand_signed),
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


def _ints(x):
    return (x.numerator, x.denominator) if isinstance(x, Fraction) else (x._num, x._den)


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
