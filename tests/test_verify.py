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


def test_mutant_reports_match_golden(monkeypatch):
    """Every report under each mutant, byte for byte as the per-system checkers gave it."""
    reports = {}
    for mutant, install in MUTANTS.items():
        with monkeypatch.context() as mp:
            install(mp)
            reports[mutant] = {r.name: r for r in run_checks(samples=20, seed=1)}
    text = "".join(
        f"{mutant}\t{r.name}\t{r.samples}\t{r.failures}\t{r.detail}\n"
        for mutant, results in reports.items()
        for r in results.values()
    )
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


def test_triple_ring_laws_check_closure(monkeypatch):
    product = CyclicTriple._product

    def shifted(x, y):  # less a constant vector: the same class, negative parts
        return tuple(n - 10**6 if k % 2 == 0 else n for k, n in enumerate(product(x, y)))

    monkeypatch.setattr(CyclicTriple, "_product", staticmethod(shifted))
    result = {r.name: r for r in run_checks(samples=20, seed=1)}["triple-ring-laws"]
    assert result.failures == 20
    assert result.detail.startswith("closure: ")
