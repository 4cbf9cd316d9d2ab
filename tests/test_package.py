import os
import subprocess
import sys
from pathlib import Path

import pytest

import signfree
from signfree import expressions, matrices, pairs, scalars, triples, units, verify

MODULES = (scalars, pairs, triples, matrices, units, expressions, verify)  # import order

# the package's exported names before it joined its modules' `__all__` lists
EARLIER_NAMES = [
    "ExactScalar", "SQRT3", "as_scalar", "UnsignedPair", "CyclicTriple", "CyclicMatrix",
    "RowSelector", "absolute_zero", "rotation_zero", "find_square_roots", "characters_close",
    "UnitName", "PLUS_FAMILY", "IMAGINARY_FAMILY", "UNIT_VALUES", "unit_value", "match_unit",
    "TABLES", "TABLE_IDS", "TableReport", "verify_unit_table", "ROOTS_OF_NINE", "NINE",
    "SCALED_IMAGINARY_ROOTS", "MINUS_TWENTY_SEVEN", "ExpressionError", "Kind", "parse",
    "kind_of", "evaluate", "eval_text", "format_value", "run_checks", "CheckResult", "CHECK_NAMES",
]


def test_package_exports_each_module_all():
    exported = signfree.__all__
    assert len(set(exported)) == len(exported)
    assert exported == [name for module in MODULES for name in module.__all__]
    assert len(EARLIER_NAMES) == 35 and set(EARLIER_NAMES) <= set(exported)
    namespace: dict = {}
    exec("from signfree import *", namespace)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(signfree, name) is getattr(module, name), name
            assert namespace[name] is getattr(module, name), name



# `inspect` is what importing `dataclasses` loads beyond the stdlib modules signfree uses;
# each costs milliseconds of every CLI call and nothing in signfree needs it
HEAVY_MODULES = {"dataclasses", "inspect", "typing"}


@pytest.mark.parametrize(
    "argv", (["-c", "import signfree"], ["-m", "signfree", "eval", "J*K"]), ids=("import", "eval")
)
def test_start_up_imports_no_heavy_module(argv):
    # -X importtime names each module a process imports, on stderr; -S leaves out site
    env = dict(os.environ, PYTHONPATH=str(Path(signfree.__file__).parents[1]))
    completed = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *argv], capture_output=True, text=True, env=env
    )
    assert completed.returncode == 0, completed.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in completed.stderr.splitlines() if "|" in line}
    assert "signfree.expressions" in imported
    assert not imported & HEAVY_MODULES
