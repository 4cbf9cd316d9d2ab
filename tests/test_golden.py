"""Byte-for-byte output of the report commands against stored files.

The files under ``tests/golden/`` were written by the code as it stood
before equality and hashing moved to the order-free key, from the cases
below.  Printed output is behaviour: which cells pass, which unit a
product is named as, and every raw or reduced value shown.  With J given
K's value, two units are equal, so the table records also pin that
``match_unit`` names the first unit listed that matches.

``eval-corpus.txt`` holds one JSON string per line: inputs to
``signfree eval`` over every grammar form and every expression error
text.  Its expected stdout and stderr were written by the code as it
stood before the tokenizer, literal reading and scalar printing moved
to plain ints.
"""

import json
from pathlib import Path

import pytest

from signfree import UNIT_VALUES, UnitName
from signfree.cli import main, run_tables

GOLDEN = Path(__file__).parent / "golden"


def _tables_with_j_as_k(machine: bool) -> int:
    units = dict(UNIT_VALUES)
    units[UnitName.J] = UNIT_VALUES[UnitName.K]
    return run_tables(machine=machine, unit_values=units)


# file stem -> (run, exit status)
CASES = {
    "tables": (lambda: main(["tables"]), 0),
    "tables-machine": (lambda: main(["tables", "--machine"]), 0),
    "tables-j-as-k": (lambda: _tables_with_j_as_k(False), 1),
    "tables-j-as-k-machine": (lambda: _tables_with_j_as_k(True), 1),
    "roots": (lambda: main(["roots"]), 0),
    "roots-machine": (lambda: main(["roots", "--machine"]), 0),
    "verify": (lambda: main(["verify", "--samples", "20", "--seed", "42"]), 0),
    "verify-machine": (lambda: main(["verify", "--samples", "20", "--seed", "42", "--machine"]), 0),
}


@pytest.mark.parametrize("name", CASES)
def test_golden_output(capsys, name):
    run, status = CASES[name]
    assert run() == status
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / f"{name}.txt").read_bytes()


def test_eval_corpus_output(capsys):
    text = (GOLDEN / "eval-corpus.txt").read_text(encoding="ascii")
    inputs = [json.loads(line) for line in text.splitlines()]
    assert main(["eval", "--", *inputs]) == 1  # the corpus holds error inputs
    captured = capsys.readouterr()
    assert captured.out.encode() == (GOLDEN / "eval-corpus-stdout.txt").read_bytes()
    assert captured.err.encode() == (GOLDEN / "eval-corpus-stderr.txt").read_bytes()
