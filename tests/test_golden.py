"""Byte-for-byte output of the report commands against stored files.

The files under ``tests/golden/`` were written by the code as it stood
before equality and hashing moved to the order-free key, from the cases
below.  Printed output is behaviour: which cells pass, which unit a
product is named as, and every raw or reduced value shown.  With J given
K's value, two units are equal, so the table records also pin that
``match_unit`` names the first unit listed that matches.

The failure paths are pinned as well, written by the code as it stood
before the report records and the ``--machine`` writer were merged:
``verify`` with the J and j units swapped (the ``j-jj-swapped`` mutant
of ``test_verify.py``), and ``roots`` with J given j's value and one
root of nine replaced by K.

``eval-corpus.txt`` holds one JSON string per line: inputs to
``signfree eval`` over every grammar form and every expression error
text.  Its expected stdout and stderr were written by the code as it
stood before the tokenizer, literal reading and scalar printing moved
to plain ints.
"""

import json
from pathlib import Path

import pytest

from signfree import UNIT_VALUES, UnitName, cli
from signfree.cli import main, run_tables
from test_verify import _swap_j_and_jj

GOLDEN = Path(__file__).parent / "golden"


def _tables_with_j_as_k(machine: bool) -> int:
    units = dict(UNIT_VALUES)
    units[UnitName.J] = UNIT_VALUES[UnitName.K]
    return run_tables(machine=machine, unit_values=units)


def _corrupt_roots(monkeypatch):
    monkeypatch.setitem(UNIT_VALUES, UnitName.J, UNIT_VALUES[UnitName.JJ])
    roots = list(cli.ROOTS_OF_NINE)
    roots[3] = UNIT_VALUES[UnitName.K]
    monkeypatch.setattr(cli, "ROOTS_OF_NINE", tuple(roots))


def _run(argv, install=None):
    """Runs `main(argv)`, with a defect installed first if one is given."""

    def run(monkeypatch):
        if install is not None:
            install(monkeypatch)
        return main(argv)

    return run


_VERIFY_20 = ["verify", "--samples", "20"]

# file stem -> (run, exit status)
CASES = {
    "tables": (_run(["tables"]), 0),
    "tables-machine": (_run(["tables", "--machine"]), 0),
    "tables-j-as-k": (lambda mp: _tables_with_j_as_k(False), 1),
    "tables-j-as-k-machine": (lambda mp: _tables_with_j_as_k(True), 1),
    "roots": (_run(["roots"]), 0),
    "roots-machine": (_run(["roots", "--machine"]), 0),
    "roots-corrupted": (_run(["roots"], _corrupt_roots), 1),
    "roots-corrupted-machine": (_run(["roots", "--machine"], _corrupt_roots), 1),
    "verify": (_run([*_VERIFY_20, "--seed", "42"]), 0),
    "verify-machine": (_run([*_VERIFY_20, "--seed", "42", "--machine"]), 0),
    "verify-j-jj-swapped": (_run([*_VERIFY_20, "--seed", "1"], _swap_j_and_jj), 1),
    "verify-j-jj-swapped-machine": (_run([*_VERIFY_20, "--seed", "1", "--machine"], _swap_j_and_jj), 1),
}


@pytest.mark.parametrize("name", CASES)
def test_golden_output(capsys, monkeypatch, name):
    run, status = CASES[name]
    assert run(monkeypatch) == status
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
