import io
import subprocess
import sys

import pytest

from signfree import UNIT_VALUES, UnitName, unit_value
from signfree.cli import main, run_tables


def test_eval_arguments(capsys):
    assert main(["eval", "reduce(p{3,1} * p{4,6})", "normsq(t{3,0,5})"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["p{0,4}", "19"]


def test_eval_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("t{2,1,0} * t{0,2,1}\n\nreduce(t{1,4,4})\n"))
    assert main(["eval"]) == 0
    assert capsys.readouterr().out.splitlines() == ["t{1,4,4}", "t{0,3,3}"]


def test_eval_reports_errors_and_continues(capsys):
    assert main(["eval", "p{1,0} + t{1,0,0}", "1+1"]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out.splitlines() == ["2"]


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no int-to-str digit limit"
)
def test_eval_reports_unprintable_result(capsys):
    # 2^100000 has 30,103 digits, over the default int-to-str limit of 4,300
    assert main(["eval", "2^100000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_tables_pass(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "all tables: 192/192 cells pass" in out


def test_tables_machine_records(capsys):
    assert main(["tables", "--machine"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line]
    assert len(lines) == 192
    fields = lines[0].split("\t")
    assert fields[0] == "plus-one-table"
    assert fields[5] == "pass"
    assert all(line.endswith("pass") for line in lines)


def test_corrupted_unit_fails_tables(capsys):
    corrupted = dict(UNIT_VALUES)
    corrupted[UnitName.L] = unit_value(UnitName.NEG1)
    assert run_tables(unit_values=corrupted) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_verify_small(capsys):
    assert main(["verify", "--samples", "20", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "16/16 checks pass" in out


def test_verify_is_deterministic(capsys):
    main(["verify", "--samples", "15", "--seed", "11", "--machine"])
    first = capsys.readouterr().out
    main(["verify", "--samples", "15", "--seed", "11", "--machine"])
    second = capsys.readouterr().out
    assert first == second
    assert all(line.endswith("pass") for line in first.splitlines())


def test_verify_rejects_zero_samples():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--samples", "0"])
    assert err.value.code == 2


def test_roots(capsys):
    assert main(["roots"]) == 0
    out = capsys.readouterr().out
    assert "square roots of 9: 8/8 confirmed" in out
    assert "square roots of 1 among the 16 units: 1 -1 J -J K -K L -L" in out
    assert "square roots of -1 among the 16 units: i -i j -j k -k l -l" in out


def test_roots_machine(capsys):
    assert main(["roots", "--machine"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8 + 16 + 16
    assert all(line.endswith("pass") for line in lines)


def test_repl_quits_and_evaluates(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO())
    feed = iter(["reduce(I^2)", "p{1,0} * oops", "quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
    assert main(["repl"]) == 0
    out = capsys.readouterr().out
    assert "m{[0,0,0];[1,0,0];[1,0,0]}" in out


def test_module_entry_point():
    completed = subprocess.run(
        [sys.executable, "-m", "signfree", "eval", "norm(m{[0,3,2];[2,2,0];[1,0,3]})"],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0
    assert completed.stdout.strip() == "1"
