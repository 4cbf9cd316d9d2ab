import ast
import io
import os
import select
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from signfree import UNIT_VALUES, CyclicMatrix, UnitName, unit_value, units
from signfree.cli import build_parser, main, main_entry, run_roots, run_tables
from signfree.expressions import eval_text, format_value


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
    texts = ["t{1,0-1,0}", "m{[0,0,0];[0,0,0];[0,1-3/2,0]}", "p{0,0} * (1-2)", "p{1-2,0}"]
    assert main(["eval", *texts]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: component b must be nonnegative, got -1",
        "error: component c must be nonnegative, got -1/2",
        "error: scale factor must be nonnegative, got -1",
        "error: plus component must be nonnegative, got -1",
    ]


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no int-to-str digit limit"
)
def test_eval_reports_unprintable_result(capsys):
    # 2^100000 has 30,103 digits, over the default int-to-str limit of 4,300
    assert main(["eval", "2^100000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "sys." not in captured.err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no int-to-str digit limit"
)
@pytest.mark.parametrize(
    "text, pos", [("1" + "0" * 5000, 0), ("2^" + "1" * 5000, 2)], ids=["value", "exponent"]
)
def test_eval_reports_overlong_literal(monkeypatch, capsys, text, pos):
    # 5,000 digits, over the default int-to-str limit of 4,300
    monkeypatch.setattr(sys, "stdin", io.StringIO(text + "\n"))
    assert main(["eval"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: number literal too long (at position {pos})\n"


@pytest.mark.parametrize(
    "text",
    [
        "norm(t{10^400,0,0})",
        "tocomplex(t{10^400,0,0})",
        "chars(m{[10^400,0,0];[0,0,0];[0,0,0]})",
        # each part in float range, the sqrt3 part or the character sums past it
        "tocomplex(t{17*10^307,0,0}*sqrt3)",
        "chars(m{[17*10^307,17*10^307,0];[0,0,0];[0,0,0]})",
    ],
    ids=["norm", "tocomplex", "chars", "tocomplex-sqrt3-part", "chars-column-sum"],
)
def test_eval_reports_value_past_float_range(capsys, text):
    assert main(["eval", text, "1+1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: value too large for a float\n"
    assert captured.out == "2\n"


def test_eval_after_double_dash(capsys):
    # without `--`, an argument starting with '-' is taken for an option
    assert main(["eval", "--", "-----1", "--2"]) == 0
    assert capsys.readouterr().out.splitlines() == ["-1", "2"]


@pytest.mark.parametrize(
    "text",
    ["(" * 2000 + "1" + ")" * 2000, "-" * 3000 + "1"],
    ids=["nested-parentheses", "repeated-minus"],
)
def test_eval_reports_deep_input(monkeypatch, capsys, text):
    # read from stdin: as an argument, a leading '-' is taken for an option
    monkeypatch.setattr(sys, "stdin", io.StringIO(text + "\n"))
    assert main(["eval"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expression nested too deeply\n"


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1+" * 3000 + "1", "3001"),
        ("1*" * 3000 + "1", "1"),
        ("1-" * 3000 + "1", "-2999"),
        ("*".join(["t{1,1,0}"] * 2000), format_value(eval_text("t{1,1,0}^2000"))),
    ],
    ids=["long-sum", "long-product", "long-difference", "long-triple-product"],
)
def test_eval_long_flat_chain(monkeypatch, capsys, text, expected):
    # a flat chain of 2,000 or more operators is folded in a loop, not refused as deep
    monkeypatch.setattr(sys, "stdin", io.StringIO(text + "\n"))
    assert main(["eval"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == expected + "\n"


def _readme_eval_examples():
    """(command, expected output) for each `signfree eval ... # -> X` line of the README."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, _, shown = line.partition("# -> ")
        if "signfree eval" in command and shown:
            examples.append((command.strip(), shown.split()[0]))
    return examples


def test_readme_eval_examples(monkeypatch, capsys):
    examples = _readme_eval_examples()
    assert len(examples) == 5
    for command, expected in examples:
        words = shlex.split(command)
        if words[0] == "echo":  # echo "TEXT" | signfree eval
            monkeypatch.setattr(sys, "stdin", io.StringIO(words[1] + "\n"))
            words = words[words.index("signfree") :]
        assert main(words[1:]) == 0, command
        assert capsys.readouterr().out == expected + "\n", command


def _readme_python_examples():
    """(code, printed value, shown value) for each statement of the README's Python API
    block that ends in ``# <value>``: `str` of the expression, or of the name it assigns,
    against the comment's first word with a trailing comma dropped."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Python API", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    examples = []
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            value = eval(code, namespace)
        else:
            exec(code, namespace)
            value = namespace[node.targets[0].id] if isinstance(node, ast.Assign) else None
        comment = lines[node.end_lineno - 1][node.end_col_offset :].strip()
        if comment.startswith("# "):
            examples.append((code, str(value), comment[2:].split()[0].removesuffix(",")))
    return examples


def test_readme_python_api_examples():
    examples = _readme_python_examples()
    assert [shown for _, _, shown in examples] == [
        "p{18,22}", "p{0,4}", "-4", "t{0,1,1}", "1j", "m{[7,0,5];[0,2,7];[7,7,0]}", "1", "True", "0.0",
    ]
    for code, printed, shown in examples:
        assert printed == shown, code


def test_parser_description_lists_every_unit():
    assert build_parser().description == (
        "Exact calculator for sign-free number systems: pairs p{..,..},"
        " triples t{..,..,..} and 3x3 matrices m{[..];[..];[..]} over"
        " Q(sqrt 3), with the sixteen named unit constants"
        " (ONE NEG1 J NJ K NK L NL I NI JJ NJJ KK NKK LL NLL for"
        " 1 -1 J -J K -K L -L i -i j -j k -k l -l)."
    )


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


def _count_work(monkeypatch):
    """Records each matrix product, equality key and `==` in order, as
    `product`, `unit key` (the key of a unit constant), `key` or `eq`, and
    each unit table verified, as `table`."""
    events = []
    product, key, eq = CyclicMatrix._product, CyclicMatrix._key, CyclicMatrix.__eq__
    unit_ids = {id(value) for value in UNIT_VALUES.values()}
    verify_unit_table = units.verify_unit_table

    def counted_product(x, y):
        events.append("product")
        return product(x, y)

    def counted_key(self):
        events.append("unit key" if id(self) in unit_ids else "key")
        return key(self)

    def counted_eq(self, other):
        events.append("eq")
        return eq(self, other)

    def counted_table(*args):
        events.append("table")
        return verify_unit_table(*args)

    monkeypatch.setattr(CyclicMatrix, "_product", staticmethod(counted_product))
    monkeypatch.setattr(CyclicMatrix, "_key", counted_key)
    monkeypatch.setattr(CyclicMatrix, "__eq__", counted_eq)
    monkeypatch.setattr(units, "verify_unit_table", counted_table)
    return events


@pytest.mark.parametrize("machine", [False, True], ids=["text", "machine"])
def test_tables_work_per_table(monkeypatch, capsys, machine):
    events = _count_work(monkeypatch)
    assert run_tables(machine=machine) == 0
    starts = [i for i, event in enumerate(events) if event == "table"]
    assert starts == [0, 145, 290] and len(events) == 3 * 145
    for start in starts:
        work = events[start + 1 : start + 145]
        # each unit's key once, then each cell's product and its key; no `==`
        assert work == ["unit key"] * 16 + ["product", "key"] * 64


@pytest.mark.parametrize("machine", [False, True], ids=["text", "machine"])
def test_roots_squares_each_unit_once(monkeypatch, capsys, machine):
    events = _count_work(monkeypatch)
    assert run_roots(machine=machine) == 0
    # the roots of 9, then each unit once for both families
    assert events.count("product") == 8 + 16
    # classes compared by key, each key computed once: 9, its 8 roots' squares,
    # the 16 unit squares and the two targets, 1 and -1
    assert events.count("eq") == 0
    assert events.count("key") + events.count("unit key") == 1 + 8 + 16 + 2


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


def test_eval_ends_quietly_when_its_reader_closes_the_pipe(tmp_path):
    # `signfree eval | head -n 1`: the reader leaves after one line of many
    stdin_path = tmp_path / "stdin.txt"
    stdin_path.write_text("J*K\n" * 20_000)
    with stdin_path.open("rb") as stdin:
        proc = subprocess.Popen(
            [sys.executable, "-m", "signfree", "eval"],
            stdin=stdin,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        status = proc.wait(timeout=60)
    assert first == b"m{[1,4/3,4/3];[4/3,2/3,2/3];[4/3,2/3,2/3]}\n"
    assert err == b""  # no traceback, from the print or from the flush at exit
    assert status == 1


def test_eval_answers_each_stdin_line_before_the_next_arrives():
    # stdin stays open, as it does under `yes 'J*K' | signfree eval`; PYTHONUNBUFFERED
    # would flush every print and hide a result held back in the stdout buffer
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "signfree", "eval"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        proc.stdin.write(b"J*K\n")
        proc.stdin.flush()
        ready, _, _ = select.select([proc.stdout], [], [], 20)
        assert ready, "no result while stdin was open"
        assert proc.stdout.readline() == b"m{[1,4/3,4/3];[4/3,2/3,2/3];[4/3,2/3,2/3]}\n"
        proc.stdin.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stdout.read() == b"" and proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


@pytest.mark.parametrize(
    "command, line, answer",
    (
        ("repl", b"", b"sign-free calculator; type an expression, or 'quit' to leave\n"),
        ("eval", b"1+1\n", b"2\n"),
    ),
    ids=("repl", "eval"),
)
def test_ctrl_c_ends_with_status_130_and_no_traceback(command, line, answer):
    # SIGINT once the process waits on its open stdin: at the repl prompt, or between eval lines
    proc = subprocess.Popen(
        [sys.executable, "-m", "signfree", command],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        proc.stdin.write(line)
        proc.stdin.flush()
        ready, _, _ = select.select([proc.stdout], [], [], 20)
        assert ready, "no output while stdin was open"
        assert proc.stdout.readline() == answer
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=60) == 130
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
        proc.stderr.close()


@pytest.mark.parametrize(
    "command, stdout, status",
    (
        ("eval", b"2\n4\n", 1),
        ("repl", b"sign-free calculator; type an expression, or 'quit' to leave\n> 2\n> > 4\n> \n", 0),
    ),
    ids=("eval", "repl"),
)
def test_undecodable_stdin_byte_ends_in_one_error_line(command, stdout, status):
    # strict utf-8, as PYTHONIOENCODING=utf-8 sets it: the byte 0xff decodes to nothing
    completed = subprocess.run(
        [sys.executable, "-m", "signfree", command],
        input=b"1+1\n\xff\n2+2\n",
        capture_output=True,
        env=dict(os.environ, PYTHONIOENCODING="utf-8"),
        timeout=60,
    )
    assert completed.stderr == b"error: unexpected character '\\udcff' (at position 0)\n"
    assert completed.stdout == stdout
    assert completed.returncode == status


@pytest.mark.parametrize("args, golden", ((["roots"], "roots"), (["tables", "--machine"], "tables-machine")))
def test_console_entry_point(monkeypatch, capsys, args, golden):
    # `main_entry` is the `signfree` script named in pyproject.toml's [project.scripts]
    monkeypatch.setattr(sys, "argv", ["signfree", *args])
    with pytest.raises(SystemExit) as exit_info:
        main_entry()
    assert exit_info.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (Path(__file__).parent / "golden" / f"{golden}.txt").read_bytes()
