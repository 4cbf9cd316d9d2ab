"""The three workloads: seeded inputs, one operation each, and its check.

Every workload drives the library through public functions only and
checks each output independently of the code that produced it.  An
operation fails when its check fails or when an exception escapes the
public call.  Import this module only after `src` is on `sys.path`.
"""

from __future__ import annotations

import contextlib
import io
import random

import signfree.cli as cli
from signfree import expressions, verify
from signfree.units import IMAGINARY_FAMILY, PLUS_FAMILY, TABLES, UNIT_VALUES, UnitName

import evalgen


def capture(fn, *args, **kwargs) -> "tuple[int, str, str]":
    """Call a CLI function with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = fn(*args, **kwargs)
    return status, out.getvalue(), err.getvalue()


class VerifyLaws:
    """One `verify.run_checks(samples=SAMPLES, seed=...)` per operation."""

    name = "verify-laws"
    SAMPLES = 2
    # (check, sample count) as run_checks documents them: `samples` for the
    # scalar/pair/triple checks, samples//2 for the matrix checks and
    # samples//10 random matrices per rotation zero, each at least 1.
    _BASE, _MATRIX, _ZEROS = SAMPLES, max(1, SAMPLES // 2), max(1, SAMPLES // 10)
    EXPECTED = tuple(
        (name, n, 0, "")
        for name, n in (
            ("scalar-field-laws", _BASE),
            ("scalar-sign-and-reciprocal", _BASE),
            ("pair-ring-laws", _BASE),
            ("pair-signed-homomorphism", _BASE),
            ("pair-roundtrip", _BASE),
            ("triple-ring-laws", _BASE),
            ("triple-well-defined", _BASE),
            ("triple-complex-homomorphism", _BASE),
            ("triple-norms", _BASE),
            ("triple-complex-roundtrip", _BASE),
            ("matrix-ring-laws", _MATRIX),
            ("matrix-well-defined", _MATRIX),
            ("matrix-rowsums-homomorphism", _MATRIX),
            ("matrix-norms", _MATRIX),
            ("rotation-zeros", _ZEROS),
            ("character-oracle", _MATRIX),
        )
    )

    def __init__(self, seed: int, count: int) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.items = [rng.randrange(2**32) for _ in range(count)]

    def run(self, item: int) -> tuple:
        results = verify.run_checks(samples=self.SAMPLES, seed=item)
        return tuple((r.name, r.samples, r.failures, r.detail) for r in results)

    def check(self, item: int, outcome: tuple) -> bool:
        return outcome == self.EXPECTED


def _products() -> "dict[tuple[UnitName, UnitName], UnitName]":
    """The full unit product table, from the three stored tables and commutativity."""
    product = {}
    for table in TABLES.values():
        for i, row in enumerate(table.row_units):
            for j, col in enumerate(table.col_units):
                product[(row, col)] = product[(col, row)] = table.cells[i][j]
    return product


class UnitTables:
    """`cli.run_tables` or `cli.run_roots`, alternating text and --machine output.

    Each block of 8 operations holds 6 table runs and 2 root runs; one of
    the table runs gets a unit map with two units swapped, whose failing
    cells are predicted from the swap.
    """

    name = "unit-tables"
    BLOCK = 8

    def __init__(self, seed: int, count: int) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        units = list(UnitName)
        self.items = []
        for _ in range(-(-count // self.BLOCK)):
            roots = {rng.randrange(0, self.BLOCK, 2), rng.randrange(1, self.BLOCK, 2)}
            tables = [i for i in range(self.BLOCK) if i not in roots]
            swapped = {rng.choice(tables)}
            for i in range(self.BLOCK):
                machine = i % 2 == 1
                if i in roots:
                    self.items.append(("roots", machine, None))
                elif i in swapped:
                    pair = tuple(u.name for u in rng.sample(units, 2))
                    self.items.append(("tables", machine, pair))
                else:
                    self.items.append(("tables", machine, None))
        del self.items[count:]
        self._maps = {item[2]: self._swap_map(item[2]) for item in self.items if item[2]}
        self._product = _products()

    @staticmethod
    def _swap_map(pair: "tuple[str, str]") -> dict:
        a, b = UnitName[pair[0]], UnitName[pair[1]]
        sigma = {a: b, b: a}
        return {u: UNIT_VALUES[sigma.get(u, u)] for u in UnitName}

    def run(self, item: tuple) -> tuple:
        func, machine, pair = item
        if func == "roots":
            return capture(cli.run_roots, machine=machine)
        return capture(cli.run_tables, machine=machine, unit_values=self._maps.get(pair))

    def check(self, item: tuple, outcome: tuple) -> bool:
        func, machine, pair = item
        status, out, err = outcome
        if err:
            return False
        if func == "roots":
            lines = out.splitlines()
            return status == 0 and (lines == _roots_machine() if machine else _roots_text_ok(lines))
        cells = self._predict(pair)
        passed = all(ok for _, _, _, _, _, ok in cells)
        if status != (0 if passed else 1):
            return False
        if machine:
            records = [
                "\t".join((t, r.label, c.label, e.label, got.label, "pass" if ok else "fail"))
                for t, r, c, e, got, ok in cells
            ]
            return out.splitlines() == records
        return _tables_text_ok(out.splitlines(), cells)

    def _predict(self, pair: "tuple[str, str] | None") -> list:
        """(table, row, col, expected, computed label, passes) for every cell.

        With units a and b swapped (sigma), a cell multiplies sigma(row) by
        sigma(col); the product p is found under the name sigma(p), and the
        cell passes when that is the expected unit.
        """
        sigma = {}
        if pair:
            a, b = UnitName[pair[0]], UnitName[pair[1]]
            sigma = {a: b, b: a}
        cells = []
        for name, table in TABLES.items():
            for i, row in enumerate(table.row_units):
                for j, col in enumerate(table.col_units):
                    expected = table.cells[i][j]
                    p = self._product[(sigma.get(row, row), sigma.get(col, col))]
                    got = sigma.get(p, p)
                    cells.append((name, row, col, expected, got, got == expected))
        return cells


def _roots_machine() -> list[str]:
    lines = [f"roots-of-nine\t#{i}\tpass" for i in range(8)]
    for tag in ("roots-of-plus-one", "roots-of-minus-one"):
        lines.extend(f"{tag}\t{u.label}\tpass" for u in UnitName)
    return lines


def _roots_text_ok(lines: list[str]) -> bool:
    plus = " ".join(u.label for u in UnitName if u in PLUS_FAMILY)
    imaginary = " ".join(u.label for u in UnitName if u in IMAGINARY_FAMILY)
    return (
        len(lines) == 11
        and lines[0] == "square roots of 9: 8/8 confirmed"
        and all(line.startswith("  m{") and line.endswith("}  ok") for line in lines[1:9])
        and lines[9] == f"square roots of 1 among the 16 units: {plus}  (ok)"
        and lines[10] == f"square roots of -1 among the 16 units: {imaginary}  (ok)"
    )


def _tables_text_ok(lines: list[str], cells: list) -> bool:
    expected: list[str] = []
    fail_prefixes = set()
    total = 0
    for name, table in TABLES.items():
        mine = [cell for cell in cells if cell[0] == name]
        by_cell = {(r, c): (got, ok) for _, r, c, _, got, ok in mine}
        header = "  x |" + "".join(f"{u.label:>4}" for u in table.col_units)
        expected += [name, header, "-" * len(header)]
        for row in table.row_units:
            shown = []
            for col in table.col_units:
                got, ok = by_cell[(row, col)]
                shown.append(f"{got.label:>3}" + ("" if ok else "!"))
            expected.append(f"{row.label:>3} | " + " ".join(shown))
        for _, r, c, e, _, ok in mine:
            if not ok:
                line = f"FAIL [{r.label} x {c.label}]: expected {e.label}, computed m{{"
                fail_prefixes.add(len(expected))
                expected.append(line)
        n_passed = sum(ok for *_, ok in mine)
        total += n_passed
        expected += [f"{name}: {n_passed}/{len(mine)} cells pass", ""]
    expected.append(f"all tables: {total}/{len(cells)} cells pass")
    if len(lines) != len(expected):
        return False
    return all(
        got.startswith(want) and got.endswith("}") if i in fail_prefixes else got == want
        for i, (got, want) in enumerate(zip(lines, expected))
    )


class EvalStream:
    """One `cli.run_eval([text])` per operation, texts from `evalgen`."""

    name = "eval-stream"

    def __init__(self, seed: int, count: int) -> None:
        generator = evalgen.Generator(seed)
        self.items = generator.cases(count)
        self.hostile = generator.hostile()
        self.float_probe = generator.float_probe()

    def run(self, case: evalgen.Case) -> tuple:
        return capture(cli.run_eval, [case.text])

    def check(self, case: evalgen.Case, outcome: tuple) -> bool:
        status, out, err = outcome
        if case.kind == "error":
            return _is_error_line(status, out, err) and case.expected in err
        if status != 0 or err or not out.endswith("\n") or out.count("\n") != 1:
            return False
        text = out[:-1]
        try:
            got = evalgen.read_output(text, case.kind)
        except ValueError:
            return False
        if not evalgen.close(got, case.expected):
            return False
        if case.kind in ("scalar", "pair", "triple", "matrix"):
            # exact results re-parse to an equal value, printed the same way
            again = expressions.eval_text(text)
            return expressions.format_value(again) == text
        return True

    def run_probes(self) -> dict:
        """Known defects, run untimed beside the operations: name -> report.

        A report is (attempted, hits, as predicted, outcomes).  Hostile
        inputs are as predicted when their known exception escapes
        run_eval (the defect today) or when they print one `error:` line
        and return 1 (what the hardening item asks for); a hit is an
        escape.  Float probes are as predicted when they print one number
        that matches the oracle (the fix) or the known defect's own value,
        computed from the exact parts; a hit is the defect's value.
        """
        escaped, predicted, shown = 0, True, []
        for text in self.hostile:
            try:
                status, out, err = capture(cli.run_eval, [text])
            except Exception as exc:  # the escape is what this probe records
                escaped += 1
                predicted = predicted and isinstance(exc, (RecursionError, ValueError))
                shown.append(type(exc).__name__)
                continue
            ok = _is_error_line(status, out, err)
            predicted = predicted and ok
            shown.append("error line" if ok else "unexpected output")
        hostile = (len(self.hostile), escaped, predicted, shown)

        missed, predicted, shown = 0, True, []
        for probe in self.float_probe:
            try:
                status, out, err = capture(cli.run_eval, [probe.text])
                if status != 0 or err or not out.endswith("\n") or out.count("\n") != 1:
                    raise ValueError(out + err)
                got = evalgen.read_output(out[:-1], "float")
            except Exception:  # any other outcome is a new fault
                predicted = False
                shown.append("unexpected output")
                continue
            if evalgen.close(got, probe.expected):
                shown.append(f"{got:.6g}, the oracle's value")
            elif evalgen.matches_defect(got, probe):
                missed += 1
                shown.append(f"{got:.6g} for {probe.expected:.6g}, the known defect's value")
            else:
                predicted = False
                shown.append(f"{got:.6g} for {probe.expected:.6g}, neither the oracle's nor the defect's value")
        return {"hostile": hostile, "float": (len(self.float_probe), missed, predicted, shown)}


def _is_error_line(status: int, out: str, err: str) -> bool:
    return status == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


WORKLOADS = {w.name: w for w in (VerifyLaws, EvalStream, UnitTables)}
# operations per pass, sized so that the three passes a run makes take 30 s or less
OPS = {"verify-laws": 24, "eval-stream": 1500, "unit-tables": 24}
