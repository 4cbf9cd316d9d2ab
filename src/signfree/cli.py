"""Command-line front end: expression evaluator plus verification commands.

Subcommands:

* ``eval``   -- evaluate expressions given as arguments (or stdin lines);
* ``repl``   -- interactive evaluator loop;
* ``tables`` -- recompute all three 8x8 unit tables (192 cells) and
  compare each cell exactly; exit 0 only on a perfect score;
* ``verify`` -- seeded property checks of every algebraic invariant;
* ``roots``  -- confirm the eight square roots of 9 and locate the
  square roots of +1 and -1 among the sixteen named units.

``--machine`` switches reports to tab-separated records, one per item,
each formatted by `_record`, or for ``tables`` a fixed opening, the
cell's value and its mark.  The ``tables``, ``verify`` and ``roots``
reports collect their lines and write them with one `write` call.
``tables`` and ``roots`` compare matrix classes by their equality keys
(`_key`), with no `==`, each key computed once.  The ``tables`` text
that no computed cell changes (each grid's name, header and rule lines,
each row's opening, each unit's grid entry and each cell's ``--machine``
record up to its value) is built once at import, in `_TABLE_TEXT` and
`_GRID_ENTRY`, so a report adds only what its cells computed, in one
walk over them.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Mapping

from . import expressions, units, verify
from .matrices import CyclicMatrix
from .units import (
    IMAGINARY_FAMILY,
    NINE,
    PLUS_FAMILY,
    ROOTS_OF_NINE,
    TABLE_IDS,
    UnitName,
    unit_value,
)

__all__ = ["main", "main_entry", "run_tables", "run_verify", "run_roots"]


def _error(message: object) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _eval_line(text: str) -> int:
    try:
        value = expressions.eval_text(text)
    except (ValueError, ZeroDivisionError) as exc:
        return _error(exc)
    except RecursionError:  # parsing and evaluation recurse once per level of nesting
        return _error("expression nested too deeply")
    except OverflowError:  # a float view (norm, tocomplex, chars) of a value past float range
        return _error("value too large for a float")
    try:
        shown = expressions.format_value(value)
    except ValueError:  # an int past the interpreter's int-to-str digit limit
        return _error("result too large to print")
    print(shown, flush=True)  # out before the next text is read, as stdin may stay open
    return 0


def run_eval(texts: Iterable[str]) -> int:
    status = 0
    for text in texts:
        text = text.strip()
        if not text:
            continue
        status |= _eval_line(text)
    return status


def run_repl() -> int:
    print("sign-free calculator; type an expression, or 'quit' to leave")
    while True:
        try:
            line = input("> ")
        except EOFError:
            print()
            return 0
        line = line.strip()
        if not line:
            continue
        if line.lower() in ("quit", "exit"):
            return 0
        _eval_line(line)


def _record(*fields: str, passed: bool) -> str:
    """One --machine record: the fields tab-joined, then `pass` or `fail`."""
    return "\t".join([*fields, "pass" if passed else "fail"])


def _write(lines: "list[str]") -> None:
    """A report's lines, each ended by a newline, in one write."""
    sys.stdout.write("\n".join(lines) + "\n")


# each unit's grid entry, and "  ?" for an unnamed product
_GRID_ENTRY = {None: "  ?", **{unit: f"{unit.label:>3}" for unit in UnitName}}


def _fixed_text(table: units.Table) -> "tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]":
    """A table's name, header and rule lines, each row's opening, and each
    cell's --machine record up to its value, in cell order."""
    header = "  x |" + "".join(f"{unit.label:>4}" for unit in table.col_units)
    head = (table.name, header, "-" * len(header))
    openings = tuple(f"{row.label:>3} | " for row in table.row_units)
    records = tuple(
        f"{table.name}\t{row.label}\t{col.label}\t{expected.label}\t"
        for row, expected_row in zip(table.row_units, table.cells)
        for col, expected in zip(table.col_units, expected_row)
    )
    return head, openings, records


_TABLE_TEXT = {which: _fixed_text(table) for which, table in units.TABLES.items()}


def _grid_lines(report: units.TableReport, lines: "list[str]") -> int:
    """Append a table's grid, its FAIL lines and its count line to `lines`,
    walking the cells once; return the number of cells that pass."""
    head, openings, _ = _TABLE_TEXT[report.table]
    lines += head
    cells = report.cells
    columns = len(cells) // len(openings)
    failures = []
    for start, opening in zip(range(0, len(cells), columns), openings):
        shown = []
        for cell in cells[start : start + columns]:
            entry = _GRID_ENTRY[cell.computed_name]
            if not cell.passed:
                entry += "!"
                failures.append(cell)
            shown.append(entry)
        lines.append(opening + " ".join(shown))
    for row, col, expected, computed, _, _ in failures:
        lines.append(f"FAIL [{row.label} x {col.label}]: expected {expected.label}, computed {computed.reduce()}")
    n_passed = len(cells) - len(failures)
    lines.append(f"{report.table}: {n_passed}/{len(cells)} cells pass")
    return n_passed


def run_tables(
    machine: bool = False,
    unit_values: "Mapping[UnitName, CyclicMatrix] | None" = None,
) -> int:
    """Print the three tables' reports and return 0 when every cell passes.

    `unit_values` substitutes the constants as in `units.verify_unit_table`,
    which rejects a malformed map with an exception before anything is
    printed; a wrong matrix only fails its cells."""
    lines: list[str] = []
    total = passed = 0
    for which in TABLE_IDS:
        report = units.verify_unit_table(which, unit_values)
        total += len(report.cells)
        if machine:
            records = _TABLE_TEXT[which][2]
            for record, (_, _, _, computed, name, good) in zip(records, report.cells):
                shown = name.label if name else str(computed.reduce())
                lines.append(record + shown + ("\tpass" if good else "\tfail"))
                passed += good
        else:
            passed += _grid_lines(report, lines)
            lines.append("")
    if not machine:
        lines.append(f"all tables: {passed}/{total} cells pass")
    _write(lines)
    return 0 if passed == total else 1


def run_verify(samples: int, seed: int, machine: bool = False) -> int:
    results = verify.run_checks(samples=samples, seed=seed)
    lines = []
    for result in results:
        if machine:
            lines.append(_record(result.name, str(result.samples), str(result.failures), passed=result.passed))
        elif result.passed:
            lines.append(f"PASS {result.name} ({result.samples} samples)")
        else:
            lines.append(f"FAIL {result.name} ({result.failures}/{result.samples} failed): {result.detail}")
    n_passed = sum(result.passed for result in results)
    if not machine:
        lines.append(f"{n_passed}/{len(results)} checks pass")
    _write(lines)
    return 0 if n_passed == len(results) else 1


def run_roots(machine: bool = False) -> int:
    # classes compared by their equality keys, each key computed once
    nine = NINE._key()
    squares = [candidate * candidate for candidate in ROOTS_OF_NINE]
    confirmed = [square._key() == nine for square in squares]
    ok = all(confirmed)
    if machine:
        lines = [_record("roots-of-nine", f"#{index}", passed=good) for index, good in enumerate(confirmed)]
    else:
        lines = [f"square roots of 9: {sum(confirmed)}/{len(ROOTS_OF_NINE)} confirmed"]
        for candidate, square, good in zip(ROOTS_OF_NINE, squares, confirmed):
            lines.append(f"  {candidate} ^2 -> {square.reduce()}  {'ok' if good else 'FAIL'}")

    square_keys = {unit: (unit_value(unit) * unit_value(unit))._key() for unit in UnitName}
    for family, target_name, tag in (
        (PLUS_FAMILY, UnitName.ONE, "roots-of-plus-one"),
        (IMAGINARY_FAMILY, UnitName.NEG1, "roots-of-minus-one"),
    ):
        target = unit_value(target_name)._key()
        # each root named by its own unit: the sixteen units are pairwise unequal
        found_names = {unit for unit, key in square_keys.items() if key == target}
        family_ok = found_names == set(family)
        ok = ok and family_ok
        if machine:
            for unit in UnitName:
                lines.append(_record(tag, unit.label, passed=(unit in family) == (unit in found_names)))
        else:
            labels = " ".join(unit.label for unit in UnitName if unit in found_names)
            lines.append(
                f"square roots of {target_name.label} among the 16 units: {labels}"
                f"  ({'ok' if family_ok else 'FAIL: unexpected set'})"
            )
    _write(lines)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signfree",
        description=(
            "Exact calculator for sign-free number systems: pairs p{..,..},"
            " triples t{..,..,..} and 3x3 matrices m{[..];[..];[..]} over"
            " Q(sqrt 3), with the sixteen named unit constants"
            f" ({' '.join(unit.name for unit in UnitName)}"
            f" for {' '.join(unit.label for unit in UnitName)})."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate expressions (arguments or stdin lines)")
    p_eval.add_argument("expressions", nargs="*", help="expressions; stdin is read if omitted")

    sub.add_parser("repl", help="interactive evaluator")

    p_tables = sub.add_parser("tables", help="verify all three 8x8 unit multiplication tables")
    p_tables.add_argument("--machine", action="store_true", help="tab-separated records")

    p_verify = sub.add_parser("verify", help="seeded property checks of all invariants")
    p_verify.add_argument(
        "--samples",
        type=int,
        default=1000,
        help="pair/triple sample count; matrix laws run at half, rotation"
        " zeros at a tenth per zero (default 1000)",
    )
    p_verify.add_argument("--seed", type=int, default=42, help="random seed (default 42)")
    p_verify.add_argument("--machine", action="store_true", help="tab-separated records")

    p_roots = sub.add_parser("roots", help="confirm the square-root families")
    p_roots.add_argument("--machine", action="store_true", help="tab-separated records")

    return parser


def _stdin() -> Iterable[str]:
    """`sys.stdin`, set to read an undecodable byte as a lone surrogate (as
    the C locale does), so that its line ends in an `error:` line, not a traceback."""
    reconfigure = getattr(sys.stdin, "reconfigure", None)  # a stand-in stream may have none
    if reconfigure is not None:
        reconfigure(errors="surrogateescape")
    return sys.stdin


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval":
        return run_eval(args.expressions or _stdin())  # stdin line by line: an endless one is answered
    if args.command == "repl":
        _stdin()
        return run_repl()
    if args.command == "tables":
        return run_tables(machine=args.machine)
    if args.command == "verify":
        if args.samples <= 0:
            parser.error("--samples must be positive")
        return run_verify(samples=args.samples, seed=args.seed, machine=args.machine)
    if args.command == "roots":
        return run_roots(machine=args.machine)
    raise AssertionError(f"unhandled command {args.command!r}")


def main_entry() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout, as `signfree eval | head` does
        # stdout to /dev/null, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except KeyboardInterrupt:  # Ctrl-C: 128 + SIGINT, the status a shell gives an interrupted command
        sys.exit(130)
    sys.exit(status)
