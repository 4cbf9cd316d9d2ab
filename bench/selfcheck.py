"""Check that the benchmark is deterministic in its seed.

    python3 bench/selfcheck.py [--workload NAME ...]

For each workload, two traced runs with SEED must agree exactly on the
input digest, the output digest, every `*.calls` count and
`scalars.mul_per_matrix_mul`, and a run with OTHER_SEED must see
different inputs.  Prints one line per workload and exits 0 only when all hold.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

SEED, OTHER_SEED = 1, 2


def traced_info(workload: str, seed: int) -> dict:
    """The `# info` records of one traced run, merged."""
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run failed: {proc.stderr.strip()[-2000:]}")
    info = {}
    for line in proc.stdout.splitlines():
        if line.startswith("# info "):
            info.update(json.loads(line[len("# info "):]))
    if not json.loads(proc.stdout.strip().splitlines()[-1])["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    return info


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or run.WORKLOADS:
        first, again = traced_info(workload, SEED), traced_info(workload, SEED)
        other = traced_info(workload, OTHER_SEED)
        problems = [key for key in ("input_digest", "output_digest", "calls") if first[key] != again[key]]
        if other["input_digest"] == first["input_digest"]:
            problems.append(f"seed {OTHER_SEED} gives the same inputs")
        ok = ok and not problems
        print(f"{workload}: {'ok' if not problems else 'MISMATCH ' + ', '.join(problems)}"
              f" ({len(first['calls'])} counts compared)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
