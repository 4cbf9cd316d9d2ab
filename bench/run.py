"""The signfree benchmark: one command, every metric, every output checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see bench/spec.json):
verify-laws, eval-stream and unit-tables.  Each is a closed loop with one
client; every operation runs serially in a fresh single-threaded worker
process (bench/worker.py), which imports the library from `src/`.

A run works on a fixed list of operations made from the seed, as many
as OPS in bench/workloads.py gives the workload.  --trace 0 measures the
end-to-end metrics: it runs the whole list once per worker process, in
at least MIN_PASSES processes one after another and in as many more as
fit in S seconds, and an operation's latency is its median over the
passes.  As each pass is a fresh process, no cache inside the library
can serve a repeat.  Set-up time is the median over the passes and the
SETUP_PROBES processes that only set up before each pass, so that its
samples spread over the whole run.
Every time is scaled for host speed (calibration.py); a `# uncorrected`
line shows the raw figures.  Workers run with `python3 -S`: the library
needs nothing from site-packages, and site processing only adds noise.

--trace 1 runs the same list untraced and then with wrappers around the
library's public functions (bench/tracing.py), and reports the per-layer
metrics; call counts repeat exactly for a seed.  It runs the list once
each way whatever --seconds says.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; lines before it starting with `#`
describe the run.  Exits non-zero without a result when the library is
missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REF_PROCESS_S, process_calibration_s, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-laws", "eval-stream", "unit-tables")
MIN_PASSES = 3
SETUP_PROBES = 2  # set-up-only processes before each pass, for a steadier setup_s
WORKER_TIMEOUT_S = 150
# known defects the eval-stream workers probe untimed: name -> (what a hit is, where it is tracked)
PROBES = {
    "hostile": ("escaped cli.run_eval", 'ROADMAP.md, open item "Hostile-input hardening of eval/repl"'),
    "float": ("printed the known defect's value, not the oracle's",
              'bench/spec.json, "float_probe": ExactScalar.__float__ rounds q and r*sqrt3 apart'),
}


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run one worker to completion and return its JSON result.

    The result gains `setup_s`, the time from the spawn to the worker's
    `ready`, scaled by reference processes run just before and after
    the worker, and `raw_setup_s`, the same unscaled.
    """
    command = [sys.executable, "-S", str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode]
    env = dict(os.environ, PYTHONHASHSEED="0")
    before = process_calibration_s()
    started = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    after = process_calibration_s()
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["raw_setup_s"] = result["ready"] - started
    result["setup_s"] = scale(result["raw_setup_s"], before, after, reference=REF_PROCESS_S)
    return result


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    begin = time.monotonic()
    probes, passes = [], []
    longest = 0.0
    # start another pass only while it should still end within the budget
    while len(passes) < MIN_PASSES or time.monotonic() + longest - begin <= seconds:
        started = time.monotonic()
        probes.extend(spawn(workload, seed, "probe") for _ in range(SETUP_PROBES))
        passes.append(spawn(workload, seed, "pass"))
        longest = max(longest, time.monotonic() - started)
    setups = [p["setup_s"] for p in probes + passes]
    raw_setup = statistics.median(p["raw_setup_s"] for p in probes + passes)

    latency = [statistics.median(times) for times in zip(*(p["latencies"] for p in passes))]
    failed = sum(len(p["failed"]) for p in passes)
    consistent = len({(p["input_digest"], p["output_digest"]) for p in passes}) == 1
    describe(f"{workload} seed={seed}: {len(latency)} operations x {len(passes)} passes,"
             f" {len(latency) // 10} above latency_p90_ms", passes[0])
    probes_ok = all(report[2] for p in passes for report in p["probes"].values())
    for p in passes:
        if p["first_failure"]:
            print(f"# failure: {p['first_failure']}", file=sys.stderr)
    if not consistent:
        print("# passes over the same operations printed different outputs", file=sys.stderr)
    p90 = statistics.quantiles(latency, n=10)[8]
    raw = [statistics.median(times) for times in zip(*(p["raw_latencies"] for p in passes))]
    print(f"# uncorrected for host speed: setup_s {raw_setup:.4g}, ops_per_s {len(raw) / sum(raw):.4g},"
          f" latency_p50_ms {statistics.median(raw) * 1e3:.4g},"
          f" latency_p90_ms {statistics.quantiles(raw, n=10)[8] * 1e3:.4g}")
    return {
        "correct": not failed and consistent and probes_ok,
        "attempted": len(latency) * len(passes),
        "failed": failed,
        "metrics": {
            "setup_s": metric(statistics.median(setups), "s"),
            "ops_per_s": metric(len(latency) / sum(latency), "1/s"),
            "latency_p50_ms": metric(statistics.median(latency) * 1e3, "ms"),
            "latency_p90_ms": metric(p90 * 1e3, "ms"),
            "peak_rss_mb": metric(max(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
        },
    }


def describe(what: str, result: dict) -> None:
    """Print what the run was, as `#` lines before the result."""
    print(f"# {what}; closed loop, 1 client")
    print("# info " + json.dumps({"input_digest": result["input_digest"],
                                  "output_digest": result["output_digest"]}))
    for name, (attempted, hits, _, shown) in result["probes"].items():
        hit, see = PROBES[name]
        print(f"# {name} probes (not timed, not in `failed`): {hits} of {attempted} {hit}"
              f" ({'; '.join(shown)}); see {see}")


def traced(workload: str, seed: int) -> dict:
    result = spawn(workload, seed, "trace")
    same = result["traced_output_digest"] == result["output_digest"]
    if not same:
        print("# traced outputs differ from untraced outputs", file=sys.stderr)
    if result["first_failure"]:
        print(f"# failure: {result['first_failure']}", file=sys.stderr)
    attempted = len(result["latencies"])
    describe(f"{workload} seed={seed}: {attempted} operations, untraced then traced", result)
    probes_ok = all(report[2] for report in result["probes"].values())
    values = result["metrics"]
    calls = {k: v for k, v in values.items() if k.endswith(".calls") or k == "scalars.mul_per_matrix_mul"}
    print("# info " + json.dumps({"calls": calls}, sort_keys=True))
    return {
        "correct": not result["failed"] and same and probes_ok,
        "attempted": attempted,
        "failed": len(result["failed"]),
        "metrics": {name: metric(value, _unit(name)) for name, value in values.items()},
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith((".calls", "_escapes", "_misses")):
        return "count"
    return "ratio"


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "signfree" / "__init__.py").is_file():
        print(f"error: no library at {ROOT / 'src' / 'signfree'}; run from a signfree checkout",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            result = traced(args.workload, args.seed)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
