"""One fresh benchmark process: set up a workload, run it, print one JSON line.

    python3 bench/worker.py --workload NAME --seed N --mode MODE

Modes:
  probe  -- set up (import signfree, generate the workload's OPS inputs) and stop;
  pass   -- run every operation once, closed loop, checking every output;
  trace  -- run the operations untraced and then traced, and report the
            per-layer metrics.

`ready` in the output is `time.monotonic()` when set-up ended; the parent
compares it with its own clock reading from just before the spawn.

Every latency is reported raw and scaled for host speed (calibration.py),
by the mean of the calibrations taken just before and just after it; one
is taken right after set-up and then every CALIBRATE_EVERY_S.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from calibration import calibration_s, scale

ROOT = Path(__file__).resolve().parent.parent
CALIBRATE_EVERY_S = 0.05


def _import_library():
    """Import signfree from this checkout's `src`, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import signfree

    if Path(signfree.__file__).resolve().parent != src / "signfree":
        raise SystemExit(f"signfree was imported from {signfree.__file__}, not from {src}")


def _digest(items) -> str:
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode())
    return digest.hexdigest()


def run_ops(workload, check: bool = True) -> dict:
    """Closed loop, one client: each operation starts when the last one ends.

    Only the call itself is timed; an output is checked between operations.
    """
    latencies, failed, outcomes = [], [], []
    calibrations = [(time.perf_counter(), calibration_s())]  # (when, seconds)
    calibration_of = []  # index into calibrations of the last one before each op
    first_failure = None
    clock = time.perf_counter
    for i, item in enumerate(workload.items):
        if clock() - calibrations[-1][0] >= CALIBRATE_EVERY_S:
            calibrations.append((clock(), calibration_s()))
        calibration_of.append(len(calibrations) - 1)
        start = clock()
        try:
            outcome = workload.run(item)
        except Exception as exc:  # an escaped exception is a failed operation
            outcome = ("raised", type(exc).__name__, str(exc)[:200])
            ok = False
        else:
            ok = None
        latencies.append(clock() - start)
        if check and ok is None:
            ok = workload.check(item, outcome)
        if ok is False:
            failed.append(i)
            first_failure = first_failure or f"op {i}: {item!r} -> {outcome!r}"[:2000]
        outcomes.append(outcome)
    calibrations.append((clock(), calibration_s()))
    scaled = [
        scale(t, calibrations[k][1], calibrations[k + 1][1]) for t, k in zip(latencies, calibration_of)
    ]
    return {
        "latencies": scaled,
        "calibrations_s": [seconds for _, seconds in calibrations],
        "raw_latencies": latencies,
        "failed": failed,
        "first_failure": first_failure,
        "output_digest": _digest(outcomes),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "pass", "trace"), required=True)
    args = parser.parse_args(argv)

    _import_library()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.OPS[args.workload])
    ready = time.monotonic()
    result = {"ready": ready, "input_digest": _digest(workload.items)}
    if args.mode == "probe":
        print(json.dumps(result))
        return 0

    import tracing

    if args.mode == "pass":
        tracing.assert_untraced()
        result.update(run_ops(workload))
    else:
        untraced = run_ops(workload)
        tracer = tracing.Tracer(args.seed)
        tracer.install()
        try:
            traced = run_ops(workload, check=False)
        finally:
            tracer.uninstall()
        result.update(untraced)
        result["traced_output_digest"] = traced["output_digest"]
        result["metrics"] = tracer.metrics(
            sum(untraced["latencies"]), sum(traced["latencies"]), traced["calibrations_s"]
        )
    probes = workload.run_probes() if hasattr(workload, "run_probes") else {}
    result["probes"] = probes
    if args.mode == "trace":
        for name, metric in (("hostile", "cli.run_eval.hostile_escapes"), ("float", "cli.run_eval.float_misses")):
            result["metrics"][metric] = float(probes[name][1]) if name in probes else 0.0
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
