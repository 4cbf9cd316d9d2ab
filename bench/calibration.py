"""Host-speed calibration shared by every timed part of the benchmark.

On a shared 2-vCPU virtual machine, other tenants slowed this code by up
to 2x for stretches of 5-30 s, which no statistic over one run removes.
A fixed workload of stdlib Fraction arithmetic (the kind of work the
library does, but none of its code) slows in step with the library:
while raw matrix products varied 2x, their ratio to this workload stayed
within +-2%.  Timings are therefore reported scaled to a host on which
`calibration_s()` returns REF_CALIBRATION_S.

Starting a process and importing modules do not slow in step with that
workload, so set-up times are scaled instead by a reference process: a
fresh interpreter that imports the stdlib modules the benchmark's
worker imports itself, but not the library.  Set-up times are reported
for a host on which `process_calibration_s()` returns REF_PROCESS_S.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

REF_CALIBRATION_S = 1e-3
REF_PROCESS_S = 0.05
_REFERENCE_PROCESS = [
    sys.executable, "-S", "-c",
    "import argparse, contextlib, fractions, hashlib, io, json, pathlib, random, re, resource, subprocess, typing",
]
_VALUES = [Fraction(i % 17 + 1, i % 13 + 2) for i in range(40)]


def calibration_s() -> float:
    """Best of three timings of the fixed Fraction workload (about 1 ms)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = Fraction(0)
        for a in _VALUES:
            for b in _VALUES[:8]:
                total = total + a * b
        best = min(best, time.perf_counter() - start)
    return best


def process_calibration_s() -> float:
    """Wall time of one run of the reference process, from spawn to exit."""
    start = time.perf_counter()
    subprocess.run(_REFERENCE_PROCESS, check=True, capture_output=True)
    return time.perf_counter() - start


def scale(seconds: float, *calibrations: float, reference: float = REF_CALIBRATION_S) -> float:
    """`seconds` on the reference host, given calibrations taken around it."""
    return seconds * reference * len(calibrations) / sum(calibrations)
