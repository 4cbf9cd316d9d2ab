"""Spans and counters around the library's public functions, for the traced run.

`Tracer.install` replaces the functions and methods listed in `SPANS` and
`COUNTS` with wrappers defined here; `uninstall` puts the originals back.
Nothing in the library changes, and the untraced run never installs a
wrapper (`assert_untraced` checks that).

Every call to a function in `SPANS` records a span (name, start, end,
parent) in memory; a span's self time is its duration minus the time its
direct child spans cover.  `ExactScalar` methods take about 10 us, so a
span each would swamp the run: they are only counted.  A seeded sample of
the operands of calls that returned, at four hot methods, is kept and
replayed untraced after the run, which prices one call on the workload's
own operand mix.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
import time

from calibration import calibration_s, scale
from signfree import cli, expressions, units, verify
from signfree.matrices import CyclicMatrix
from signfree.pairs import UnsignedPair
from signfree.scalars import ExactScalar
from signfree.triples import CyclicTriple

# span name -> (owner, attribute names sharing one function)
SPANS = {
    "pairs.mul": (UnsignedPair, ("__mul__", "__rmul__")),
    "pairs.reduce": (UnsignedPair, ("reduce",)),
    "triples.mul": (CyclicTriple, ("__mul__", "__rmul__")),
    "triples.reduce": (CyclicTriple, ("reduce",)),
    "triples.eq": (CyclicTriple, ("__eq__",)),
    "matrices.mul": (CyclicMatrix, ("__mul__", "__rmul__")),
    "matrices.eq": (CyclicMatrix, ("__eq__",)),
    "matrices.reduce": (CyclicMatrix, ("reduce",)),
    "matrices.hash": (CyclicMatrix, ("__hash__",)),
    "matrices.pow": (CyclicMatrix, ("__pow__",)),
    "matrices.norm_sq": (CyclicMatrix, ("norm_sq",)),
    "matrices.characters": (CyclicMatrix, ("characters",)),
    "units.verify_unit_table": (units, ("verify_unit_table",)),
    "units.match_unit": (units, ("match_unit",)),
    "expressions.parse": (expressions, ("parse",)),
    "expressions.kind_of": (expressions, ("kind_of",)),
    "expressions.evaluate": (expressions, ("evaluate",)),
    "expressions.format_value": (expressions, ("format_value",)),
    "verify.run_checks": (verify, ("run_checks",)),
    "cli.run_eval": (cli, ("run_eval",)),
    "cli.run_tables": (cli, ("run_tables",)),
    "cli.run_roots": (cli, ("run_roots",)),
}

# counter name -> ExactScalar methods it counts
COUNTS = {
    "scalars.mul": ("__mul__", "__rmul__"),
    "scalars.addsub": ("__add__", "__radd__", "__sub__", "__rsub__"),
    "scalars.compare": ("__eq__", "__lt__"),
    "scalars.sign": ("sign",),
}
_COUNTER_INDEX = {name: i for i, name in enumerate(COUNTS)}
_MUL = _COUNTER_INDEX["scalars.mul"]

# methods whose operands are sampled and replayed: name -> sample size
SAMPLED = {"scalars.mul": 512, "triples.mul": 256, "matrices.mul": 64, "matrices.eq": 64}
REPLAY_BUDGET_S = 0.4  # replay time per sampled method, beyond its first 3 repeats

# the call counts and self times a traced run reports
CALLS = (
    "scalars.mul", "scalars.addsub", "scalars.compare", "scalars.sign",
    "triples.mul", "triples.reduce", "triples.eq", "pairs.mul", "pairs.reduce",
    "matrices.mul", "matrices.eq", "matrices.reduce", "matrices.hash", "matrices.pow",
    "units.match_unit",
)
SELF = (
    "triples.mul", "matrices.mul", "matrices.eq", "matrices.pow", "matrices.norm_sq",
    "matrices.characters", "units.verify_unit_table", "units.match_unit",
    "expressions.parse", "expressions.kind_of", "expressions.evaluate",
    "expressions.format_value", "verify.run_checks", "cli.run_eval", "cli.run_tables",
    "cli.run_roots",
)


def _targets():
    """(owner, attribute, original) for every patched attribute.

    A module function is also patched wherever another signfree module
    (or the package) bound it by name at import time.
    """
    modules = [m for name, m in sys.modules.items() if name == "signfree" or name.startswith("signfree.")]
    out = []
    for owner, attrs in [*SPANS.values(), (ExactScalar, sum(COUNTS.values(), ()))]:
        for attr in attrs:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            out.append((owner, attr, original))
            if not isinstance(owner, type):
                out.extend(
                    (module, name, original)
                    for module in modules
                    if module is not owner
                    for name, value in vars(module).items()
                    if value is original
                )
    return out


def assert_untraced() -> None:
    """Raise if any wrapper from this module is installed."""
    for owner, attr, _ in _targets():
        if getattr(getattr(owner, attr), "__module__", "") == __name__:
            raise RuntimeError(f"{owner.__name__}.{attr} is wrapped in an untraced run")


class _Reservoir:
    """A uniform random sample of at most `size` calls (Li's algorithm L)."""

    def __init__(self, size: int, rng: random.Random) -> None:
        self.size, self.rng, self.items, self.seen = size, rng, [], 0
        self.weight = math.exp(math.log(self._u()) / size)
        self.next = size - 1 + self._skip()

    def _u(self) -> float:
        return self.rng.random() or 1e-300

    def _skip(self) -> int:
        return int(math.log(self._u()) / math.log1p(-min(self.weight, 1 - 1e-12))) + 1

    def offer(self, args: tuple) -> None:
        seen = self.seen
        self.seen = seen + 1
        if seen < self.size:
            self.items.append(args)
        elif seen == self.next:
            self.items[self.rng.randrange(self.size)] = args
            self.weight *= math.exp(math.log(self._u()) / self.size)
            self.next += self._skip()


class Tracer:
    def __init__(self, seed: int) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts = [0] * len(COUNTS)
        self.samples = {
            name: _Reservoir(size, random.Random(f"{seed}:{name}")) for name, size in SAMPLED.items()
        }
        self.originals = {}
        self._installed: list = []

    def install(self) -> None:
        wrappers = {}
        for name, (owner, attrs) in SPANS.items():
            for attr in attrs:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if original not in wrappers:
                    wrappers[original] = self._span(name, original)
                    self.originals[name] = original
        for name, attrs in COUNTS.items():
            for attr in attrs:
                original = ExactScalar.__dict__[attr]
                if original not in wrappers:
                    wrappers[original] = self._count(name, original)
                    self.originals.setdefault(name, original)
        for owner, attr, original in _targets():
            setattr(owner, attr, wrappers[original])
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _span(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        sample = self.samples[name].offer if name in self.samples else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            muls = counts[_MUL]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, counts[_MUL] - muls)
            if sample is not None:
                sample(args)  # only calls that returned are replayed
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts, index = self.counts, _COUNTER_INDEX[name]
        if name not in self.samples:
            def wrapper(*args):
                counts[index] += 1
                return fn(*args)
        else:
            sample = self.samples[name].offer

            def wrapper(*args):
                counts[index] += 1
                result = fn(*args)
                sample(args)
                return result

        return wrapper

    def replay(self, name: str) -> float:
        """Microseconds per call of the original method on the sampled operands."""
        items = self.samples[name].items
        if not items:
            return 0.0
        fn = self.originals[name]
        per_call = []
        before = calibration_s()
        stop = time.perf_counter() + REPLAY_BUDGET_S
        while len(per_call) < 3 or (time.perf_counter() < stop and len(per_call) < 25):
            start = time.perf_counter()
            for args in items:
                fn(*args)
            per_call.append((time.perf_counter() - start) / len(items))
        return scale(statistics.median(per_call), before, calibration_s()) * 1e6

    def metrics(self, untraced_s: float, traced_s: float, calibrations: "list[float]") -> "dict[str, float]":
        """Per-layer metrics from the recorded spans, counters and samples.

        Self times are scaled for host speed by the calibrations taken
        during the traced pass; replayed calls by their own.
        """
        if self._installed:
            raise RuntimeError("uninstall the wrappers before replaying operands")
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = dict.fromkeys(SPANS, 0)
        self_s: dict[str, float] = dict.fromkeys(SPANS, 0.0)
        muls_in_matrix_mul = mul_in_pow = eq_in_match = 0
        for index, (name, start, end, parent, muls) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[index]
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "matrices.mul":
                muls_in_matrix_mul += muls
                mul_in_pow += parent_name == "matrices.pow"
            elif name == "matrices.eq" and parent_name == "units.match_unit":
                eq_in_match += 1
        calls.update(zip(COUNTS, self.counts))

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {f"{name}.calls": float(calls[name]) for name in CALLS}
        out.update({f"{name}.self_s": scale(self_s[name], *calibrations) for name in SELF})
        out["scalars.mul_per_matrix_mul"] = ratio(muls_in_matrix_mul, calls["matrices.mul"])
        out["matrices.mul_per_pow"] = ratio(mul_in_pow, calls["matrices.pow"])
        out["units.match_unit.eq_per_call"] = ratio(eq_in_match, calls["units.match_unit"])
        for name in SAMPLED:
            out[f"{name}.us_per_call"] = self.replay(name)
        out["trace.overhead_ratio"] = ratio(traced_s, untraced_s)
        return out
