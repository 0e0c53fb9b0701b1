"""Shared pieces of the grainlab benchmark: spans, checked calls, statistics.

Nothing here imports grainlab, so run.py stays importable in a
checkout that lacks the program and can refuse to run there.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()
SPEED_EVERY = 0.2  # seconds of work between two samples of the machine's speed
# the speed kernel's typical time on the reference machine (2 vCPUs, Python
# 3.11); reported times are scaled to a machine running it in exactly this
SPEED_REF = 0.0005


class Tracer:
    """Spans kept in memory as [name, start, end, parent index].

    All spans of one pass share the tracer's run id.  With tracing off,
    span() hands back a shared null context and records nothing.
    """

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()


class Failed(Exception):
    """An output check did not hold."""


class Run:
    """One pass of a workload: times each call, checks its output outside
    the timed region and counts every call and every failure.

    `expected` holds values pinned from a known-good commit; with
    `pinning` set, expect() records values instead of comparing them.
    """

    def __init__(self, tracer: Tracer, expected: dict, pinning: bool = False):
        self.tr = tracer
        self.expected = expected
        self.pinning = pinning
        self.pinned: dict = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: list[float] = []  # every call's time, in call order
        # machine speed, sampled between calls at most every SPEED_EVERY
        # seconds; call i ran between speed[brackets[i]] and the next sample
        self.speed: list[float] = []
        self.brackets: list[int] = []
        self._sampled = -math.inf
        self.counters: dict[str, float] = {}

    def call(self, name: str, fn, check=None, label: str = ""):
        """Run fn() as one operation; return its result, or None if it
        raised or failed its check (both count as failed)."""
        self.attempted += 1
        if time.perf_counter() - self._sampled >= SPEED_EVERY:
            self.sample_speed()
        self.brackets.append(len(self.speed) - 1)
        start = time.perf_counter()
        try:
            with self.tr.span(name):
                result = fn()
        except Exception as exc:  # a raising operation is a failed one
            self.samples.append(time.perf_counter() - start)
            self.fail(name, label, f"raised {exc!r}")
            return None
        self.samples.append(time.perf_counter() - start)
        if check is not None:
            try:
                check(result)
            except Exception as exc:  # a broken check must not stop the pass
                self.fail(name, label, str(exc) if isinstance(exc, Failed) else f"check raised {exc!r}")
                return None
        return result

    def sample_speed(self) -> None:
        """Take a speed sample; also call it once after the last call."""
        self.speed.append(speed_sample())
        self._sampled = time.perf_counter()

    def skip(self, name: str, label: str, why: str) -> None:
        """Count an operation that could not run because its input failed."""
        self.attempted += 1
        self.fail(name, label, f"not run: {why}")

    def fail(self, name: str, label: str, why: str) -> None:
        self.failures.append(f"{name}[{label}]: {why}" if label else f"{name}: {why}")

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def expect(self, key: str, value) -> None:
        """Compare value with the pinned one (floats to 1e-9 relative)."""
        if self.pinning:
            self.pinned[key] = value
            return
        if key not in self.expected:
            raise Failed(f"no pinned value for {key}")
        want = self.expected[key]
        if not same(value, want):
            raise Failed(f"{key}: got {value!r}, pinned {want!r}")


def same(got, want) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
    if isinstance(want, (list, tuple)):
        return (
            isinstance(got, (list, tuple))
            and len(got) == len(want)
            and all(same(g, w) for g, w in zip(got, want))
        )
    return got == want


def ensure(ok: bool, message: str) -> None:
    if not ok:
        raise Failed(message)


def speed_sample() -> float:
    """Median time of a fixed pure-Python kernel: how fast the machine
    itself runs at this moment (about 0.5 ms per repeat)."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc, seen = 0, {}
        for i in range(3000):
            acc += (i * i) ^ (i >> 3)
            seen[i & 1023] = acc
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# statistics and span analysis
# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median_of_calls(passes: list[list[float]]) -> float:
    """Sum over calls of each call's median time across passes.

    Every pass makes the same calls in the same order, so call i of one
    pass is a repeat of call i of every other; a slow spell of the machine
    that hits one pass's call is outvoted by the other passes.
    """
    return sum(statistics.median(times) for times in zip(*passes))


def at_reference_speed(res: dict) -> list[float]:
    """A pass's call times scaled to the reference speed.

    A shared machine runs the same code up to twice as slowly in some
    minutes as in others.  Each call's clock time is multiplied by
    SPEED_REF over the mean of the speed samples taken just before and
    just after it, so a slow spell of the machine cancels out while a
    change in the program's own cost does not.
    """
    speed = res["speed"]
    return [
        t * 2 * SPEED_REF / (speed[b] + speed[b + 1])
        for t, b in zip(res["samples"], res["brackets"])
    ]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def self_times(spans: list[list]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus the time its
    direct children cover, summed by layer (the name up to the first dot)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), covered in zip(spans, child_time):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - covered
    return out


def durations(spans: list[list], name: str) -> list[float]:
    return [end - start for n, start, end, _ in spans if n == name]
