"""A fixed reference loop that measures the machine's current speed.

On a shared host the same unit of work runs 20-40 % slower for minutes at a
time while other tenants load the physical cores, and the run-to-run spread
of raw trials per second is far wider than any useful regression bound.
Timing this loop next to every unit and scaling by it cancels most of that
drift. The loop mixes the three kinds of work matsec does, and slows down
with them: interpreter-bound union-find walks and dict/set updates, frozen
dataclass and frozenset allocation, and small numpy calls (the schedule
draw's random/argsort/dict pattern). Each kind alone tracks some workloads
worse than the mix does.

The loop shares the interpreter with matsec, so a change to interpreter-wide
state (GC settings, a trace or profile hook, the switch interval) would
slow or speed both alike and hide itself. `Calibration` therefore refuses
to measure once that state differs from what it was before matsec loaded.
"""

from __future__ import annotations

import gc
import sys
import time
from dataclasses import dataclass

# The loop's duration on the machine that the normalized metrics are
# expressed for: a normalized rate is the rate this machine would show if
# the loop took exactly this long.
NOMINAL_S = 0.020


class CalibrationError(RuntimeError):
    """The reference loop can no longer measure the machine alone."""


@dataclass(frozen=True)
class _Record:
    key: int
    time: float
    tag: str
    flag: bool


def _interpreter_work() -> int:
    parent = list(range(512))
    pairs = {}
    seen = set()
    for i in range(5000):
        a, b = (i * 7919) % 512, (i * 104729) % 512
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[b] = a
        pairs[(a, b)] = i
        seen.add(i % 997)
    total = 0
    text = {}
    for i in range(12000):
        text[i & 255] = i
        total += len(str(i)) + text.get(i & 127, 0) % 3
    return max(pairs.values()) + len(seen) + total


def _allocation_work() -> int:
    records = []
    sets = set()
    for i in range(3000):
        sets.add(frozenset((i % 13, i % 7, i % 5)))
        records.append(_Record(i, i * 0.5, "x", i & 1 == 0))
    by_key = {r.key: r for r in records}
    return len(sorted(by_key, key=lambda k: -k)) + len(sets)


def _numpy_work() -> int:
    import numpy as np     # late: a set-up probe must not import numpy before matsec
    rng = np.random.default_rng(np.random.SeedSequence((1, 2)))
    total = 0
    for _ in range(60):
        times = rng.random(200)
        order = tuple(int(j) for j in np.argsort(times, kind="stable"))
        total += order[0] + len({j: float(times[j]) for j in range(200)})
    return total


def reference_loop() -> int:
    return _interpreter_work() + _allocation_work() + _numpy_work()


def _interpreter_state() -> tuple:
    return (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count(),
            sys.getswitchinterval(), sys.gettrace(), sys.getprofile())


class Calibration:
    """Create before importing matsec; call `factor()` next to each unit."""

    def __init__(self):
        self._state = _interpreter_state()

    def loop_s(self) -> float:
        if _interpreter_state() != self._state:
            raise CalibrationError("interpreter-wide state changed since start-up; "
                                   "the reference loop no longer measures the machine alone")
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0

    def factor(self) -> float:
        """How much slower than nominal the machine is right now."""
        return self.loop_s() / NOMINAL_S
