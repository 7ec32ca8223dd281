"""Continuous-arrival simulation: schedules, the trial harness, and traces.

Each element of an instance draws an arrival time uniformly in [0, 1).
Arrivals strictly before the sampling cutoff p are the sample: the policy's
start() gets them as one tuple in arrival order, and none is ever accepted.
The rest are live decisions, one decide() each. The harness re-checks
independence of the accepted set after every acceptance and raises instead
of repairing, so a buggy policy fails loudly.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, TextIO

import numpy as np

from .matroid import AcceptedSetTracker, DomainError, MatroidView, WeightedGroundSet
from .policies import build_policy, running_mwb

PHASE_SAMPLE = "sample"
PHASE_LIVE = "live"


class HarnessViolation(RuntimeError):
    """A policy accepted an element that makes the accepted set dependent."""


@dataclass(frozen=True, eq=False)
class ArrivalSchedule:
    order: tuple                # element ids sorted by (time, id)
    arrival: tuple              # arrival[i] is order[i]'s time in [0, 1]

    @cached_property
    def times(self) -> MappingProxyType:
        """Read-only element id -> arrival time, built on first use."""
        return MappingProxyType(dict(zip(self.order, self.arrival)))

    def first_live(self, p: float) -> int:
        """Index in order of the first live arrival: samples arrive strictly
        before p, so an arrival at exactly p is live."""
        return bisect_left(self.arrival, p)


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Stream for one trial, addressable by (seed, index) so trials give the
    same answers whatever order they run in."""
    return np.random.default_rng(np.random.SeedSequence((seed, trial_index)))


def draw_schedule(ground: WeightedGroundSet, rng: np.random.Generator) -> ArrivalSchedule:
    times = rng.random(ground.count)
    # stable argsort breaks (measure-zero) time collisions by element id
    idx = np.argsort(times, kind="stable")
    return ArrivalSchedule(tuple(idx.tolist()), tuple(times[idx].tolist()))


def forced_schedule(assignments: Iterable[tuple[int, float]]) -> ArrivalSchedule:
    """Schedule with exactly the given (element, time) pairs; times must be
    distinct and in [0, 1]."""
    times = {}
    for u, t in assignments:
        if u in times:
            raise ValueError(f"element {u} assigned twice")
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"time {t} outside [0, 1]")
        times[int(u)] = float(t)
    if len(set(times.values())) != len(times):
        raise ValueError("forced schedules need distinct times")
    order = tuple(sorted(times, key=times.__getitem__))
    return ArrivalSchedule(order, tuple(times[u] for u in order))


@dataclass(frozen=True)
class DecisionRecord:
    element: int
    time: float
    phase: str                  # "sample" or "live"
    accepted: bool
    in_current_mwb: bool        # u in MWB(arrived-so-far + u), harness-computed
    kicked: int | None = None
    kicked_was_sample: bool | None = None

    def to_json_obj(self) -> dict:
        return {
            "element": self.element,
            "time": self.time,
            "phase": self.phase,
            "accepted": self.accepted,
            "inCurrentMwb": self.in_current_mwb,
            "kicked": self.kicked,
            "kickedWasSample": self.kicked_was_sample,
        }

    @classmethod
    def from_json_obj(cls, obj) -> "DecisionRecord":
        """The record a to_json_obj dict describes (kicked and kickedWasSample
        may be left out); raises ValueError for anything else."""
        if not isinstance(obj, dict):
            raise ValueError("a record must be a JSON object")
        missing = [k for k in ("element", "time", "phase", "accepted", "inCurrentMwb")
                   if k not in obj]
        if missing:
            raise ValueError(f"record lacks key {missing[0]!r}")
        flags = obj["accepted"], obj["inCurrentMwb"]
        if not all(isinstance(f, bool) for f in flags):
            raise ValueError("accepted and inCurrentMwb must be JSON booleans")
        return cls(int(obj["element"]), float(obj["time"]), obj["phase"], *flags,
                   obj.get("kicked"), obj.get("kickedWasSample"))


@dataclass(frozen=True, eq=False)
class DecisionTrace:
    """One trial's outcome. records is empty when the trial ran with
    record=False (bulk Monte Carlo); accepted/sample_set/schedule are
    always populated."""

    records: tuple
    accepted: frozenset
    sample_set: frozenset
    schedule: ArrivalSchedule


def check_cutoff(p: float) -> None:
    """The one rule on a sampling cutoff: p lies in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"sampling cutoff p={p} outside [0, 1]")


def run_trial(policy, view: MatroidView, weights: WeightedGroundSet,
              schedule: ArrivalSchedule, p: float, *, record: bool = True) -> DecisionTrace:
    """Deliver one schedule to a fresh (or reset) policy: the sample to
    start(), then each live arrival to decide()."""
    check_cutoff(p)
    order = schedule.order
    if len(order) != len(view.ground) or set(order) != view.ground:
        raise DomainError("schedule must cover exactly the effective ground set")
    policy = build_policy(policy)
    m = schedule.first_live(p)
    policy.start(view, weights, order[:m])
    decide, add = policy.decide, AcceptedSetTracker(view).add
    accepted, decisions = [], []
    for u in order[m:]:
        d = decide(u)
        if d.accept:
            if not add(u):
                raise HarnessViolation(
                    f"policy {policy.name!r} accepted element {u} but the "
                    f"accepted set would become dependent")
            accepted.append(u)
        decisions.append(d)
    records = ()
    if record:      # in_current_mwb comes from the harness's own running basis
        insert, arrival = running_mwb(view, weights).insert, schedule.arrival
        records = tuple([DecisionRecord(u, t, PHASE_SAMPLE, False, insert(u)[0])
                         for u, t in zip(order[:m], arrival)]
                        + [DecisionRecord(u, t, PHASE_LIVE, d.accept, insert(u)[0],
                                          d.kicked, d.kicked_was_sample)
                           for u, t, d in zip(order[m:], arrival[m:], decisions)])
    return DecisionTrace(records, frozenset(accepted), frozenset(order[:m]), schedule)


def trial_stream(policy, view: MatroidView, weights: WeightedGroundSet,
                 p: float, trials: int, seed: int, *,
                 record: bool = False) -> Iterator[DecisionTrace]:
    """One trace per trial; trial i always consumes trial_rng(seed, i)'s stream."""
    policy = build_policy(policy)
    for rng in _trial_rngs(seed, trials):
        yield run_trial(policy, view, weights, draw_schedule(weights, rng), p, record=record)


# -- trial seeds in blocks -----------------------------------------------------
# trial_rng(seed, i) is default_rng(SeedSequence((seed, i))). _trial_rngs gives
# the same streams without building a SeedSequence and a PCG64 per trial: it
# runs SeedSequence's pool hash over a block of indices at once (the hash
# constants do not depend on the data, so numpy uint32 arithmetic does it), then
# PCG64's seeding step per trial, and sets the state of one reused generator.

_SEED_BLOCK = 1024
_M32, _M128 = 0xFFFFFFFF, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list:
    """n >= 0 as SeedSequence splits it: 32-bit words, least significant first."""
    words = [n & _M32]
    while n >> 32:
        n >>= 32
        words.append(n & _M32)
    return words


def _hasher(h: int, mult: int):
    """SeedSequence's hashmix with its running constant; takes ints or uint32 arrays."""
    def hashmix(v):
        nonlocal h
        v = v ^ h
        h = h * mult & _M32
        v = v * h & _M32
        return v ^ v >> 16
    return hashmix


def _mix(x, y):
    r = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return r ^ r >> 16


def _pcg64_states(seed_words: list, start: int, count: int) -> Iterator[dict]:
    """PCG64 state of trial_rng(seed, i) for i in [start, start + count), a
    range that must not cross a multiple of 2**32, so every i splits into as
    many words; seed_words is _words(seed)."""
    low = np.arange(start & _M32, (start & _M32) + count, dtype=np.uint32)
    entropy = seed_words + [low] + _words(start)[1:]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[k] if k < len(entropy) else 0) for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)     # generate_state(4, np.uint64)
    words = np.stack([hashmix(pool[k % 4]) for k in range(8)], axis=1)
    for s_hi, s_lo, q_hi, q_lo in words.astype("<u4").view("<u8").tolist():
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _M128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _M128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


@cache
def _block_seeding_matches() -> bool:
    """Once per process: does the derivation still agree with this numpy's?"""
    seed, i = 2**96 + 12345, 2**32 + 7      # 6 entropy words: pool and tail mixing
    ours = next(_pcg64_states(_words(seed), i, 1))
    return ours == np.random.PCG64(np.random.SeedSequence((seed, i))).state


def _trial_rngs(seed: int, trials: int) -> Iterator[np.random.Generator]:
    """trial_rng(seed, i)'s stream for each i in range(trials). The generator
    yielded is reused: each trial sets its state."""
    if trials <= 0:
        return
    np.random.SeedSequence((seed, 0))       # raises what trial_rng(seed, i) would
    if not isinstance(seed, (int, np.integer)) or not _block_seeding_matches():
        yield from (trial_rng(seed, i) for i in range(trials))
        return
    seed_words, bit_gen = _words(int(seed)), np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)
    for start in range(0, trials, _SEED_BLOCK):     # _SEED_BLOCK divides 2**32
        for state in _pcg64_states(seed_words, start, min(_SEED_BLOCK, trials - start)):
            bit_gen.state = state
            yield rng


# -- serialization ------------------------------------------------------------


def json_ready(obj):
    """Normalize floats (9 significant digits) so dumps are byte-stable."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, (float, Fraction)):
        return float(f"{float(obj):.9g}")
    if isinstance(obj, dict):
        return {k: json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json_line(obj: dict, fp: TextIO) -> None:
    fp.write(json.dumps(json_ready(obj), separators=(",", ":")))
    fp.write("\n")


def dump_trace(trace: DecisionTrace, fp: TextIO) -> None:
    """One JSON object per record, arrival order, fixed field order."""
    for rec in trace.records:
        dump_json_line(rec.to_json_obj(), fp)


def load_records(fp: TextIO) -> tuple[DecisionRecord, ...]:
    """The records of a dump_trace file; a malformed line raises ValueError
    naming its line number."""
    records = []
    for n, line in enumerate(fp, 1):
        if line.strip():
            try:
                records.append(DecisionRecord.from_json_obj(json.loads(line)))
            except (ValueError, TypeError) as exc:
                raise ValueError(f"trace line {n}: {exc}") from exc
    return tuple(records)


def trace_from_records(records: Iterable[DecisionRecord]) -> DecisionTrace:
    """Rebuild a trace from exported records: one per element, in arrival
    order (dumped times are rounded, so a tie keeps record order), samples
    first, and no sample record accepted or carrying kick fields."""
    records = tuple(records)
    order, arrival = tuple(r.element for r in records), tuple(r.time for r in records)
    if len(set(order)) != len(order):
        raise ValueError("records must name each element once")
    if not all(0.0 <= a <= b <= 1.0 for a, b in zip(arrival, arrival[1:] + (1.0,))):
        raise ValueError("record times must lie in [0, 1], in arrival order")
    m = sum(r.phase == PHASE_SAMPLE for r in records)
    if [r.phase for r in records] != [PHASE_SAMPLE] * m + [PHASE_LIVE] * (len(records) - m):
        raise ValueError(f"record phases must be {PHASE_SAMPLE!r} then {PHASE_LIVE!r}")
    if any(r.accepted or r.kicked is not None or r.kicked_was_sample is not None
           for r in records[:m]):
        raise ValueError("a sample record is never accepted and has no kick fields")
    return DecisionTrace(records, frozenset(r.element for r in records if r.accepted),
                         frozenset(order[:m]), ArrivalSchedule(order, arrival))


def dump_schedule(schedule: ArrivalSchedule, fp: TextIO) -> None:
    for u, t in zip(schedule.order, schedule.arrival):
        fp.write(f"schedule {u} {t!r}\n")


def parse_schedule(fp: TextIO) -> ArrivalSchedule:
    pairs = []
    for line in fp:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] != "schedule":
            raise ValueError(f"bad schedule line: {line!r}")
        pairs.append((int(parts[1]), float(parts[2])))
    return forced_schedule(pairs)
