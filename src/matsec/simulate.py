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
from typing import Iterable, Iterator, TextIO

import numpy as np

from .matroid import DomainError, MatroidView, WeightedGroundSet, as_id, read_lines
from .policies import Decision, build_policy, running_mwb

PHASE_SAMPLE = "sample"
PHASE_LIVE = "live"


class HarnessViolation(RuntimeError):
    """A policy accepted an element that makes the accepted set dependent."""


@dataclass(frozen=True, eq=False)
class ArrivalSchedule:
    """When each element arrives: `order` is the ids sorted by (time, id), and
    `sorted_times` their times in [0, 1], one read-only float64 array aligned with it."""

    order: tuple
    sorted_times: np.ndarray

    @cached_property
    def elements(self) -> frozenset:
        """frozenset(order), built on first use; a drawn schedule gets its set when drawn.
        An id that only equals an integer (1.0) raises DomainError, not the cover check."""
        return frozenset(as_id(u, DomainError) for u in self.order)

    def first_live(self, p: float) -> int:
        """Index in order of the first live arrival: samples arrive strictly
        before p, so an arrival at exactly p is live."""
        return bisect_left(self.sorted_times, p)


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Stream for one trial, addressable by (seed, index) so trials give the
    same answers whatever order they run in."""
    return np.random.default_rng(np.random.SeedSequence((seed, trial_index)))


def _read_only(times) -> np.ndarray:
    """times as a float64 array that refuses writes (no copy of such an array)."""
    (times := np.asarray(times, dtype=float)).setflags(write=False)
    return times


def draw_schedule(ground: WeightedGroundSet, rng: np.random.Generator) -> ArrivalSchedule:
    """The schedule of rng's next ground.count doubles: element u arrives at the u-th."""
    return next(_draw_schedules(ground.count, (rng,), 1))


def _draw_schedules(count: int, rngs: Iterable[np.random.Generator],
                    rows: int) -> Iterator[ArrivalSchedule]:
    """draw_schedule for each generator of rngs, `rows` at a time. Each is read
    before the next is taken (_trial_rngs reuses one); one unstable sort orders the
    block, and a row with a tied time is sorted again stably, by id. If rows > 1 and
    a block's rows all permute range(count), they share one `elements`; else each has its own."""
    # a lone row has no block to share with; its own frozenset(order) is cheaper than a check
    rngs, drawn, ids = iter(rngs), rows, frozenset(range(count)) if rows > 1 else None
    starts = np.arange(rows)[:, None] * count       # each row's offset in the flat block
    while drawn == rows:
        times, drawn = np.empty((rows, count)), 0
        for drawn, (row, rng) in enumerate(zip(times, rngs), 1):
            rng.random(out=row)
        times = times[:drawn]
        idx = times.argsort(axis=1)
        sorted_times = times.take(flat := idx + starts[:drawn])     # flat: positions in the block
        tied = sorted_times[:, 1:] == sorted_times[:, :-1]
        if tied.any():      # the sorted times stand; only the order among equals moves
            tied = tied.any(axis=1)
            idx[tied] = times[tied].argsort(axis=1, kind="stable")
            flat[tied] = idx[tied] + starts[:drawn][tied]
        sorted_times.setflags(write=False)
        # rows that each permute range(count) hit every flat position exactly once
        shared = ids is not None and (np.bincount(flat.ravel(), minlength=flat.size) == 1).all()
        for order, row in zip(idx, sorted_times):
            schedule = ArrivalSchedule(order := tuple(order.tolist()), row)
            object.__setattr__(schedule, "elements", ids if shared else frozenset(order))
            yield schedule


def forced_schedule(assignments: Iterable[tuple[int, float]]) -> ArrivalSchedule:
    """Schedule with exactly the given (element, time) pairs; ids must be
    integers, and times distinct and in [0, 1]."""
    times = {}
    for u, t in assignments:
        if (u := as_id(u)) in times:
            raise ValueError(f"element {u} assigned twice")
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"time {t} outside [0, 1]")
        times[u] = float(t)
    if len(set(times.values())) != len(times):
        raise ValueError("forced schedules need distinct times")
    order = tuple(sorted(times, key=times.__getitem__))
    return ArrivalSchedule(order, _read_only([times[u] for u in order]))


# the JSON key of each DecisionRecord field, in field order, which is the dump order;
# a record may leave out the kick fields' keys (the fields default to None)
_RECORD_KEYS = ("element", "time", "phase", "accepted", "inCurrentMwb",
                "kicked", "kickedWasSample")
_REQUIRED_KEYS = _RECORD_KEYS[:5]


@dataclass(frozen=True)
class DecisionRecord:
    element: int
    time: float
    phase: str                  # "sample" or "live"
    accepted: bool
    in_current_mwb: bool        # u in MWB(arrived-so-far + u), harness-computed
    kicked: int | None = None
    kicked_was_sample: bool | None = None   # kicked in the sample set, harness-computed

    def to_json_obj(self) -> dict:
        return dict(zip(_RECORD_KEYS, vars(self).values()))     # a dataclass's fields, in order

    @classmethod
    def from_json_obj(cls, obj) -> "DecisionRecord":
        """The record a to_json_obj dict describes (kicked and kickedWasSample
        may be left out); raises ValueError for anything else."""
        if not isinstance(obj, dict):
            raise ValueError("a record must be a JSON object")
        if missing := next((k for k in _REQUIRED_KEYS if k not in obj), None):
            raise ValueError(f"record lacks key {missing!r}")
        element, time, phase, *flags, kicked, was_sample = map(obj.get, _RECORD_KEYS)
        if not all(isinstance(f, bool) for f in flags):
            raise ValueError("accepted and inCurrentMwb must be JSON booleans")
        # exact types: a bool is no int
        if not (type(element) is int and (kicked is None or type(kicked) is int)):
            raise ValueError("element and kicked must be JSON integers")
        if type(time) not in (int, float):
            raise ValueError("time must be a JSON number")
        try:
            time = float(time)
        except OverflowError:       # an int beyond float range
            raise ValueError("time is too large for a float") from None
        if not (was_sample is None or isinstance(was_sample, bool)):
            raise ValueError("kickedWasSample must be a JSON boolean or null")
        if phase not in (PHASE_SAMPLE, PHASE_LIVE):
            raise ValueError(f"phase must be {PHASE_SAMPLE!r} or {PHASE_LIVE!r}")
        return cls(element, time, phase, *flags, kicked, was_sample)


@dataclass(frozen=True, eq=False)
class DecisionTrace:
    """One trial's outcome: the Decision each live arrival got, in arrival
    order, the accepted set, the sample count (the samples are order[:sample_count])
    and the schedule. trace_records renders it as one DecisionRecord per arrival."""

    decisions: tuple
    accepted: frozenset
    sample_count: int
    schedule: ArrivalSchedule

    @property
    def sample_set(self) -> frozenset:
        return frozenset(self.schedule.order[:self.sample_count])


def check_cutoff(p: float) -> None:
    """The one rule on a sampling cutoff: p lies in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"sampling cutoff p={p} outside [0, 1]")


def run_trial(policy, view: MatroidView, weights: WeightedGroundSet,
              schedule: ArrivalSchedule, p: float) -> DecisionTrace:
    """Deliver one schedule to a fresh (or reset) policy: the sample to start(), then
    each live arrival to decide(); the schedule's length and `elements` must match view.ground."""
    check_cutoff(p)
    order = schedule.order
    if len(order) != len(view.ground) or schedule.elements != view.ground:
        raise DomainError("schedule must cover exactly the effective ground set")
    policy = build_policy(policy)
    m = schedule.first_live(p)
    policy.start(view, weights, order[:m])
    decide, add = policy.decide, view.tracker().add
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
    return DecisionTrace(tuple(decisions), frozenset(accepted), m, schedule)


def trace_records(trace: DecisionTrace, view: MatroidView,
                  weights: WeightedGroundSet) -> tuple[DecisionRecord, ...]:
    """One record per arrival, in arrival order: time and phase from the
    schedule, in_current_mwb from the harness's own running basis and
    kicked_was_sample from the sample set."""
    order, arrival = trace.schedule.order, trace.schedule.sorted_times.tolist()
    m, sampled, insert = trace.sample_count, trace.sample_set, running_mwb(view, weights).insert
    return tuple([DecisionRecord(u, t, PHASE_SAMPLE, False, insert(u)[0])
                  for u, t in zip(order[:m], arrival)]
                 + [DecisionRecord(u, t, PHASE_LIVE, d.accept, insert(u)[0],
                                   d.kicked, None if d.kicked is None else d.kicked in sampled)
                    for u, t, d in zip(order[m:], arrival[m:], trace.decisions, strict=True)])


def schedule_stream(weights: WeightedGroundSet, trials: int, seed: int) -> Iterator:
    """One schedule per trial; trial i's is always drawn from trial_rng(seed, i)'s stream."""
    rows = max(1, min(trials, _DRAW_BLOCK // max(weights.count, 1)))
    return _draw_schedules(weights.count, _trial_rngs(seed, trials), rows)


def trial_stream(policy, view: MatroidView, weights: WeightedGroundSet,
                 p: float, trials: int, seed: int) -> Iterator[DecisionTrace]:
    """One trace per trial, run on schedule_stream's schedules."""
    policy = build_policy(policy)
    for schedule in schedule_stream(weights, trials, seed):
        yield run_trial(policy, view, weights, schedule, p)


# -- trial seeds in blocks -----------------------------------------------------
# trial_rng(seed, i) is default_rng(SeedSequence((seed, i))). _trial_rngs gives
# the same streams without building a SeedSequence and a PCG64 per trial: it
# runs SeedSequence's pool hash over a block of indices at once (the hash
# constants do not depend on the data, so numpy uint32 arithmetic does it), then
# PCG64's seeding step per trial, and sets the state of one reused generator.

_SEED_BLOCK = 1024
_DRAW_BLOCK = 1 << 13       # doubles in one block of schedule_stream's draws
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
    fp.write(json.dumps(json_ready(obj), separators=(",", ":")) + "\n")


def dump_trace(records: Iterable[DecisionRecord], fp: TextIO) -> None:
    """One JSON object per record, in the given order, fixed field order;
    load_records reads it back."""
    for rec in records:
        dump_json_line(rec.to_json_obj(), fp)


def load_records(fp: TextIO) -> tuple[DecisionRecord, ...]:
    """The records of a dump_trace file; a malformed line raises ValueError
    naming its line number."""
    records = []
    for n, line in enumerate(fp, 1):
        if line.strip():
            try:
                records.append(DecisionRecord.from_json_obj(json.loads(line)))
            except (ValueError, TypeError, RecursionError) as exc:     # too deep a nesting
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
    return DecisionTrace(tuple(Decision(r.accepted, r.kicked) for r in records[m:]),
                         frozenset(r.element for r in records if r.accepted),
                         m, ArrivalSchedule(order, _read_only(arrival)))


def dump_schedule(schedule: ArrivalSchedule, fp: TextIO) -> None:
    for u, t in zip(schedule.order, schedule.sorted_times.tolist()):
        fp.write(f"schedule {u} {t!r}\n")


def parse_schedule(fp: TextIO) -> ArrivalSchedule:
    return forced_schedule([(int(u), float(t)) for _, (_, u, t) in read_lines(fp, "schedule", 3)])
