"""Arrival schedules, the trial harness, and trace serialization."""

import hashlib
import io
import json
import math
import re
from bisect import bisect_left
from dataclasses import replace
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest

from matsec import (
    ArrivalSchedule,
    Decision,
    DecisionRecord,
    DomainError,
    HarnessViolation,
    POLICY_NAMES,
    Policy,
    check_claw_blocker,
    check_first_live_accepted,
    check_forbidden_consistency,
    check_modified_hat_trap,
    draw_schedule,
    dump_schedule,
    dump_trace,
    forced_schedule,
    hat_forbidden_oracle,
    hat_graph,
    load_records,
    modified_hat_graph,
    parse_schedule,
    random_graphic,
    run_trial,
    trace_from_records,
    trace_records,
    trial_rng,
    trial_stream,
    triangle,
    uniform_instance,
)
from matsec import simulate
from matsec.simulate import (PHASE_LIVE, PHASE_SAMPLE, _pcg64_states, _words,
                             dump_json_line, json_ready)


def times_of(schedule) -> dict:
    """Element id -> arrival time, as Python floats, in arrival order."""
    return dict(zip(schedule.order, schedule.sorted_times.tolist()))


def hand_built(order, times) -> ArrivalSchedule:
    """A schedule built directly, its times a read-only float64 array as drawn ones are."""
    (times := np.array(times, dtype=float)).setflags(write=False)
    return ArrivalSchedule(tuple(order), times)


class AcceptEveryLive(Policy):
    """Accepts every live arrival, so any second acceptance on a 1-uniform
    instance makes the accepted set dependent."""

    name = "accept-every-live"

    def start(self, view, weights, samples):
        pass

    def decide(self, u):
        return Decision(True)


class Recorder(Policy):
    """Rejects everything and logs each call the harness makes."""

    name = "recorder"

    def __init__(self):
        self.calls = []

    def start(self, view, weights, samples):
        self.calls.append(("start", samples))

    def decide(self, u):
        self.calls.append(("decide", u))
        return Decision(False)


# -- rng addressing and schedules -------------------------------------------------


class TestTrialRng:
    def test_addressable_by_seed_and_index(self):
        assert trial_rng(7, 3).random() == trial_rng(7, 3).random()
        assert trial_rng(7, 3).random() != trial_rng(7, 4).random()
        assert trial_rng(8, 3).random() != trial_rng(7, 3).random()

    def test_stream_order_independence(self):
        # trial i's schedule must not depend on which trials ran before it
        b = uniform_instance(6, 2)
        streamed = list(trial_stream("sample", b.view, b.weights, 0.5, 5, seed=11))
        direct = draw_schedule(b.weights, trial_rng(11, 3))
        assert times_of(streamed[3].schedule) == times_of(direct)


class TestBlockSeeding:
    """trial_stream derives each trial's PCG64 state in blocks of indices; every
    state and stream must be trial_rng(seed, i)'s, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 3, 99, 2**32 - 1, 2**32, 2**64 + 7])
    @pytest.mark.parametrize("start, count", [
        (0, 5), (1023, 1), (1024, 2),           # across trial_stream's block boundary
        (2**32 - 2, 2), (2**32, 2),             # i grows from one 32-bit word to two
        (2**64 - 1, 1), (2**64, 1),             # ... and from two to three
    ])
    def test_states_and_streams_equal_numpy(self, seed, start, count):
        bit_gen = np.random.PCG64(0)
        rng = np.random.Generator(bit_gen)
        states = list(_pcg64_states(_words(seed), start, count))
        assert len(states) == count
        for i, state in enumerate(states, start):
            assert state == np.random.PCG64(np.random.SeedSequence((seed, i))).state
            bit_gen.state = state
            assert rng.random(64).tolist() == trial_rng(seed, i).random(64).tolist()

    def test_self_check_agrees_with_this_numpy(self):
        assert simulate._block_seeding_matches()

    @pytest.mark.parametrize("seed", [5, 2**64 + 7])
    def test_stream_equals_trial_rng_trace_by_trace(self, seed):
        b = hat_graph(3)
        streamed = trial_stream("virtual-msp", b.view, b.weights, 0.5, 1030, seed)
        for i, trace in enumerate(streamed):    # 1030 trials span the first block boundary
            direct = run_trial("virtual-msp", b.view, b.weights,
                               draw_schedule(b.weights, trial_rng(seed, i)), 0.5)
            assert np.array_equal(trace.schedule.sorted_times, direct.schedule.sorted_times), i
            assert (trace_records(trace, b.view, b.weights)
                    == trace_records(direct, b.view, b.weights)), i
        assert i == 1029

    def test_seed_errors_and_empty_stream(self):
        b = triangle()
        with pytest.raises(ValueError, match="expected non-negative integer"):
            next(trial_stream("sample", b.view, b.weights, 0.5, 3, -2))
        with pytest.raises(TypeError):
            next(trial_stream("sample", b.view, b.weights, 0.5, 3, 1.5))
        assert list(trial_stream("sample", b.view, b.weights, 0.5, 0, 3)) == []

    @pytest.mark.parametrize("seed", [np.int64(7), (4, 5)])
    def test_numpy_and_sequence_seeds_keep_their_streams(self, seed):
        b = triangle()
        streamed = trial_stream("sample", b.view, b.weights, 0.5, 3, seed)
        assert [t.schedule.sorted_times.tolist() for t in streamed] == \
               [draw_schedule(b.weights, trial_rng(seed, i)).sorted_times.tolist()
                for i in range(3)]

    def test_self_check_mismatch_falls_back_to_trial_rng(self, monkeypatch):
        b = hat_graph(3)

        def arrivals():
            return [t.schedule.sorted_times.tolist()
                    for t in trial_stream("virtual-msp", b.view, b.weights, 0.5, 40, 9)]

        derived, real_trial_rng, calls = arrivals(), simulate.trial_rng, []
        monkeypatch.setattr(simulate, "_block_seeding_matches", lambda: False)
        monkeypatch.setattr(simulate, "trial_rng",
                            lambda seed, i: calls.append(i) or real_trial_rng(seed, i))
        assert arrivals() == derived
        assert calls == list(range(40))


class TestDrawSchedule:
    def test_shape(self):
        b = uniform_instance(6, 2)
        sched = draw_schedule(b.weights, trial_rng(0, 0))
        times = times_of(sched)
        assert set(times) == set(range(6))
        assert all(0.0 <= t < 1.0 for t in times.values())
        assert list(sched.order) == sorted(times, key=lambda u: (times[u], u))

    def test_arrival_is_sorted_and_aligned_with_order(self):
        b = uniform_instance(50, 2)
        sched = draw_schedule(b.weights, trial_rng(4, 9))
        raw = trial_rng(4, 9).random(50)
        arrival = sched.sorted_times.tolist()
        assert sorted(sched.order) == list(range(50))
        assert all(a <= c for a, c in zip(arrival, arrival[1:]))
        assert arrival == [float(raw[u]) for u in sched.order]

    def test_times_look_uniform(self):
        ws = uniform_instance(2000, 1).weights
        times = draw_schedule(ws, trial_rng(1, 0)).sorted_times
        assert abs(times.mean() - 0.5) < 0.04
        assert abs((times < 0.3).mean() - 0.3) < 0.04


class StubRng:
    """Hands out fixed times, as a generator's random(out=...) would."""

    def __init__(self, times):
        self.times = times

    def random(self, out):
        out[:] = self.times


def by_time_then_id(times):
    return tuple(sorted(range(len(times)), key=lambda u: (times[u], u)))


class TestBlockDraw:
    """schedule_stream draws its schedules in blocks, sorts each block at once
    and re-sorts only the rows with a tied time; draw_schedule is its one-row case."""

    def test_tied_times_break_by_element_id(self):
        sched = draw_schedule(uniform_instance(4, 1).weights, StubRng([0.5, 0.25, 0.5, 0.25]))
        assert sched.order == (1, 3, 0, 2)
        assert sched.sorted_times.tolist() == [0.25, 0.25, 0.5, 0.5]

    def test_a_tied_row_inside_a_block_keeps_time_then_id_order(self, monkeypatch):
        count = 200
        tied = [(u * 7 % 5) / 8 for u in range(count)]      # five times, 40 elements each
        # the default sort alone would misorder this row, so the repair is exercised
        assert tuple(np.argsort(tied).tolist()) != by_time_then_id(tied)
        rng = np.random.default_rng(3)
        rows = [rng.random(count).tolist() for _ in range(6)]
        rows[2] = tied
        rows[4] = rows[4][:100] + rows[4][:100]             # every time twice
        monkeypatch.setattr(simulate, "_trial_rngs", lambda seed, trials: map(StubRng, rows))
        monkeypatch.setattr(simulate, "_DRAW_BLOCK", 4 * count)    # a block of 4 rows, then 2
        drawn = list(simulate.schedule_stream(uniform_instance(count, 1).weights, 6, 0))
        assert [s.order for s in drawn] == [by_time_then_id(r) for r in rows]
        assert [s.sorted_times.tolist() for s in drawn] == [sorted(r) for r in rows]

    def test_stream_equals_one_draw_per_trial_across_both_blocks(self):
        weights, seed = uniform_instance(200, 1).weights, 4
        rows = simulate._DRAW_BLOCK // 200
        trials = simulate._SEED_BLOCK + rows + 3
        assert simulate._SEED_BLOCK % rows and trials % rows    # both boundaries cut a block
        drawn = list(simulate.schedule_stream(weights, trials, seed))
        assert len(drawn) == trials
        for i, sched in enumerate(drawn):
            direct = draw_schedule(weights, trial_rng(seed, i))
            raw = trial_rng(seed, i).random(200)
            assert sched.order == direct.order == tuple(raw.argsort(kind="stable").tolist()), i
            assert np.array_equal(sched.sorted_times, direct.sorted_times), i
            assert np.array_equal(sched.sorted_times, np.sort(raw)), i
            assert not sched.sorted_times.flags.writeable, i

    def test_no_trials_and_no_elements(self):
        assert list(simulate.schedule_stream(uniform_instance(200, 1).weights, 0, 1)) == []
        empty = list(simulate.schedule_stream(uniform_instance(0, 0).weights, 3, 1))
        assert [(s.order, s.sorted_times.tolist()) for s in empty] == [((), [])] * 3

    @pytest.mark.parametrize("count", [0, 1, 7, 200])
    def test_a_draw_reads_exactly_count_doubles(self, count):
        shared, reference = np.random.default_rng(9), np.random.default_rng(9)
        draw_schedule(uniform_instance(count, min(count, 1)).weights, shared)
        reference.random(count)
        assert shared.random() == reference.random()


def count_element_builds(monkeypatch) -> list:
    """Swap ArrivalSchedule.elements for a copy that logs each schedule it builds a set for."""
    builds = []

    def elements(self):
        builds.append(self)
        return frozenset(self.order)

    prop = cached_property(elements)
    prop.__set_name__(ArrivalSchedule, "elements")
    monkeypatch.setattr(ArrivalSchedule, "elements", prop)
    return builds


class TestSharedElements:
    """A drawn block of several rows that all permute range(count) hands each
    schedule one shared element set; any other drawn schedule gets
    frozenset(order) when drawn, and every other schedule builds it on first use."""

    def test_drawn_elements_are_the_order_set_across_both_blocks(self):
        weights = uniform_instance(200, 1).weights
        trials = simulate._SEED_BLOCK + simulate._DRAW_BLOCK // 200 + 3     # 1067
        drawn = list(simulate.schedule_stream(weights, trials, 4))
        assert len(drawn) == trials
        for i, sched in enumerate(drawn):
            assert sched.elements == frozenset(sched.order) == frozenset(range(200)), i
        assert all(sched.elements is drawn[0].elements for sched in drawn)
        hat = hat_graph(5)
        hat_drawn = [t.schedule for t in trial_stream("virtual-msp", hat.view, hat.weights,
                                                      0.5, 300, 2)]
        assert all(s.elements == frozenset(s.order) == hat.view.ground for s in hat_drawn)
        assert all(s.elements is hat_drawn[0].elements for s in hat_drawn)
        for count in (0, 1, 7, 200):
            one = draw_schedule(uniform_instance(count, min(count, 1)).weights, trial_rng(3, count))
            assert one.elements == frozenset(one.order) == frozenset(range(count))

    def test_tie_repaired_rows_hold_their_own_ids(self, monkeypatch):
        count = 200
        rng = np.random.default_rng(5)
        rows = [[(u * 7 % 5) / 8 for u in range(count)], rng.random(count).tolist()]
        rows.append(rows[1][:100] + rows[1][:100])          # every time twice
        monkeypatch.setattr(simulate, "_trial_rngs", lambda seed, trials: map(StubRng, rows))
        monkeypatch.setattr(simulate, "_DRAW_BLOCK", 2 * count)    # a block of 2 rows, then 1
        drawn = list(simulate.schedule_stream(uniform_instance(count, 1).weights, 3, 0))
        tied = draw_schedule(uniform_instance(4, 1).weights, StubRng([0.5, 0.25, 0.5, 0.25]))
        for sched in drawn + [tied]:
            assert sched.elements == frozenset(sched.order)
            assert sched.elements == frozenset(range(len(sched.order)))

    def test_drawn_schedules_never_build_their_set(self, monkeypatch):
        builds = count_element_builds(monkeypatch)
        for b, policy in ((uniform_instance(200, 1), "dynkin"), (hat_graph(5), "virtual-msp")):
            assert len(list(trial_stream(policy, b.view, b.weights, 0.4, 50, 1))) == 50
            lone = draw_schedule(b.weights, trial_rng(1, 0))
            run_trial(policy, b.view, b.weights, lone, 0.4)
            assert lone.elements == frozenset(lone.order)
        assert builds == []

    def test_other_schedules_build_their_set_once(self, monkeypatch):
        builds = count_element_builds(monkeypatch)
        b = triangle()
        forced = forced_schedule([(2, 0.1), (0, 0.4), (1, 0.7)])
        buf = io.StringIO()
        dump_schedule(forced, buf)
        parsed = parse_schedule(io.StringIO(buf.getvalue()))
        trace = run_trial("sample", b.view, b.weights, forced, 0.3)
        reloaded = trace_from_records(trace_records(trace, b.view, b.weights)).schedule
        direct = hand_built((1, 2, 0), (0.2, 0.5, 0.9))
        for sched in (parsed, reloaded, direct):
            run_trial("sample", b.view, b.weights, sched, 0.3)
        for sched in (forced, parsed, reloaded, direct):
            assert sched.elements == frozenset({0, 1, 2})
        assert builds == [forced, parsed, reloaded, direct]

    def test_only_a_verified_block_of_several_rows_shares_its_set(self, monkeypatch):
        b = hat_graph(3)
        streamed = [t.schedule for t in trial_stream("virtual-msp", b.view, b.weights, 0.5, 20, 6)]
        assert len({id(s.elements) for s in streamed}) == 1
        lone = [draw_schedule(b.weights, trial_rng(6, i)) for i in range(20)]
        single = [t.schedule for t in trial_stream("virtual-msp", b.view, b.weights, 0.5, 1, 6)]
        monkeypatch.setattr(np, "bincount", lambda x, minlength: np.zeros(minlength, np.intp))
        failed = [t.schedule for t in trial_stream("virtual-msp", b.view, b.weights, 0.5, 20, 6)]
        for own in (lone + single, failed):
            assert len({id(s.elements) for s in own}) == len(own)
            assert all(s.elements == frozenset(s.order) == b.view.ground for s in own)

    def test_a_drawn_schedule_is_checked_against_a_restricted_view(self):
        for b in (uniform_instance(200, 1), hat_graph(5)):
            view = b.view.restrict(range(1, b.weights.count))
            with pytest.raises(DomainError, match="ground set"):
                run_trial("sample", view, b.weights, draw_schedule(b.weights, trial_rng(0, 0)), 0.5)
            with pytest.raises(DomainError, match="ground set"):
                next(trial_stream("sample", view, b.weights, 0.5, 3, 0))


class TestForcedSchedule:
    @pytest.mark.parametrize("pairs", [
        [(1.5, 0.2), (0, 0.4), (2, 0.7)],      # int() would schedule element 1
        [(1.5, 0.2), (1, 0.3)],                # ... and call element 1 assigned twice
        [(1.0, 0.2)],
    ])
    def test_ids_must_be_integers(self, pairs):
        with pytest.raises(ValueError, match=re.escape(f"integers, got {pairs[0][0]!r}")):
            forced_schedule(pairs)

    def test_numpy_int_ids_become_ints(self):
        sched = forced_schedule([(np.int64(1), 0.2), (np.int32(0), 0.4)])
        assert sched.order == (1, 0) and all(type(u) is int for u in sched.order)

    def test_round_trip_order(self):
        sched = forced_schedule([(2, 0.9), (0, 0.1), (1, 0.5)])
        assert sched.order == (0, 1, 2)
        assert sched.sorted_times.tolist() == [0.1, 0.5, 0.9]

    def test_boundary_times_allowed(self):
        sched = forced_schedule([(0, 0.0), (1, 1.0)])
        assert sched.order == (0, 1)

    @pytest.mark.parametrize("pairs", [
        [(0, 0.1), (0, 0.2)],
        [(0, 0.3), (1, 0.3)],
        [(0, -0.1)],
        [(0, 1.5)],
    ])
    def test_rejects_malformed(self, pairs):
        with pytest.raises(ValueError):
            forced_schedule(pairs)


class TestFirstLive:
    SCHED = forced_schedule([(0, 0.0), (1, 0.25), (2, 0.5), (3, 1.0)])

    @pytest.mark.parametrize("p, m", [(0.0, 0), (0.2, 1), (0.25, 1), (0.3, 2),
                                      (0.5, 2), (0.9, 3), (1.0, 3)])
    def test_samples_arrive_strictly_before_p(self, p, m):
        # an arrival exactly at p is live: at p = 0 everything is, at p = 1 only time 1
        assert self.SCHED.first_live(p) == m

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0])
    def test_harness_samples_what_first_live_says(self, p):
        b = uniform_instance(4, 2)
        trace = run_trial("sample", b.view, b.weights, self.SCHED, p)
        m = self.SCHED.first_live(p)
        assert trace.sample_set == frozenset(self.SCHED.order[:m])
        phases = [r.phase for r in trace_records(trace, b.view, b.weights)]
        assert phases == [PHASE_SAMPLE] * m + [PHASE_LIVE] * (4 - m)


# -- the harness --------------------------------------------------------------------


class TestRunTrial:
    def test_p_validation(self):
        b = triangle()
        sched = forced_schedule([(0, 0.1), (1, 0.2), (2, 0.3)])
        for p in (-0.1, 1.0001):
            with pytest.raises(ValueError, match="cutoff"):
                run_trial("sample", b.view, b.weights, sched, p)

    def test_schedule_must_cover_ground(self):
        b = triangle()
        sched = forced_schedule([(0, 0.1), (1, 0.2)])
        with pytest.raises(DomainError, match="ground set"):
            run_trial("sample", b.view, b.weights, sched, 0.5)

    @pytest.mark.parametrize("order, arrival", [
        ((0, 1), (0.1, 0.2)),               # element 2 missing
        ((0, 1, 1), (0.1, 0.2, 0.3)),       # element 1 twice, 2 missing
        ((0, 1, 2, 2), (0.1, 0.2, 0.3, 0.4)),   # every element, 2 twice
        ((0, 1, 5), (0.1, 0.2, 0.3)),       # 5 is outside the ground set
    ])
    def test_hand_built_schedule_must_cover_ground(self, order, arrival):
        b = triangle()
        with pytest.raises(DomainError, match="ground set"):
            run_trial("sample", b.view, b.weights, hand_built(order, arrival), 0.5)

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("bad", [1.0, np.float64(1.0), Fraction(1)])
    def test_hand_built_ids_that_only_equal_integers_raise_domain_error(self, policy, bad):
        times = (0.1, 0.3, 0.5, 0.7, 0.9)
        for b in (uniform_instance(5, 1), hat_graph(2)):    # 1.0 == 1 would pass the cover check
            with pytest.raises(DomainError, match=re.escape(f"got {bad!r}")):
                run_trial(policy, b.view, b.weights, hand_built((0, bad, 2, 3, 4), times), 0.2)
        b = uniform_instance(5, 1)      # every policy runs here; numpy ints are ids
        numpy_ids = hand_built(map(np.int64, range(5)), times)
        assert (run_trial(policy, b.view, b.weights, numpy_ids, 0.2).accepted
                == run_trial(policy, b.view, b.weights, hand_built(range(5), times), 0.2).accepted)

    def test_p_one_samples_everything(self):
        b = triangle()
        sched = forced_schedule([(0, 0.1), (1, 0.2), (2, 0.3)])
        trace = run_trial("sample", b.view, b.weights, sched, 1.0)
        assert trace.sample_set == frozenset({0, 1, 2})
        assert trace.accepted == frozenset()

    def test_p_zero_samples_nothing(self):
        b = triangle()
        sched = forced_schedule([(0, 0.1), (1, 0.2), (2, 0.3)])
        trace = run_trial("sample", b.view, b.weights, sched, 0.0)
        assert trace.sample_set == frozenset()

    def test_boundary_time_is_live(self):
        # sampling uses strictly t < p, so an arrival at exactly p is live
        b = uniform_instance(2, 1)
        sched = forced_schedule([(0, 0.5), (1, 0.7)])
        trace = run_trial("sample", b.view, b.weights, sched, 0.5)
        assert trace.sample_set == frozenset()
        assert 0 in trace.accepted

    def test_arrivals_tied_with_p_are_live(self):
        # the harness splits at the cutoff by bisection; ties with p stay live
        b = uniform_instance(3, 2)
        sched = hand_built((0, 1, 2), (0.25, 0.5, 0.5))
        trace = run_trial("sample", b.view, b.weights, sched, 0.5)
        assert trace.sample_set == frozenset({0})
        assert trace.accepted == frozenset({1, 2})

    def test_sample_in_one_start_then_one_decide_per_live_arrival(self):
        # the sample tuple keeps arrival order; the arrival at exactly p is live
        b = uniform_instance(5, 2)
        sched = forced_schedule([(3, 0.1), (0, 0.2), (4, 0.4), (1, 0.6), (2, 0.9)])
        policy = Recorder()
        run_trial(policy, b.view, b.weights, sched, 0.4)
        assert policy.calls == [("start", (3, 0)), ("decide", 4), ("decide", 1),
                                ("decide", 2)]

    def test_every_live_decision_is_checked(self):
        # the second acceptance overfills the single slot; a harness that
        # stopped asking once the accepted set spans would never see it
        b = uniform_instance(5, 1)
        sched = forced_schedule([(u, 0.1 * (u + 1)) for u in range(5)])
        with pytest.raises(HarnessViolation, match="dependent"):
            run_trial(AcceptEveryLive(), b.view, b.weights, sched, 0.0)

    def test_trace_records_render_without_changing_the_trace(self):
        b = uniform_instance(6, 2)
        sched = forced_schedule([(0, 0.1), (2, 0.3), (1, 0.6), (5, 0.7), (3, 0.8), (4, 0.9)])
        trace = run_trial("virtual-msp", b.view, b.weights, sched, 0.5)
        before = (trace.decisions, trace.accepted, trace.sample_set, trace.schedule)
        records = trace_records(trace, b.view, b.weights)
        assert (trace.decisions, trace.accepted, trace.sample_set, trace.schedule) == before
        assert records == trace_records(trace, b.view, b.weights)
        assert [(r.element, r.time) for r in records] == list(times_of(sched).items())
        samples = {r.element for r in records if r.phase == PHASE_SAMPLE}
        assert samples == trace.sample_set == {0, 2}
        live = records[len(trace.sample_set):]
        assert [Decision(r.accepted, r.kicked) for r in live] == list(trace.decisions)
        assert [r.kicked_was_sample for r in live] == \
               [None if d.kicked is None else d.kicked in trace.sample_set
                for d in trace.decisions]
        assert any(d.kicked is not None for d in trace.decisions)
        assert {r.element for r in live if r.accepted} == trace.accepted

    def test_in_current_mwb_is_harness_computed(self):
        b = triangle()
        sched = forced_schedule([(2, 0.1), (1, 0.4), (0, 0.7)])
        trace = run_trial("sample", b.view, b.weights, sched, 0.0)
        flags = {r.element: r.in_current_mwb for r in trace_records(trace, b.view, b.weights)}
        assert flags == {2: True, 1: True, 0: False}

    def test_phases_follow_cutoff(self):
        b = uniform_instance(4, 2)
        sched = forced_schedule([(0, 0.1), (1, 0.39), (2, 0.41), (3, 0.9)])
        trace = run_trial("sample", b.view, b.weights, sched, 0.4)
        phases = [r.phase for r in trace_records(trace, b.view, b.weights)]
        assert phases == [PHASE_SAMPLE, PHASE_SAMPLE, PHASE_LIVE, PHASE_LIVE]

    def test_greedy_policy_cannot_break_independence(self):
        class TakeEverything(Policy):
            name = "take-everything"

            def start(self, view, weights, samples):
                pass

            def decide(self, u):
                return Decision(True)

        b = triangle()
        sched = forced_schedule([(0, 0.1), (1, 0.2), (2, 0.3)])
        with pytest.raises(HarnessViolation, match="dependent"):
            run_trial(TakeEverything(), b.view, b.weights, sched, 0.0)

    def test_deterministic_replay(self):
        b = uniform_instance(8, 3)
        sched = draw_schedule(b.weights, trial_rng(5, 2))
        a = run_trial("virtual-msp", b.view, b.weights, sched, 0.3)
        c = run_trial("virtual-msp", b.view, b.weights, sched, 0.3)
        assert a.decisions == c.decisions


class TestInvariances:
    def test_time_reparameterization(self):
        # halving every arrival time and the cutoff preserves order and
        # sample membership, so every decision must be identical
        for seed in range(5):
            rng = np.random.default_rng(seed)
            b = random_graphic(5, 8, rng)
            sched = draw_schedule(b.weights, trial_rng(seed, 1))
            half = forced_schedule([(u, t / 2) for u, t in times_of(sched).items()])
            a = run_trial("virtual-msp", b.view, b.weights, sched, 0.6)
            c = run_trial("virtual-msp", b.view, b.weights, half, 0.3)
            assert a.accepted == c.accepted
            assert a.schedule.order == c.schedule.order
            assert a.sample_set == c.sample_set
            assert a.decisions == c.decisions

    def test_decisions_ignore_the_future(self):
        b = uniform_instance(6, 3)
        prefix = [(0, 0.10), (1, 0.20), (2, 0.55)]
        tails = ([(3, 0.70), (4, 0.80), (5, 0.90)],
                 [(5, 0.70), (4, 0.75), (3, 0.95)])
        traces = [run_trial("virtual-msp", b.view, b.weights,
                            forced_schedule(prefix + tail), 0.5)
                  for tail in tails]
        heads = [[(r.element, r.phase, r.accepted, r.kicked)
                  for r in trace_records(t, b.view, b.weights)[:3]] for t in traces]
        assert heads[0] == heads[1]


# -- serialization -------------------------------------------------------------------


class TestJsonReady:
    def test_nine_significant_digits(self):
        assert json_ready(0.123456789123) == 0.123456789
        assert json_ready(Fraction(1, 3)) == 0.333333333
        assert json_ready(1.0) == 1.0

    def test_preserves_scalars(self):
        assert json_ready(True) is True
        assert json_ready(None) is None
        assert json_ready(7) == 7
        assert json_ready("x") == "x"

    def test_recurses_containers(self):
        out = json_ready({"a": [Fraction(1, 2), (1, None)], "b": {"c": 0.25}})
        assert out == {"a": [0.5, [1, None]], "b": {"c": 0.25}}

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            json_ready({1, 2})

    def test_dump_json_line_is_compact(self):
        buf = io.StringIO()
        dump_json_line({"a": 1.0, "b": None}, buf)
        assert buf.getvalue() == '{"a":1.0,"b":null}\n'


class TestTraceSerialization:
    def make_trace(self):
        b = triangle()
        sched = forced_schedule([(2, 0.2), (1, 0.6), (0, 0.8)])
        return b, run_trial("virtual-msp", b.view, b.weights, sched, 0.5)

    def make_records(self):
        b, trace = self.make_trace()
        return trace_records(trace, b.view, b.weights)

    def test_record_field_order_is_pinned(self):
        rec = DecisionRecord(2, 0.2, PHASE_SAMPLE, False, True)
        buf = io.StringIO()
        dump_json_line(rec.to_json_obj(), buf)
        assert buf.getvalue() == (
            '{"element":2,"time":0.2,"phase":"sample","accepted":false,'
            '"inCurrentMwb":true,"kicked":null,"kickedWasSample":null}\n')

    def test_only_the_kick_keys_may_be_left_out(self):
        full = DecisionRecord(1, 0.5, PHASE_LIVE, True, True, 0, False).to_json_obj()
        for key in full:
            obj = {k: v for k, v in full.items() if k != key}
            if key in ("kicked", "kickedWasSample"):
                assert DecisionRecord.from_json_obj(obj) == DecisionRecord.from_json_obj(
                    {**obj, key: None})
            else:
                with pytest.raises(ValueError, match=f"record lacks key '{key}'"):
                    DecisionRecord.from_json_obj(obj)
        assert DecisionRecord.from_json_obj(full).to_json_obj() == full

    def test_round_trip(self):
        records = self.make_records()
        buf = io.StringIO()
        dump_trace(records, buf)
        buf.seek(0)
        assert load_records(buf) == records

    def test_trace_from_records_rebuilds_everything(self):
        b, trace = self.make_trace()
        rebuilt = trace_from_records(trace_records(trace, b.view, b.weights))
        assert rebuilt.decisions == trace.decisions
        assert rebuilt.accepted == trace.accepted
        assert rebuilt.sample_set == trace.sample_set
        assert times_of(rebuilt.schedule) == times_of(trace.schedule)
        assert rebuilt.schedule.order == trace.schedule.order

    @pytest.mark.parametrize("edit, message", [
        (lambda recs: recs + [replace(recs[1], time=0.9)], "each element once"),
        (lambda recs: [recs[1], recs[0], recs[2]], "in arrival order"),
        (lambda recs: recs[:2] + [replace(recs[2], time=7.5)], r"lie in \[0, 1\]"),
        (lambda recs: [replace(recs[0], time=-0.1)] + recs[1:], r"lie in \[0, 1\]"),
        (lambda recs: [replace(recs[0], time=float("nan"))] + recs[1:], r"lie in \[0, 1\]"),
        (lambda recs: [replace(recs[0], phase="early")] + recs[1:], "record phases"),
        (lambda recs: recs[:1] + [replace(recs[1], phase=PHASE_SAMPLE, accepted=False)]
         + recs[2:], None),
        (lambda recs: [replace(recs[0], accepted=True)] + recs[1:], "sample record"),
        (lambda recs: [replace(recs[0], kicked=1)] + recs[1:], "sample record"),
        (lambda recs: [replace(recs[0], kicked_was_sample=False)] + recs[1:], "sample record"),
        (lambda recs: [replace(recs[0], phase=PHASE_LIVE), replace(recs[1], phase=PHASE_SAMPLE),
                       recs[2]], "record phases"),
    ])
    def test_trace_from_records_rejects_malformed_lists(self, edit, message):
        records = edit(list(self.make_records()))
        if message is None:     # a longer sample prefix is still well formed
            assert trace_from_records(records).sample_set == {2, 1}
            return
        with pytest.raises(ValueError, match=message):
            trace_from_records(records)

    def test_rejects_an_accepted_sample(self):
        # once loaded, t_1 sat in both the accepted and the sample set
        b = hat_graph(1)
        recs = [DecisionRecord(b.id_of("t_1"), 0.1, PHASE_SAMPLE, True, True),
                DecisionRecord(b.id_of("b_1"), 0.2, PHASE_SAMPLE, False, True),
                DecisionRecord(b.id_of("e_inf"), 0.6, PHASE_LIVE, True, True)]
        with pytest.raises(ValueError, match="sample record is never accepted"):
            trace_from_records(recs)

    def test_tied_times_load_in_record_order(self):
        # dumped times keep 9 significant digits, so these two arrivals share
        # one time in the file, the higher id first
        b = triangle()
        sched = forced_schedule([(2, 0.3), (1, 0.3 + 1e-12), (0, 0.8)])
        trace = run_trial("virtual-msp", b.view, b.weights, sched, 0.5)
        buf = io.StringIO()
        dump_trace(trace_records(trace, b.view, b.weights), buf)
        buf.seek(0)
        records = load_records(buf)
        assert records[0].time == records[1].time
        rebuilt = trace_from_records(records)
        assert rebuilt.schedule.order == (2, 1, 0) == sched.order
        assert rebuilt.sample_set == trace.sample_set == {2, 1}
        assert rebuilt.accepted == trace.accepted

    @pytest.mark.parametrize("line, message", [
        ('{"element": 1, "time": 0.5}', "lacks key 'phase'"),
        ("[1, 2]", "JSON object"),
        ('{"element": 1, "time": 0.5, "phase": "live", "accepted": "false",'
         ' "inCurrentMwb": true}', "JSON booleans"),
        ('{"element": 2.7, "time": 0.5, "phase": "live", "accepted": false,'
         ' "inCurrentMwb": true}', "JSON integers"),
        ('{"element": true, "time": 0.5, "phase": "live", "accepted": false,'
         ' "inCurrentMwb": true}', "JSON integers"),
        ('{"element": null, "time": 0.5, "phase": "live", "accepted": false,'
         ' "inCurrentMwb": true}', "JSON integers"),
        ('{"element": 1, "time": 0.5, "phase": "live", "accepted": false,'
         ' "inCurrentMwb": true, "kicked": "x"}', "JSON integers"),
        ('{"element": 1, "time": 0.5, "phase": "live", "accepted": false,'
         ' "inCurrentMwb": true, "kicked": 2.0}', "JSON integers"),
        ('{"element": 1, "time": 0.5, "phase": "live", "accepted": false,'
         ' "inCurrentMwb": true, "kicked": false}', "JSON integers"),
        ('{"element": 1, "time": "0.5", "phase": "live", "accepted": false,'
         ' "inCurrentMwb": true}', "JSON number"),
        ('{"element": 1, "time": true, "phase": "live", "accepted": false,'
         ' "inCurrentMwb": true}', "JSON number"),
        ('{"element": 1, "time": null, "phase": "live", "accepted": false,'
         ' "inCurrentMwb": true}', "JSON number"),
        ('{"element": 1, "time": 1' + "0" * 400 + ', "phase": "live", "accepted": false,'
         ' "inCurrentMwb": true}', "too large for a float"),
        ("[" * 100_000 + "]" * 100_000, "recursion depth"),
        ('{"element": 1, "time": 0.5, "phase": "live", "accepted": false,'
         ' "inCurrentMwb": true, "kicked": 2, "kickedWasSample": "yes"}', "boolean or null"),
        ('{"element": 1, "time": 0.5, "phase": "live", "accepted": false,'
         ' "inCurrentMwb": true, "kicked": 2, "kickedWasSample": 1}', "boolean or null"),
        *((f'{{"element": 1, "time": 0.5, "phase": {phase}, "accepted": false,'
           ' "inCurrentMwb": true}', "phase must be 'sample' or 'live'")
          for phase in ('"warmup"', "5", "null", '["live"]')),
    ])
    def test_load_records_names_the_malformed_line(self, line, message):
        buf = io.StringIO()
        dump_trace(self.make_records(), buf)
        buf.write(line + "\n")
        buf.seek(0)
        with pytest.raises(ValueError, match=f"line 4: .*{message}"):
            load_records(buf)

    def test_load_records_takes_integer_times_and_kick_fields(self):
        buf = io.StringIO(
            '{"element":0,"time":0,"phase":"sample","accepted":false,"inCurrentMwb":true}\n'
            '{"element":1,"time":1,"phase":"live","accepted":false,"inCurrentMwb":true,'
            '"kicked":0,"kickedWasSample":true}\n')
        records = load_records(buf)
        assert records == (DecisionRecord(0, 0.0, PHASE_SAMPLE, False, True),
                           DecisionRecord(1, 1.0, PHASE_LIVE, False, True, 0, True))
        assert all(type(r.time) is float for r in records)

    def test_json_lines_parse_individually(self):
        buf = io.StringIO()
        dump_trace(self.make_records(), buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 3
        keys = list(json.loads(lines[0]))
        assert keys == ["element", "time", "phase", "accepted",
                        "inCurrentMwb", "kicked", "kickedWasSample"]


PINNED_FAMILIES = {"hat3": lambda: hat_graph(3), "uniform200": lambda: uniform_instance(200, 1),
                   "mhat64": lambda: modified_hat_graph(64)}


class TestScheduleSerialization:
    def test_round_trip_is_exact(self):
        b = uniform_instance(5, 2)
        sched = draw_schedule(b.weights, trial_rng(3, 7))
        buf = io.StringIO()
        dump_schedule(sched, buf)
        buf.seek(0)
        parsed = parse_schedule(buf)
        assert times_of(parsed) == times_of(sched)
        assert parsed.order == sched.order

    def test_comments_allowed(self):
        text = "# header\nschedule 0 0.25\n\nschedule 1 0.75\n"
        sched = parse_schedule(io.StringIO(text))
        assert times_of(sched) == {0: 0.25, 1: 0.75}

    def test_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="bad schedule line"):
            parse_schedule(io.StringIO("arrival 0 0.5\n"))

    # sha256 of dump_schedule's lines for the schedule drawn from trial_rng(seed, trial):
    # every time at full repr precision, which the 9-digit golden traces do not pin
    @pytest.mark.parametrize("family, seed, trial, digest", [
        ("hat3", 0, 0, "4ec49e5dc858fb4f95163ee267c7f7a18be1e4605dbe9b2f770750803a54fe49"),
        ("hat3", 1, 7, "4959b7a62420fb6c933348a6939bd2b1e03c26a9b962d5e3758b5b9d7418c9b0"),
        ("hat3", 2**40 + 3, 5000,
         "d779d7f5969d1c71213e33659caf8b8c94d7a2f0294ec78e5ed7899035a26d92"),
        ("uniform200", 0, 0, "929232f8733715e399de2303a92c2d41eeee8531046623f0843c04b3a672af4e"),
        ("uniform200", 1, 7, "3e8012764da420d63360343f840655194732080123650ee3568dd1388d4749a9"),
        ("uniform200", 2**40 + 3, 5000,
         "d6b07634906cd4e4e727096ccdb1108dea4422da1d6e326d48a5c153b1a0a690"),
        ("mhat64", 0, 0, "14c470108e0775469c01a54732f5f1949202833760619db6d825aa694ce088c6"),
        ("mhat64", 1, 7, "1d62ba6b7f86db8cb42779a30dbc738e01736e3dfad265f4818d6aa0922bd932"),
        ("mhat64", 2**40 + 3, 5000,
         "f0c955380f1f1635c8f0df6351a21222429ce7c0a900c3fa2180db61e941f5e9"),
    ])
    def test_drawn_schedule_bytes_are_pinned(self, family, seed, trial, digest):
        sched = draw_schedule(PINNED_FAMILIES[family]().weights, trial_rng(seed, trial))
        buf = io.StringIO()
        dump_schedule(sched, buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


# -- the schedule and trace representations ---------------------------------------------


class TestRepresentation:
    @pytest.mark.parametrize("family", sorted(PINNED_FAMILIES))
    def test_first_live_bisects_the_float_arrivals(self, family):
        sched = draw_schedule(PINNED_FAMILIES[family]().weights, trial_rng(5, 3))
        cutoffs = [0.0, 1.0]
        arrival = sched.sorted_times.tolist()
        for t in arrival:
            cutoffs += [t, math.nextafter(t, 0.0), math.nextafter(t, 1.0)]
        for p in cutoffs:
            assert sched.first_live(p) == bisect_left(arrival, p), p

    def test_stored_times_refuse_writes(self):
        b = uniform_instance(5, 2)
        drawn = draw_schedule(b.weights, trial_rng(3, 7))
        buf = io.StringIO()
        dump_schedule(drawn, buf)
        loaded = parse_schedule(io.StringIO(buf.getvalue()))
        rebuilt = trace_from_records(trace_records(
            run_trial("sample", b.view, b.weights, drawn, 0.5), b.view, b.weights)).schedule
        for sched in (drawn, forced_schedule([(0, 0.5), (1, 0.25)]), loaded, rebuilt):
            assert sched.sorted_times.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                sched.sorted_times[0] = 0.75

    def test_hand_built_schedule_serves_everything(self):
        sched = hand_built((2, 0, 1), (0.125, 0.5, 0.75))
        assert times_of(sched) == {2: 0.125, 0: 0.5, 1: 0.75}
        assert [sched.first_live(p) for p in (0.0, 0.125, 0.3, 0.5, 1.0)] == [0, 0, 1, 1, 3]
        buf = io.StringIO()
        dump_schedule(sched, buf)
        assert buf.getvalue() == "schedule 2 0.125\nschedule 0 0.5\nschedule 1 0.75\n"
        trace = run_trial("sample", triangle().view, triangle().weights, sched, 0.3)
        assert (trace.sample_count, trace.sample_set) == (1, frozenset({2}))

    def test_empty_instance_draws_and_runs_an_empty_schedule(self):
        b = uniform_instance(0, 0)
        sched = draw_schedule(b.weights, trial_rng(0, 0))
        assert (sched.order, sched.sorted_times.tolist(), sched.first_live(0.5)) == ((), [], 0)
        trace = run_trial("sample", b.view, b.weights, sched, 0.5)
        assert (trace.decisions, trace.accepted, trace.sample_count) == ((), frozenset(), 0)
        assert trace.sample_set == frozenset()

    def test_dumped_records_keep_every_checker_verdict(self):
        hat, mhat = hat_graph(3), modified_hat_graph(4)
        oracle = hat_forbidden_oracle(hat)
        checks = {"claw": (hat, lambda t: check_claw_blocker(t, hat)),
                  "forbidden": (hat, lambda t: check_forbidden_consistency(
                      t, oracle, hat.view, hat.weights)[0]),
                  "first-live": (hat, lambda t: check_first_live_accepted(t, hat.view, hat.weights)),
                  "trap": (mhat, lambda t: check_modified_hat_trap(t, mhat))}
        failed = set()
        for name, (b, check) in checks.items():
            for policy in ("sample", "virtual-msp"):
                for p in (0.3, 0.6):
                    for trace in trial_stream(policy, b.view, b.weights, p, 100, 11):
                        buf = io.StringIO()
                        dump_trace(trace_records(trace, b.view, b.weights), buf)
                        rebuilt = trace_from_records(load_records(io.StringIO(buf.getvalue())))
                        assert rebuilt.sample_count == trace.sample_count
                        assert rebuilt.sample_set == trace.sample_set
                        assert rebuilt.accepted == trace.accepted
                        assert check(rebuilt) == check(trace), (name, policy, p)
                        if not check(trace):
                            failed.add(name)
        assert failed == {"claw", "forbidden"}      # both verdicts were carried over
