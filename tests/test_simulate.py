"""Arrival schedules, the trial harness, and trace serialization."""

import io
import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from matsec import (
    ArrivalSchedule,
    Decision,
    DecisionRecord,
    DomainError,
    HarnessViolation,
    Policy,
    draw_schedule,
    dump_schedule,
    dump_trace,
    forced_schedule,
    hat_graph,
    load_records,
    parse_schedule,
    random_graphic,
    run_trial,
    trace_from_records,
    trial_rng,
    trial_stream,
    triangle,
    uniform_instance,
)
from matsec import simulate
from matsec.simulate import (PHASE_LIVE, PHASE_SAMPLE, _pcg64_states, _words,
                             dump_json_line, json_ready)


class AcceptEveryLive(Policy):
    """Accepts every live arrival, so any second acceptance on a 1-uniform
    instance makes the accepted set dependent."""

    name = "accept-every-live"

    def start(self, view, weights):
        pass

    def observe_sample(self, u):
        pass

    def decide(self, u):
        return Decision(True)


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
        assert streamed[3].schedule.times == direct.times


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
        streamed = trial_stream("virtual-msp", b.view, b.weights, 0.5, 1030, seed, record=True)
        for i, trace in enumerate(streamed):    # 1030 trials span the first block boundary
            direct = run_trial("virtual-msp", b.view, b.weights,
                               draw_schedule(b.weights, trial_rng(seed, i)), 0.5)
            assert trace.schedule.arrival == direct.schedule.arrival, i
            assert trace.records == direct.records, i
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
        assert [t.schedule.arrival for t in streamed] == \
               [draw_schedule(b.weights, trial_rng(seed, i)).arrival for i in range(3)]

    def test_self_check_mismatch_falls_back_to_trial_rng(self, monkeypatch):
        b = hat_graph(3)

        def arrivals():
            return [t.schedule.arrival
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
        assert set(sched.times) == set(range(6))
        assert all(0.0 <= t < 1.0 for t in sched.times.values())
        assert list(sched.order) == sorted(sched.times, key=lambda u: (sched.times[u], u))

    def test_arrival_is_sorted_and_aligned_with_order(self):
        b = uniform_instance(50, 2)
        sched = draw_schedule(b.weights, trial_rng(4, 9))
        raw = trial_rng(4, 9).random(50)
        assert sorted(sched.order) == list(range(50))
        assert all(a <= c for a, c in zip(sched.arrival, sched.arrival[1:]))
        assert sched.arrival == tuple(float(raw[u]) for u in sched.order)

    def test_times_is_a_lazy_read_only_view(self):
        b = uniform_instance(6, 2)
        sched = draw_schedule(b.weights, trial_rng(2, 5))
        assert sched.times == dict(zip(sched.order, sched.arrival))
        assert sched.times is sched.times
        with pytest.raises(TypeError):
            sched.times[0] = 0.5

    def test_times_look_uniform(self):
        ws = uniform_instance(2000, 1).weights
        sched = draw_schedule(ws, trial_rng(1, 0))
        times = np.fromiter(sched.times.values(), dtype=float)
        assert abs(times.mean() - 0.5) < 0.04
        assert abs((times < 0.3).mean() - 0.3) < 0.04


class TestForcedSchedule:
    def test_round_trip_order(self):
        sched = forced_schedule([(2, 0.9), (0, 0.1), (1, 0.5)])
        assert sched.order == (0, 1, 2)
        assert sched.times[2] == 0.9

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
        assert [r.phase for r in trace.records] == [PHASE_SAMPLE] * m + [PHASE_LIVE] * (4 - m)


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
    @pytest.mark.parametrize("record", [True, False])
    def test_hand_built_schedule_must_cover_ground(self, order, arrival, record):
        b = triangle()
        with pytest.raises(DomainError, match="ground set"):
            run_trial("sample", b.view, b.weights, ArrivalSchedule(order, arrival), 0.5,
                      record=record)

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

    def test_boundary_time_is_live_without_records(self):
        # the bulk path splits at the cutoff by bisection; ties with p stay live
        b = uniform_instance(3, 2)
        sched = ArrivalSchedule((0, 1, 2), (0.25, 0.5, 0.5))
        trace = run_trial("sample", b.view, b.weights, sched, 0.5, record=False)
        assert trace.sample_set == frozenset({0})
        assert trace.accepted == frozenset({1, 2})
        assert trace.records == ()

    @pytest.mark.parametrize("record", [True, False])
    def test_every_live_decision_is_checked(self, record):
        # the second acceptance overfills the single slot; a harness that
        # stopped asking once the accepted set spans would never see it
        b = uniform_instance(5, 1)
        sched = forced_schedule([(u, 0.1 * (u + 1)) for u in range(5)])
        with pytest.raises(HarnessViolation, match="dependent"):
            run_trial(AcceptEveryLive(), b.view, b.weights, sched, 0.0, record=record)

    def test_record_flag_only_drops_records(self):
        b = triangle()
        sched = forced_schedule([(0, 0.1), (1, 0.6), (2, 0.8)])
        full = run_trial("virtual-msp", b.view, b.weights, sched, 0.5)
        bare = run_trial("virtual-msp", b.view, b.weights, sched, 0.5, record=False)
        assert bare.records == ()
        assert len(full.records) == 3
        assert bare.accepted == full.accepted
        assert bare.sample_set == full.sample_set == frozenset({0})
        assert bare.schedule.times == full.schedule.times

    def test_in_current_mwb_is_harness_computed(self):
        b = triangle()
        sched = forced_schedule([(2, 0.1), (1, 0.4), (0, 0.7)])
        trace = run_trial("sample", b.view, b.weights, sched, 0.0)
        flags = {r.element: r.in_current_mwb for r in trace.records}
        assert flags == {2: True, 1: True, 0: False}

    def test_phases_follow_cutoff(self):
        b = uniform_instance(4, 2)
        sched = forced_schedule([(0, 0.1), (1, 0.39), (2, 0.41), (3, 0.9)])
        trace = run_trial("sample", b.view, b.weights, sched, 0.4)
        phases = [r.phase for r in trace.records]
        assert phases == [PHASE_SAMPLE, PHASE_SAMPLE, PHASE_LIVE, PHASE_LIVE]

    def test_greedy_policy_cannot_break_independence(self):
        class TakeEverything(Policy):
            name = "take-everything"

            def start(self, view, weights):
                pass

            def observe_sample(self, u):
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
        assert a.records == c.records


class TestInvariances:
    def test_time_reparameterization(self):
        # halving every arrival time and the cutoff preserves order and
        # sample membership, so every decision must be identical
        for seed in range(5):
            rng = np.random.default_rng(seed)
            b = random_graphic(5, 8, rng)
            sched = draw_schedule(b.weights, trial_rng(seed, 1))
            half = forced_schedule([(u, t / 2) for u, t in sched.times.items()])
            a = run_trial("virtual-msp", b.view, b.weights, sched, 0.6)
            c = run_trial("virtual-msp", b.view, b.weights, half, 0.3)
            assert a.accepted == c.accepted
            assert [(r.element, r.accepted, r.kicked) for r in a.records] == \
                   [(r.element, r.accepted, r.kicked) for r in c.records]

    def test_decisions_ignore_the_future(self):
        b = uniform_instance(6, 3)
        prefix = [(0, 0.10), (1, 0.20), (2, 0.55)]
        tails = ([(3, 0.70), (4, 0.80), (5, 0.90)],
                 [(5, 0.70), (4, 0.75), (3, 0.95)])
        traces = [run_trial("virtual-msp", b.view, b.weights,
                            forced_schedule(prefix + tail), 0.5)
                  for tail in tails]
        heads = [[(r.element, r.phase, r.accepted, r.kicked) for r in t.records[:3]]
                 for t in traces]
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

    def test_record_field_order_is_pinned(self):
        rec = DecisionRecord(2, 0.2, PHASE_SAMPLE, False, True)
        buf = io.StringIO()
        dump_json_line(rec.to_json_obj(), buf)
        assert buf.getvalue() == (
            '{"element":2,"time":0.2,"phase":"sample","accepted":false,'
            '"inCurrentMwb":true,"kicked":null,"kickedWasSample":null}\n')

    def test_round_trip(self):
        _, trace = self.make_trace()
        buf = io.StringIO()
        dump_trace(trace, buf)
        buf.seek(0)
        records = load_records(buf)
        assert records == trace.records

    def test_trace_from_records_rebuilds_everything(self):
        _, trace = self.make_trace()
        rebuilt = trace_from_records(trace.records)
        assert rebuilt.accepted == trace.accepted
        assert rebuilt.sample_set == trace.sample_set
        assert rebuilt.schedule.times == trace.schedule.times
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
        _, trace = self.make_trace()
        records = edit(list(trace.records))
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
        dump_trace(trace, buf)
        buf.seek(0)
        records = load_records(buf)
        assert records[0].time == records[1].time
        rebuilt = trace_from_records(records)
        assert rebuilt.schedule.order == (2, 1, 0) == sched.order
        assert rebuilt.sample_set == trace.sample_set == {2, 1}
        assert rebuilt.accepted == trace.accepted

    def test_json_lines_parse_individually(self):
        _, trace = self.make_trace()
        buf = io.StringIO()
        dump_trace(trace, buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 3
        keys = list(json.loads(lines[0]))
        assert keys == ["element", "time", "phase", "accepted",
                        "inCurrentMwb", "kicked", "kickedWasSample"]


class TestScheduleSerialization:
    def test_round_trip_is_exact(self):
        b = uniform_instance(5, 2)
        sched = draw_schedule(b.weights, trial_rng(3, 7))
        buf = io.StringIO()
        dump_schedule(sched, buf)
        buf.seek(0)
        parsed = parse_schedule(buf)
        assert parsed.times == sched.times
        assert parsed.order == sched.order

    def test_comments_allowed(self):
        text = "# header\nschedule 0 0.25\n\nschedule 1 0.75\n"
        sched = parse_schedule(io.StringIO(text))
        assert sched.times == {0: 0.25, 1: 0.75}

    def test_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="bad schedule line"):
            parse_schedule(io.StringIO("arrival 0 0.5\n"))
