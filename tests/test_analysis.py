"""Oracles, analytic values, trace checkers, and the verification suites.

The two schedules in TestKnownTableGaps are pinned regressions: they are
concrete runs where the virtual policy must reject an element that the
size-2 blocked-set table for hat instances cannot excuse. The table is
implemented exactly as designed, and these runs document where its
guarantee stops; the conditioned sweep in the same class shows the gaps
vanish once the first claw is fully sampled.
"""

import hashlib
import itertools
import math
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import matsec
from matsec import (
    DecisionRecord,
    DomainError,
    ForbiddenSetOracle,
    HarnessViolation,
    MatroidView,
    OracleError,
    Policy,
    SUITE_NAMES,
    UniformMatroid,
    alpha_p,
    brute_force_mwb,
    certify_no_size1_strong_fs,
    check_claw_blocker,
    check_first_live_accepted,
    check_forbidden_consistency,
    check_matroid_axioms,
    check_modified_hat_trap,
    double_triangle,
    estimate,
    forced_schedule,
    fuzz_corpus,
    hat_forbidden_oracle,
    hat_graph,
    modified_hat_bounds,
    modified_hat_graph,
    reference_bound,
    run_suite,
    run_trial,
    three_sigma,
    trace_from_records,
    trial_rng,
    trial_stream,
    triangle,
    uniform_instance,
)
from matsec.instances import random_graphic
from matsec.policies import OptimisticPolicy
from matsec.simulate import PHASE_LIVE, PHASE_SAMPLE, draw_schedule


def run_forced(policy, bundle, pairs, p):
    schedule = forced_schedule([(bundle.id_of(lab), t) for lab, t in pairs])
    return run_trial(policy, bundle.view, bundle.weights, schedule, p)


class RejectEverything(Policy):
    name = "reject-everything"

    def start(self, view, weights, samples):
        pass

    def decide(self, u):
        from matsec import Decision
        return Decision(False)


class AcceptEveryLive(RejectEverything):
    name = "accept-every-live"

    def decide(self, u):
        from matsec import Decision
        return Decision(True)


# -- the brute-force oracle ------------------------------------------------------


class TestBruteForceMwb:
    def test_triangle(self):
        b = triangle()
        assert brute_force_mwb(b.view, b.weights) == frozenset({1, 2})
        assert brute_force_mwb(b.view, b.weights, [0, 1]) == frozenset({0, 1})
        assert brute_force_mwb(b.view, b.weights, []) == frozenset()

    def test_domain_and_cap(self):
        b = triangle()
        with pytest.raises(DomainError):
            brute_force_mwb(b.view, b.weights, [5])
        big = uniform_instance(21, 3)
        with pytest.raises(OracleError, match="capped"):
            brute_force_mwb(big.view, big.weights)

    def test_agrees_with_greedy_on_corpus(self):
        for bundle in fuzz_corpus(40, seed=9):
            assert brute_force_mwb(bundle.view, bundle.weights) == \
                bundle.view.greedy_mwb(bundle.weights)

    def test_agrees_with_greedy_on_minors(self):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            b = random_graphic(5, 8, rng)
            keep = [u for u in sorted(b.view.ground) if rng.random() < 0.8]
            sub = b.view.restrict(keep)
            basis = sub.greedy_mwb(b.weights)
            pick = [u for u in sorted(basis) if rng.random() < 0.4]
            minor = sub.contract(pick)
            assert brute_force_mwb(minor, b.weights) == minor.greedy_mwb(b.weights)


class TestThreeSigma:
    def test_values(self):
        assert three_sigma(0.5, 10_000) == pytest.approx(0.015)
        assert three_sigma(0.0, 100) == 0.0
        assert three_sigma(1.0, 100) == 0.0


# -- estimate ----------------------------------------------------------------------


class TestEstimate:
    def test_degenerate_cutoffs(self):
        b = uniform_instance(1, 1)
        always = estimate("sample", b, 0.0, trials=20, seed=0)
        assert always.per_element_accept_freq == {0: 1.0}
        assert always.utility_ratio_mean == 1.0
        never = estimate("sample", b, 1.0, trials=20, seed=0)
        assert never.min_over_mwb == 0.0
        assert never.utility_ratio_mean == 0.0

    def test_ratio_identity_on_single_slot(self):
        # sample policy with p=0 accepts exactly the first arrival, so the
        # ratio decomposes over which element came first
        b = uniform_instance(2, 1)
        rep = estimate("sample", b, 0.0, trials=400, seed=3)
        f_heavy = rep.per_element_accept_freq[1]
        assert rep.utility_ratio_mean == pytest.approx(f_heavy + (1 - f_heavy) / 2)
        assert abs(f_heavy - 0.5) < three_sigma(0.5, 400)

    def test_deterministic(self):
        b = triangle()
        a = estimate("virtual-msp", b, 0.5, trials=60, seed=7)
        c = estimate("virtual-msp", b, 0.5, trials=60, seed=7)
        assert a.per_element_accept_freq == c.per_element_accept_freq
        assert a.utility_ratio_mean == c.utility_ratio_mean

    def test_json_shape(self):
        b = triangle()
        rep = replace(estimate("sample", b, 0.5, trials=10, seed=0),
                      analytic_bound=0.25, bound_direction="lower")
        obj = rep.to_json_obj()
        assert list(obj) == ["trials", "perElementAcceptFreq", "minOverMwb",
                             "utilityRatioMean", "ciRadius3Sigma",
                             "analyticBound", "boundDirection"]
        assert obj["trials"] == 10
        assert set(obj["perElementAcceptFreq"]) == {"1", "2"}
        assert obj["analyticBound"] == 0.25

    def test_rejects_empty_run(self):
        with pytest.raises(ValueError):
            estimate("sample", triangle(), 0.5, trials=0, seed=0)

    def test_every_live_decision_is_checked(self):
        # estimate runs the bulk path; an infeasible acceptance still raises
        with pytest.raises(HarnessViolation, match="dependent"):
            estimate(AcceptEveryLive(), uniform_instance(5, 1), 0.3, trials=20, seed=0)

    @pytest.mark.parametrize("policy, bundle", [
        ("virtual-msp", hat_graph(3)),
        (OptimisticPolicy(), uniform_instance(7, 2)),     # an instance passes through
        ("sample", uniform_instance(7, 2)),
    ])
    def test_matches_a_per_trial_resum(self, policy, bundle):
        # oracle: sum each trial's accepted weight as an exact Fraction
        trials, seed, p = 300, 5, 0.4
        total, counts = Fraction(0), dict.fromkeys(bundle.mwb, 0)
        for trace in trial_stream(policy, bundle.view, bundle.weights, p, trials, seed):
            total += bundle.weights.total(trace.accepted)
            for u in trace.accepted & bundle.mwb:
                counts[u] += 1
        report = estimate(policy, bundle, p, trials, seed)
        assert report.utility_ratio_mean == float(
            total / (bundle.weights.total(bundle.mwb) * trials))
        assert report.per_element_accept_freq == {u: c / trials for u, c in counts.items()}


# -- analytic values ----------------------------------------------------------------


class TestAlphaP:
    def test_known_values(self):
        assert alpha_p(1) == (1 / math.e, 1 / math.e)
        assert alpha_p(2) == (0.25, 0.5)
        g3, c3 = alpha_p(3)
        assert g3 == pytest.approx(0.19245, abs=5e-6)
        assert c3 == pytest.approx(0.57735, abs=5e-6)

    def test_large_k_behaves_like_one_over_k(self):
        g, c = alpha_p(100)
        assert 0.9 < g * 100 < 1.0
        assert 0.95 < c < 1.0

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            alpha_p(0)


class TestModifiedHatBounds:
    def test_small_case_exact(self):
        p_n, rejection = modified_hat_bounds(2, 0.5)
        assert p_n == pytest.approx(0.125, abs=1e-12)
        # floor(n/2) = 1 makes the integrand a cubic, which composite
        # Simpson integrates exactly: p + p_n * p * (1-p)^4 / 24
        assert rejection == pytest.approx(0.5 + 0.125 * 0.5 * 0.5 ** 4 / 24,
                                          abs=1e-12)

    def test_trap_probability_saturates(self):
        p_n, rejection = modified_hat_bounds(10 ** 6, 0.5)
        assert p_n > 1 - 1e-6
        assert rejection > 0.5
        assert rejection < 1.0

    def test_rejection_bound_grows_with_n(self):
        values = [modified_hat_bounds(n, 0.5)[1] for n in (2, 4, 16, 64, 256, 1024)]
        assert values == sorted(values)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            modified_hat_bounds(0, 0.5)
        for p in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                modified_hat_bounds(4, p)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 64, 255, 256])
    def test_matches_the_exact_integral(self, n):
        # with h = floor(n/2), c = p/6 and s = t - p, the integrand is
        # 1 - (1 - c s^3)^h; expanding the power binomially gives
        # int_p^1 q = (1-p) - sum_j C(h,j) (-c)^j (1-p)^(3j+1) / (3j+1)
        h = n // 2
        for p in (0.1, 0.25, 0.5, 0.7, 0.9):
            fp = Fraction(p)
            c, rest = fp / 6, 1 - fp
            integral = rest - sum(math.comb(h, j) * (-c) ** j * rest ** (3 * j + 1) / (3 * j + 1)
                                  for j in range(h + 1))
            p_n = 1 - (1 - fp ** 3) ** h
            assert modified_hat_bounds(n, p) == pytest.approx(
                (float(p_n), float(fp + p_n * integral)), abs=1e-12)

    def test_needs_numpy_only(self):
        # scipy is blocked in a fresh interpreter: importing matsec and every
        # analytic value must still work
        src = str(Path(matsec.__file__).resolve().parents[1])
        code = ("import sys; sys.modules['scipy'] = None; sys.path.insert(0, sys.argv[1]); "
                "from matsec import modified_hat_bounds, reference_bound; "
                "print(modified_hat_bounds(64, 0.5)[1], reference_bound('hat', 'virtual-msp', 0.5))")
        done = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split()[1] == "0.25"


class TestReferenceBound:
    def test_hat_virtual_at_one_half(self):
        assert reference_bound("hat", "virtual-msp", 0.5) == 0.25
        assert reference_bound("hat", "virtual", 0.5) == 0.25      # an alias resolves
        assert reference_bound("hat", "virtual-msp", 0.4) is None
        assert reference_bound("modified-hat", "virtual-msp", 0.5) is None
        assert reference_bound("hat", "sample", 0.5) is None

    def test_an_instance_file_has_no_bound(self):
        for policy in ("virtual-msp", "sample"):
            assert reference_bound(None, policy, 0.5) is None
            assert reference_bound(None, policy, 0.5, "e_inf") is None

    def test_dynkin(self):
        for family in ("uniform", None):
            assert reference_bound(family, "dynkin", 0.4) == 0.4 * math.log(1 / 0.4)
            for p in (0.0, 1.0):
                assert reference_bound(family, "dynkin", p) is None

    def test_only_the_hub_edge_has_an_element_bound(self):
        p = 0.3
        assert reference_bound("hat", "virtual-msp", p, "e_inf") == p * p * (1 - p)
        for element in ("t_1", "b_2"):
            assert reference_bound("hat", "virtual-msp", p, element) is None
        assert reference_bound("hat", "sample", p, "e_inf") is None
        assert reference_bound("modified-hat", "virtual-msp", p, "e_inf") is None
        assert reference_bound("uniform", "dynkin", p, "1") is None


# -- the hat blocked-set table -------------------------------------------------------


class TestHatForbiddenOracle:
    def oracle_and_names(self, n=3):
        b = hat_graph(n)
        return b, hat_forbidden_oracle(b)

    def ids(self, b, *names):
        return frozenset(b.ids_of(*names))

    def test_hub_edge_blocked_by_first_claw(self):
        b, oracle = self.oracle_and_names()
        e_inf = b.id_of("e_inf")
        Y = self.ids(b, "t_1", "b_1", "e_inf")
        assert oracle.rule(Y, e_inf) == self.ids(b, "t_1", "b_1")
        # clipped to seen elements
        assert oracle.rule(self.ids(b, "e_inf", "b_1"), e_inf) == self.ids(b, "b_1")
        assert oracle.rule(frozenset({e_inf}), e_inf) == frozenset()

    def test_ordinary_top_edge_blocked_by_its_bottom(self):
        b, oracle = self.oracle_and_names()
        t_2 = b.id_of("t_2")
        assert oracle.rule(self.ids(b, "e_inf", "b_2", "t_2"), t_2) == self.ids(b, "b_2")
        assert oracle.rule(self.ids(b, "e_inf", "t_2"), t_2) == frozenset()

    def test_leftmost_complete_claw_points_to_next(self):
        b, oracle = self.oracle_and_names()
        t_1 = b.id_of("t_1")
        Y = self.ids(b, "t_1", "b_1", "t_2", "b_2")
        assert oracle.rule(Y, t_1) == self.ids(b, "b_2")
        # no later complete claw: empty blocked set
        assert oracle.rule(self.ids(b, "t_1", "b_1"), t_1) == frozenset()

    def test_bottom_edge_cases(self):
        b, oracle = self.oracle_and_names()
        b_2 = b.id_of("b_2")
        Y = self.ids(b, "t_2", "b_2", "t_3", "b_3")
        assert oracle.rule(Y, b_2) == self.ids(b, "b_3")
        assert oracle.rule(self.ids(b, "b_2"), b_2) == frozenset()
        b_1 = b.id_of("b_1")
        Y = self.ids(b, "t_1", "b_1", "t_2", "b_2")
        assert oracle.rule(Y, b_1) == self.ids(b, "b_2")

    def test_sets_respect_size_bound(self):
        b, oracle = self.oracle_and_names(4)
        rng = np.random.default_rng(0)
        ground = sorted(b.view.ground)
        for _ in range(300):
            Y = frozenset(u for u in ground if rng.random() < 0.5)
            for u in Y:
                blocked = oracle.rule(Y, u)
                assert blocked <= Y - {u}
                assert len(blocked) <= oracle.size_bound == 2


# -- trace checkers -------------------------------------------------------------------


def empty_oracle():
    return ForbiddenSetOracle(lambda Y, u: frozenset(), 0)


class TestForbiddenConsistency:
    def test_flags_unexcused_rejection(self):
        b = triangle()
        trace = run_forced(RejectEverything(), b,
                           [("e3", 0.2), ("e2", 0.6), ("e1", 0.8)], 0.5)
        ok, u = check_forbidden_consistency(trace, empty_oracle(),
                                            b.view, b.weights)
        assert not ok
        assert u == b.id_of("e2")

    def test_sample_policy_consistent_under_empty_table(self):
        b = triangle()
        trace = run_forced("sample", b,
                           [("e3", 0.2), ("e2", 0.6), ("e1", 0.8)], 0.5)
        ok, u = check_forbidden_consistency(trace, empty_oracle(),
                                            b.view, b.weights)
        assert ok and u is None

    def test_rejects_malformed_oracles(self):
        b = triangle()
        trace = run_forced("sample", b,
                           [("e3", 0.2), ("e2", 0.6), ("e1", 0.8)], 0.5)
        self_blocker = ForbiddenSetOracle(lambda Y, u: frozenset({u}), 2)
        with pytest.raises(OracleError, match="seen elements"):
            check_forbidden_consistency(trace, self_blocker, b.view, b.weights)
        too_big = ForbiddenSetOracle(lambda Y, u: Y - {u}, 0)
        with pytest.raises(OracleError, match="size bound"):
            check_forbidden_consistency(trace, too_big, b.view, b.weights)

    def test_unrecorded_traces_check_alike(self):
        # every checker reads the schedule, the sample set and the accepted
        # set, so dropping the records changes no verdict and no offender
        for view, weights, table, trace in TestLazyBasis.cases():
            bare = replace(trace, records=())
            assert (check_forbidden_consistency(bare, table, view, weights)
                    == check_forbidden_consistency(trace, table, view, weights))
            assert (check_first_live_accepted(bare, view, weights)
                    == check_first_live_accepted(trace, view, weights))
        for family, table_of, check in (
                (hat_graph, hat_forbidden_oracle, check_claw_blocker),
                (modified_hat_graph, lambda b: empty_oracle(), check_modified_hat_trap)):
            for b, trace in claw_streams(family, (2, 5), trials=20):
                if not trace.records:
                    continue
                bare, table = replace(trace, records=()), table_of(b)
                assert (check_forbidden_consistency(bare, table, b.view, b.weights)
                        == check_forbidden_consistency(trace, table, b.view, b.weights))
                assert (check_first_live_accepted(bare, b.view, b.weights)
                        == check_first_live_accepted(trace, b.view, b.weights))
                assert check(bare, b) == check(trace, b)


class TestKnownTableGaps:
    """Pinned schedules where the hat table cannot excuse a rejection.

    HUB_GAP: the first claw has not fully arrived when the hub edge does,
    so nothing stops an outer claw from being accepted whole; the hub edge
    then fails the independence clause and its blocked pair never showed
    up early. FEAS_GAP: the displaced element of b_2 was a sample, but the
    accepted set already spans b_2's endpoints through other claws, a
    rejection mode the table does not model at all.
    """

    HUB_GAP = [("b_5", 0.353), ("t_3", 0.359), ("t_5", 0.514), ("t_4", 0.521),
               ("b_4", 0.533), ("e_inf", 0.586), ("t_1", 0.602), ("t_2", 0.628),
               ("b_2", 0.681), ("b_3", 0.912), ("b_1", 0.973)]
    FEAS_GAP = [("b_4", 0.262), ("t_3", 0.498), ("b_5", 0.741), ("t_2", 0.763),
                ("t_5", 0.773), ("t_1", 0.840), ("t_4", 0.898), ("b_2", 0.900),
                ("b_3", 0.907), ("e_inf", 0.978), ("b_1", 0.985)]

    def run_gap(self, pairs):
        b = hat_graph(5)
        trace = run_forced("virtual-msp", b, pairs, 0.5)
        ok, u = check_forbidden_consistency(trace, hat_forbidden_oracle(b),
                                            b.view, b.weights)
        return b, trace, ok, u

    def test_hub_edge_gap(self):
        b, trace, ok, u = self.run_gap(self.HUB_GAP)
        assert trace.sample_set == frozenset(b.ids_of("b_5", "t_3"))
        assert trace.accepted == frozenset(b.ids_of("b_4", "t_1", "t_2", "t_4", "t_5"))
        assert not ok
        assert u == b.id_of("e_inf")
        # the rejection is real: the accepted claws span the hub edge
        before = {v for v in trace.accepted
                  if trace.schedule.times[v] < trace.schedule.times[u]}
        assert b.id_of("e_inf") in b.view.span(before)

    def test_feasibility_clause_gap(self):
        b, trace, ok, u = self.run_gap(self.FEAS_GAP)
        assert trace.sample_set == frozenset(b.ids_of("b_4", "t_3"))
        assert trace.accepted == frozenset(b.ids_of("b_5", "t_1", "t_2", "t_5"))
        assert not ok
        assert u == b.id_of("b_2")
        rec = next(r for r in trace.records if r.element == u)
        assert rec.kicked == b.id_of("b_4") and rec.kicked_was_sample
        assert rec.in_current_mwb

    def test_first_live_lemma_still_holds_on_gaps(self):
        for pairs in (self.HUB_GAP, self.FEAS_GAP):
            b, trace, _, _ = self.run_gap(pairs)
            assert check_first_live_accepted(trace, b.view, b.weights)

    def test_gaps_vanish_when_first_claw_is_sampled(self):
        # conditioned on t_1 and b_1 sampled, the table's guarantee is
        # exactly the regime it was designed for: no violations
        b = hat_graph(4)
        oracle = hat_forbidden_oracle(b)
        t_1, b_1 = b.id_of("t_1"), b.id_of("b_1")
        checked = 0
        trial = 0
        while checked < 120:
            sched = draw_schedule(b.weights, trial_rng(424242, trial))
            trial += 1
            if sched.times[t_1] >= 0.5 or sched.times[b_1] >= 0.5:
                continue
            checked += 1
            trace = run_trial("virtual-msp", b.view, b.weights, sched, 0.5)
            ok, u = check_forbidden_consistency(trace, oracle, b.view, b.weights)
            assert ok, f"trial {trial - 1}: {u}"


class TestFirstLiveAccepted:
    def test_holds_for_virtual_runs(self):
        b = hat_graph(4)
        for trace in trial_stream("virtual-msp", b.view, b.weights, 0.5,
                                  trials=200, seed=17, record=True):
            assert check_first_live_accepted(trace, b.view, b.weights)

    def test_false_on_fabricated_rejection(self):
        b = hat_graph(2)
        recs = (
            DecisionRecord(b.id_of("t_1"), 0.1, PHASE_SAMPLE, False, True),
            DecisionRecord(b.id_of("e_inf"), 0.6, PHASE_LIVE, False, True),
        )
        trace = trace_from_records(recs)
        assert not check_first_live_accepted(trace, b.view, b.weights)

    def test_vacuous_without_live_arrivals(self):
        b = hat_graph(2)
        recs = tuple(DecisionRecord(u, 0.1 + 0.05 * u, PHASE_SAMPLE, False, True)
                     for u in sorted(b.view.ground))
        assert check_first_live_accepted(trace_from_records(recs), b.view, b.weights)


# -- the lazy basis ---------------------------------------------------------------


def eager_forbidden_consistency(trace, oracle, view, weights):
    """check_forbidden_consistency as it was before its basis went lazy: a
    from-scratch basis for every live arrival. The reference the lazy
    checker must match verdict for verdict."""
    if not trace.records:
        raise ValueError("consistency check needs a recorded trace")
    arrived: set[int] = set()
    earlier_live: list[int] = []
    for rec in trace.records:
        u = rec.element
        Y = frozenset(arrived | {u})
        if rec.phase == PHASE_LIVE:
            blocked = oracle.rule(Y, u)
            if not blocked <= Y - {u}:
                raise OracleError("blocked set must be drawn from the seen elements")
            if len(blocked) > oracle.size_bound:
                raise OracleError(f"blocked set exceeds size bound {oracle.size_bound}")
            if u in view.greedy_mwb(weights, Y):
                if not rec.accepted and all(v not in blocked for v in earlier_live):
                    return (False, rec)
            earlier_live.append(u)
        arrived.add(u)
    return (True, None)


def eager_first_live_accepted(trace, view, weights):
    """check_first_live_accepted as it was before its basis went lazy."""
    if not trace.records:
        raise ValueError("check needs a recorded trace")
    seen: set[int] = set()
    for rec in trace.records:
        if rec.phase == PHASE_LIVE:
            premise = rec.element in view.greedy_mwb(weights, seen | {rec.element})
            return rec.accepted or not premise
        seen.add(rec.element)
    return True


class TestCheckersRejectStrangers:
    """A trace element outside the view raises DomainError wherever it sits,
    even where neither checker would compute a basis."""

    def test_lone_stranger_sample(self):
        b = hat_graph(2)
        trace = trace_from_records([DecisionRecord(99, 0.1, PHASE_SAMPLE, False, True)])
        with pytest.raises(DomainError, match="99"):
            check_forbidden_consistency(trace, hat_forbidden_oracle(b), b.view, b.weights)
        with pytest.raises(DomainError, match="99"):
            check_first_live_accepted(trace, b.view, b.weights)

    def test_stranger_after_first_live(self):
        b = hat_graph(2)
        trace = trace_from_records([
            DecisionRecord(b.id_of("t_1"), 0.1, PHASE_SAMPLE, False, True),
            DecisionRecord(b.id_of("e_inf"), 0.6, PHASE_LIVE, True, True),
            DecisionRecord(99, 0.7, PHASE_LIVE, False, False)])
        with pytest.raises(DomainError, match="99"):
            check_first_live_accepted(trace, b.view, b.weights)
        with pytest.raises(DomainError, match="99"):
            check_forbidden_consistency(trace, empty_oracle(), b.view, b.weights)

    # the instance checkers read trace.schedule, so they also catch a
    # stranger in an unrecorded trace

    def test_claw_blocker_stranger_sample(self):
        trace = trace_from_records([DecisionRecord(99, 0.1, PHASE_SAMPLE, False, True)])
        with pytest.raises(DomainError, match="99"):
            check_claw_blocker(trace, hat_graph(2))

    def test_claw_blocker_stranger_live(self):
        b = hat_graph(2)
        trace = trace_from_records([
            DecisionRecord(b.id_of("t_1"), 0.1, PHASE_SAMPLE, False, True),
            DecisionRecord(99, 0.7, PHASE_LIVE, True, True)])
        with pytest.raises(DomainError, match="99"):
            check_claw_blocker(trace, b)

    def test_modified_hat_trap_stranger_sample(self):
        trace = trace_from_records([DecisionRecord(99, 0.1, PHASE_SAMPLE, False, True)])
        with pytest.raises(DomainError, match="99"):
            check_modified_hat_trap(trace, modified_hat_graph(2))

    def test_modified_hat_trap_stranger_live(self):
        b = modified_hat_graph(2)
        trace = trace_from_records([
            DecisionRecord(b.id_of("2_1"), 0.1, PHASE_SAMPLE, False, True),
            DecisionRecord(99, 0.7, PHASE_LIVE, True, True)])
        with pytest.raises(DomainError, match="99"):
            check_modified_hat_trap(trace, b)

    def test_unrecorded_stranger(self):
        b = hat_graph(2)
        trace = replace(trace_from_records([DecisionRecord(99, 0.7, PHASE_LIVE, True, True)]),
                        records=())
        with pytest.raises(DomainError, match="99"):
            check_claw_blocker(trace, b)
        with pytest.raises(DomainError, match="99"):
            check_modified_hat_trap(trace, modified_hat_graph(2))


class TestLazyBasis:
    @staticmethod
    def cases():
        """(view, weights, table, trace): seeded virtual-msp streams on
        hat_graph(2..5) under the hat table and the empty table, the same
        with every live arrival rejected, random graphic streams under the
        empty table, and the two pinned gap schedules."""
        for n in range(2, 6):
            b = hat_graph(n)
            for table in (hat_forbidden_oracle(b), empty_oracle()):
                for policy in ("virtual-msp", RejectEverything()):
                    for trace in trial_stream(policy, b.view, b.weights, 0.5,
                                              trials=150, seed=n, record=True):
                        yield b.view, b.weights, table, trace
        for seed in range(40):
            g = random_graphic(5, 9, np.random.default_rng(seed))
            for policy in ("virtual-msp", RejectEverything()):
                for trace in trial_stream(policy, g.view, g.weights, 0.4,
                                          trials=5, seed=seed, record=True):
                    yield g.view, g.weights, empty_oracle(), trace
        b = hat_graph(5)
        for pairs in (TestKnownTableGaps.HUB_GAP, TestKnownTableGaps.FEAS_GAP):
            trace = run_forced("virtual-msp", b, pairs, 0.5)
            for table in (hat_forbidden_oracle(b), empty_oracle()):
                yield b.view, b.weights, table, trace

    def test_verdicts_match_the_eager_checkers(self):
        seen = set()
        for view, weights, table, trace in self.cases():
            ok, u = check_forbidden_consistency(trace, table, view, weights)
            eager_ok, eager_rec = eager_forbidden_consistency(trace, table, view, weights)
            assert ok == eager_ok
            assert u == (None if eager_rec is None else eager_rec.element)
            first_live = check_first_live_accepted(trace, view, weights)
            assert first_live == eager_first_live_accepted(trace, view, weights)
            seen.add((ok, first_live))
        assert seen == {(True, True), (False, True), (False, False)}

    def test_suite_computes_a_basis_only_where_a_verdict_reads_it(self, monkeypatch):
        # count from the traces, before greedy_mwb is counted: one basis per
        # rejected live arrival that no earlier live arrival excuses, up to
        # the first offending one, plus one per trace whose first live
        # arrival was rejected
        b = hat_graph(5)
        table = hat_forbidden_oracle(b)
        expected = 0
        for trace in trial_stream("virtual-msp", b.view, b.weights, 0.5,
                                  trials=200, seed=0, record=True):
            arrived, earlier_live = set(), []
            for rec in trace.records:
                arrived.add(rec.element)
                if rec.phase != PHASE_LIVE:
                    continue
                blocked = table.rule(frozenset(arrived), rec.element)
                if not rec.accepted and blocked.isdisjoint(earlier_live):
                    expected += 1
                    if rec.element in b.view.greedy_mwb(b.weights, arrived):
                        break
                earlier_live.append(rec.element)
            live = [rec for rec in trace.records if rec.phase == PHASE_LIVE]
            expected += bool(live) and not live[0].accepted
        calls = []
        greedy_mwb = MatroidView.greedy_mwb

        def counted(view, weights, S=None):
            calls.append(S)
            return greedy_mwb(view, weights, S)

        monkeypatch.setattr(MatroidView, "greedy_mwb", counted)
        result = run_suite("forbidden-consistency", trials=200, seed=0)
        assert result.failures                      # C8's gap shows at this size too
        assert calls[0] is None                     # building hat_graph(5): its optimum
        assert 0 < len(calls) - 1 == expected


class TestClawBlocker:
    def test_live_run_respects_blocking(self):
        b = hat_graph(2)
        pairs = [("t_1", 0.05), ("b_1", 0.15), ("t_2", 0.55),
                 ("b_2", 0.65), ("e_inf", 0.75)]
        trace = run_forced("virtual-msp", b, pairs, 0.25)
        assert check_claw_blocker(trace, b)
        assert b.id_of("e_inf") in trace.accepted
        assert b.id_of("b_2") not in trace.accepted

    def test_vacuous_when_premise_fails(self):
        b = hat_graph(2)
        pairs = [("t_1", 0.55), ("b_1", 0.15), ("t_2", 0.6),
                 ("b_2", 0.65), ("e_inf", 0.75)]
        trace = run_forced("virtual-msp", b, pairs, 0.25)
        assert check_claw_blocker(trace, b)

    def test_false_when_hub_edge_rejected(self):
        b = hat_graph(2)
        recs = (
            DecisionRecord(b.id_of("t_1"), 0.05, PHASE_SAMPLE, False, True),
            DecisionRecord(b.id_of("b_1"), 0.10, PHASE_SAMPLE, False, True),
            DecisionRecord(b.id_of("t_2"), 0.55, PHASE_LIVE, True, True),
            DecisionRecord(b.id_of("b_2"), 0.60, PHASE_LIVE, False, False),
            DecisionRecord(b.id_of("e_inf"), 0.70, PHASE_LIVE, False, True),
        )
        assert not check_claw_blocker(trace_from_records(recs), b)

    # at 0.60 the hub edge ties b_2, as two times rounded by dump_trace can;
    # the records still put b_2 first
    @pytest.mark.parametrize("hub_time", [0.70, 0.60])
    def test_false_when_a_claw_is_fully_accepted_first(self, hub_time):
        b = hat_graph(2)
        recs = (
            DecisionRecord(b.id_of("t_1"), 0.05, PHASE_SAMPLE, False, True),
            DecisionRecord(b.id_of("b_1"), 0.10, PHASE_SAMPLE, False, True),
            DecisionRecord(b.id_of("t_2"), 0.55, PHASE_LIVE, True, True),
            DecisionRecord(b.id_of("b_2"), 0.60, PHASE_LIVE, True, False),
            DecisionRecord(b.id_of("e_inf"), hub_time, PHASE_LIVE, True, True),
        )
        assert not check_claw_blocker(trace_from_records(recs), b)


class TestModifiedHatTrap:
    def trap_pairs(self):
        # claw 1 fully sampled except 1_1; claw 2 has 2_2 sampled and
        # 1_2, 3_2, 4_2 live in time order before the hub edge
        return [("2_1", 0.05), ("3_1", 0.10), ("4_1", 0.15), ("2_2", 0.20),
                ("1_2", 0.30), ("3_2", 0.40), ("4_2", 0.50), ("e_inf", 0.60),
                ("1_1", 0.70)]

    def test_live_run_gets_trapped(self):
        b = modified_hat_graph(2)
        trace = run_forced("virtual-msp", b, self.trap_pairs(), 0.25)
        assert check_modified_hat_trap(trace, b)
        assert b.id_of("1_2") in trace.accepted
        assert b.id_of("4_2") in trace.accepted
        assert b.id_of("e_inf") not in trace.accepted

    def test_vacuous_when_hub_edge_sampled(self):
        b = modified_hat_graph(2)
        pairs = [(lab, t) for lab, t in self.trap_pairs() if lab != "e_inf"]
        pairs.append(("e_inf", 0.22))
        trace = run_forced("virtual-msp", b, pairs, 0.25)
        assert check_modified_hat_trap(trace, b)

    # tied: 1_2, 3_2, 4_2 and the hub edge share one time but keep their
    # record order, as arrivals rounded by dump_trace can
    @pytest.mark.parametrize("tied", [False, True])
    def test_false_when_trap_edges_rejected(self, tied):
        b = modified_hat_graph(2)
        phases = {"2_1": PHASE_SAMPLE, "3_1": PHASE_SAMPLE,
                  "4_1": PHASE_SAMPLE, "2_2": PHASE_SAMPLE}
        trap = ("1_2", "3_2", "4_2", "e_inf")
        recs = tuple(
            DecisionRecord(b.id_of(lab), 0.40 if tied and lab in trap else t,
                           phases.get(lab, PHASE_LIVE), False, True)
            for lab, t in self.trap_pairs())
        assert not check_modified_hat_trap(trace_from_records(recs), b)

    def test_claw_with_absent_edges_is_skipped(self):
        # 1_2, 3_2 and 4_2 are missing from the records, so none of them is live
        b = modified_hat_graph(2)
        recs = [DecisionRecord(b.id_of(lab), t, PHASE_SAMPLE, False, True)
                for lab, t in self.trap_pairs()[:4]]
        recs.append(DecisionRecord(b.id_of("e_inf"), 0.60, PHASE_LIVE, True, True))
        assert check_modified_hat_trap(trace_from_records(recs), b)


# -- the claw layout -------------------------------------------------------------
#
# The checkers and the blocked-set table read each claw's ids from
# bundle.claws. The references below find them from the role labels
# instead, as the checkers once did; on valid hat traces the two must
# agree verdict for verdict (the references skip the stranger check).


def label_claw_blocker(trace, bundle):
    named = bundle.named
    e_inf = named["e_inf"]
    n = (bundle.weights.count - 1) // 2
    S = trace.sample_set
    if not (named["t_1"] in S and named["b_1"] in S and e_inf not in S):
        return True
    if e_inf not in trace.accepted:
        return False
    times = trace.schedule.times
    t_hub = times[e_inf]
    for i in range(1, n + 1):
        ti, bi = named[f"t_{i}"], named[f"b_{i}"]
        if (ti in trace.accepted and bi in trace.accepted
                and times[ti] < t_hub and times[bi] < t_hub):
            return False
    return True


def label_modified_hat_trap(trace, bundle):
    named = bundle.named
    e_inf = named["e_inf"]
    n = (bundle.weights.count - 1) // 4
    S = trace.sample_set
    if e_inf in S:
        return True
    times = trace.schedule.times
    t_hub = times[e_inf]
    first_sampled = next((j for j in range(1, n + 1) if named[f"2_{j}"] in S
                          and named[f"3_{j}"] in S and named[f"4_{j}"] in S), n)
    for i in range(first_sampled + 1, n + 1):
        if named[f"2_{i}"] not in S:
            continue
        e1, e3, e4 = named[f"1_{i}"], named[f"3_{i}"], named[f"4_{i}"]
        if any(e in S for e in (e1, e3, e4)):
            continue
        if not times[e1] < times[e3] < times[e4] < t_hub:
            continue
        if e1 not in trace.accepted or e4 not in trace.accepted:
            return False
    return True


def label_forbidden_rule(bundle):
    e_inf = bundle.named["e_inf"]
    n = (bundle.weights.count - 1) // 2
    top = {bundle.named[f"t_{i}"]: i for i in range(1, n + 1)}
    bottom = {bundle.named[f"b_{i}"]: i for i in range(1, n + 1)}
    t_of = {i: u for u, i in top.items()}
    b_of = {i: u for u, i in bottom.items()}

    def rule(Y, u):
        if u == e_inf:
            return frozenset({t_of[1], b_of[1]}) & (Y - {u})
        i = top[u] if u in top else bottom[u]
        if e_inf not in Y:
            complete = [j for j in range(1, n + 1) if t_of[j] in Y and b_of[j] in Y]
            if complete and complete[0] == i:
                later = [j for j in complete if j > i]
                return frozenset({b_of[later[0]]}) if later else frozenset()
        return frozenset({b_of[i]}) & (Y - {u}) if u in top else frozenset()

    return rule


def claw_streams(family, sizes, trials):
    """(bundle, trace) over seeded streams of three policies at three
    cutoffs, each with records on and off."""
    for n in sizes:
        b = family(n)
        for policy in ("virtual-msp", "sample", "sample-contracted"):
            for p in (0.3, 0.5, 0.7):
                for record in (False, True):
                    for trace in trial_stream(policy, b.view, b.weights, p, trials,
                                              seed=n, record=record):
                        yield b, trace


class TestClawLayout:
    def test_claw_blocker_matches_the_label_reference(self):
        verdicts = []
        for b, trace in claw_streams(hat_graph, range(1, 7), trials=40):
            verdicts.append(check_claw_blocker(trace, b))
            assert verdicts[-1] == label_claw_blocker(trace, b)
        assert set(verdicts) == {True, False}

    def test_modified_hat_trap_matches_the_label_reference(self):
        verdicts = []
        for b, trace in claw_streams(modified_hat_graph, range(1, 17), trials=25):
            verdicts.append(check_modified_hat_trap(trace, b))
            assert verdicts[-1] == label_modified_hat_trap(trace, b)
        assert set(verdicts) == {True, False}

    @pytest.mark.parametrize("n", [2, 3])
    def test_blocked_sets_match_the_label_reference(self, n):
        b = hat_graph(n)
        rule, reference = hat_forbidden_oracle(b).rule, label_forbidden_rule(b)
        ground = sorted(b.view.ground)
        for r in range(len(ground) + 1):
            for Y in map(frozenset, itertools.combinations(ground, r)):
                for u in ground:
                    assert rule(Y, u) == reference(Y, u), (sorted(Y), u)


class TestWrongFamily:
    """Each hat reader names itself and the family it needs when handed a
    bundle of another family, whatever the trace (the bundle's own one here)."""

    def others(self, family):
        hat, modified = hat_graph(2), modified_hat_graph(2)
        return [modified if family == "hat" else hat, triangle(), double_triangle(),
                replace(hat if family == "hat" else modified, claws=())]

    @pytest.mark.parametrize("check, family", [
        (check_claw_blocker, "hat"), (check_modified_hat_trap, "modified-hat")])
    def test_trace_checkers(self, check, family):
        for b in self.others(family):
            trace = next(trial_stream("virtual-msp", b.view, b.weights, 0.5, 1, seed=0))
            with pytest.raises(ValueError, match=f"^{check.__name__} needs a {family} instance$"):
                check(trace, b)

    def test_forbidden_table(self):
        for b in self.others("hat"):
            with pytest.raises(ValueError, match="^hat_forbidden_oracle needs a hat instance$"):
                hat_forbidden_oracle(b)


class TestKnownTrapGap:
    """Pinned schedule where the trap acceptance claim fails on a real run.

    The claim promises both light edges of a primed claw get accepted, but
    it only argues about the running max-weight basis. Here the live chain
    2_1, 3_1, 4_1 is accepted first (2_1 displaces the sampled 2_2), which
    walls off the bottom vertex inside the accepted set. Claw 3 is primed
    exactly as the claim requires, its 1_3 is accepted, and its 4_3 passes
    both basis clauses (it enters the basis displacing the sampled 2_3),
    yet the independence clause vetoes it. The damage is contained: the
    accepted wall spans the hub edge's endpoints, so the hub edge is
    rejected either way and the degradation bound is untouched.
    """

    TRAP_GAP = [("2_2", 0.10), ("3_2", 0.15), ("4_2", 0.20), ("2_3", 0.25),
                ("1_2", 0.30), ("4_1", 0.52), ("3_1", 0.55), ("2_1", 0.58),
                ("1_3", 0.62), ("3_3", 0.70), ("4_3", 0.80), ("1_1", 0.90),
                ("e_inf", 0.95)]

    def test_primed_claw_pair_not_accepted(self):
        b = modified_hat_graph(3)
        trace = run_forced("virtual-msp", b, self.TRAP_GAP, 0.5)
        assert not check_modified_hat_trap(trace, b)
        assert trace.sample_set == frozenset(
            b.ids_of("2_2", "3_2", "4_2", "2_3", "1_2"))
        assert trace.accepted == frozenset(b.ids_of("2_1", "3_1", "4_1", "1_3"))

    def test_rejection_comes_from_the_independence_clause(self):
        b = modified_hat_graph(3)
        trace = run_forced("virtual-msp", b, self.TRAP_GAP, 0.5)
        rec = next(r for r in trace.records if r.element == b.id_of("4_3"))
        assert not rec.accepted
        assert rec.in_current_mwb
        assert rec.kicked == b.id_of("2_3") and rec.kicked_was_sample
        accepted_before = frozenset(
            r.element for r in trace.records if r.accepted and r.time < rec.time)
        assert not b.view.is_independent(accepted_before | {rec.element})

    def test_hub_edge_still_rejected(self):
        b = modified_hat_graph(3)
        trace = run_forced("virtual-msp", b, self.TRAP_GAP, 0.5)
        assert b.id_of("e_inf") not in trace.accepted


# -- the size-1 impossibility certificate ----------------------------------------------


class TestCertificate:
    def test_every_assignment_fails(self):
        cert = certify_no_size1_strong_fs()
        assert cert.checked_assignments == 16
        assert len(cert.violations) == 16
        assert cert.complete

    def test_violations_are_genuine(self):
        cert = certify_no_size1_strong_fs()
        b = double_triangle()
        for v in cert.violations:
            forced = [b.id_of(lab) for lab in v.accepted]
            assert not b.view.is_independent(forced)
            times = [t for _, t in v.schedule]
            assert len(set(times)) == len(times)
            labels = {lab for lab, _ in v.schedule}
            assert set(v.accepted) <= labels

    def test_stage_two_kills_the_diagonal_table(self):
        cert = certify_no_size1_strong_fs()
        diagonal = [v for v in cert.violations if "every pair" in v.assignment]
        assert len(diagonal) == 1
        assert list(diagonal[0].accepted) == ["e_1_2", "e_2_2", "e_3_2"]

    def test_json_shape(self):
        obj = certify_no_size1_strong_fs().to_json_obj()
        assert list(obj) == ["checkedAssignments", "violations"]
        assert list(obj["violations"][0]) == ["assignment", "schedule", "accepted"]


# -- axiom checks and suites --------------------------------------------------------


class TestMatroidAxioms:
    def test_clean_views_pass(self):
        assert check_matroid_axioms(triangle().view) == []
        assert check_matroid_axioms(uniform_instance(4, 2).view) == []
        assert check_matroid_axioms(MatroidView.full(UniformMatroid(3, 0))) == []

    def test_detects_broken_exchange(self):
        class NotAMatroid:
            ground = frozenset({0, 1, 2})

            def is_independent(self, S):
                S = frozenset(S)
                return S in ({frozenset(), frozenset({0}), frozenset({1}),
                              frozenset({2}), frozenset({0, 1})})

        failures = check_matroid_axioms(NotAMatroid())
        assert any("exchange" in f for f in failures)

    def test_detects_broken_downward_closure(self):
        class NotDownwardClosed:
            ground = frozenset({0, 1})

            def is_independent(self, S):
                S = frozenset(S)
                return S in (frozenset(), frozenset({0, 1}))

        failures = check_matroid_axioms(NotDownwardClosed())
        assert any("downward" in f for f in failures)

    def test_exhaustive_cap(self):
        with pytest.raises(ValueError, match="cap"):
            check_matroid_axioms(uniform_instance(11, 2).view)


class TestSuites:
    def test_names_are_registered(self):
        assert set(SUITE_NAMES) == {"matroid-axioms", "mwb-lemmas",
                                    "equivalences", "claw-blocker",
                                    "forbidden-consistency"}
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("spectral")

    def test_matroid_axioms_suite(self):
        result = run_suite("matroid-axioms", cases=6, seed=1)
        assert result.passed and result.cases > 40

    def test_mwb_lemmas_suite(self):
        result = run_suite("mwb-lemmas", cases=150, seed=1)
        assert result.passed

    def test_equivalences_suite(self):
        result = run_suite("equivalences", cases=25, seed=1)
        assert result.passed

    def test_claw_blocker_suite(self):
        result = run_suite("claw-blocker", trials=300, seed=1, n=4)
        assert result.passed

    def test_unread_arguments_are_rejected(self):
        with pytest.raises(ValueError, match="--trials does not apply to suite matroid-axioms"):
            run_suite("matroid-axioms", cases=2, trials=7, p=9.0)
        with pytest.raises(ValueError, match="--cases does not apply to suite claw-blocker"):
            run_suite("claw-blocker", cases=3)
        result = run_suite("claw-blocker", trials=30)
        assert result.passed and result.cases == 30
        # p left as None is 1/2: the failure list depends on p
        at = {p: run_suite("forbidden-consistency", trials=300, p=p).failures
              for p in (None, 0.5, 0.3)}
        assert at[None] == at[0.5] != at[0.3]

    def test_forbidden_consistency_failures_are_pinned(self):
        # the failure list at the suite's defaults and seed 0, as recorded
        # traces reported it; bench/workloads.py pins the same digest
        result = run_suite("forbidden-consistency", n=5, p=0.5, trials=1000, seed=0)
        out = "".join(f"{f}\n" for f in result.failures).encode()
        assert len(result.failures) == 37
        assert hashlib.sha256(out).hexdigest() == (
            "5292c19e0a8894b7386060b8472358fc5e5ce3f7ca0a663aab89573f08f6a8cd")

    def test_forbidden_consistency_suite_reports_the_gap(self):
        # the honest outcome: the size-2 hat table is refuted by simulation,
        # so this suite reports a small but steady violation rate
        result = run_suite("forbidden-consistency", trials=300, seed=0, n=5)
        assert not result.passed
        assert 0 < len(result.failures) < 60
