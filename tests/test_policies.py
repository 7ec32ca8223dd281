"""Policy decision procedures and the incremental basis kernels behind them."""

import collections
import hashlib
import io
import itertools
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import matsec
from matsec import (
    DomainError,
    GraphicMatroid,
    MatroidView,
    Policy,
    PolicyViolation,
    POLICY_NAMES,
    PreconditionError,
    UniformMatroid,
    WeightedGroundSet,
    build_policy,
    double_triangle,
    draw_schedule,
    dump_trace,
    forced_schedule,
    hat_graph,
    load_records,
    modified_hat_graph,
    random_graphic,
    run_trial,
    running_mwb,
    trace_from_records,
    trace_records,
    trial_rng,
    trial_stream,
    triangle,
    uniform_instance,
)
from matsec.policies import (
    AcceptedSetTracker,
    POLICIES,
    Decision,
    DynkinPolicy,
    GreedyFrameworkPolicy,
    _ACCEPT,
    _REJECT,
    _GraphicRunningMwb,
    _GreedyRunningMwb,
    _decision,
)
from matsec.cli import main


def forest_parents(kernel):
    """Each vertex's parent in the forest kernel, or None at a root, read off
    its parent edge and the edge's endpoints; [] for the greedy kernel, which
    keeps no forest."""
    parents = []
    for x, e in enumerate(getattr(kernel, "_parent_edge", [])):
        if e is None:
            parents.append(None)
            continue
        ends = kernel._endpoints[e]
        assert x in ends, (x, e)            # x is an endpoint of its parent edge
        parents.append(ends[ends[0] == x])
    return parents


def forest_depth(kernel):
    """Longest parent chain in the forest kernel; 0 for the greedy kernel.
    A chain in a forest has fewer steps than vertices; a longer one fails."""
    parent = forest_parents(kernel)
    depth = 0
    for v in range(len(parent)):
        x, steps = v, 0
        while parent[x] is not None:
            x, steps = parent[x], steps + 1
            assert steps < len(parent), f"the parent chain of {v} never ends"
        depth = max(depth, steps)
    return depth


def assert_chain_ends(kernel, v):
    """The forest kernel's parent chain from v reaches a root in fewer steps
    than there are vertices, so it walks no cycle."""
    parent_edge, other_end, x = kernel._parent_edge, kernel._other_end, v
    for _ in parent_edge:
        if parent_edge[x] is None:
            return
        x ^= other_end[parent_edge[x]]
    raise AssertionError(f"the parent chain of {v} never ends")


def assert_forest_well_formed(kernel):
    """Each parent edge has its vertex as an endpoint, every parent chain
    ends at a root, and the parent edges are the basis, each stored once."""
    parent = forest_parents(kernel)
    for v in range(len(parent)):
        x = v
        for _ in range(len(parent)):        # a chain in a forest has fewer steps
            if x is None:
                break
            x = parent[x]
        assert x is None, f"the parent chain of {v} never ends"
    edges = [e for e in kernel._parent_edge if e is not None]
    assert sorted(edges) == sorted(kernel.basis())


def labels_of(bundle, ids):
    return sorted(bundle.weights.label(u) for u in ids)


def run_forced(policy, bundle, pairs, p):
    schedule = forced_schedule([(bundle.id_of(lab), t) for lab, t in pairs])
    return run_trial(policy, bundle.view, bundle.weights, schedule, p)


def _seeded_schedule(bundle, seed):
    return draw_schedule(bundle.weights, trial_rng(seed, 0))


# -- incremental max-weight basis kernels ---------------------------------------


class TestRunningMwb:
    def test_uniform_kick_sequence(self):
        b = uniform_instance(6, 2)
        kernel = running_mwb(b.view, b.weights)
        assert kernel.insert(2) == (True, None)
        assert kernel.insert(0) == (True, None)
        assert kernel.insert(5) == (True, 0)
        assert kernel.insert(1) == (False, None)
        assert kernel.basis() == frozenset({2, 5})

    def test_rejects_duplicates_and_strangers(self):
        # the restriction puts the forest kernel on fewer elements than its base:
        # the base edge 2 outside it is a stranger, not a repeat
        tri, uni = triangle(), uniform_instance(3, 1)
        for view, weights in ((uni.view, uni.weights), (tri.view, tri.weights),
                              (tri.view.contract([2]), tri.weights),
                              (tri.view.restrict([0, 1]), tri.weights)):
            kernel = running_mwb(view, weights)
            kernel.insert(1)
            with pytest.raises(ValueError, match="twice"):
                kernel.insert(1)
            for stranger in sorted({2, 9} - view.ground):
                with pytest.raises(DomainError):
                    kernel.insert(stranger)
            assert kernel.basis() == {1}            # a failed insert changes nothing
            assert kernel.insert(0)[0] == (0 in view.greedy_mwb(weights, {0, 1}))
            with pytest.raises(ValueError, match="twice"):
                kernel.insert(0)                    # inserted, whether or not it entered

    def test_forest_serves_exactly_the_uncontracted_graphic_views(self):
        # every benchmark insert goes into a full graphic view: it must stay on the forest
        tri, hat, uni = triangle(), modified_hat_graph(3), uniform_instance(5, 2)
        cases = [(tri.view, tri.weights, True), (hat.view, hat.weights, True),
                 (tri.view.restrict([0, 1]), tri.weights, True),
                 (tri.view.contract([2]), tri.weights, False),
                 (hat.view.contract([0]), hat.weights, False),
                 (uni.view, uni.weights, False),
                 (uni.view.contract([4]), uni.weights, False)]
        for view, weights, forest in cases:
            kernel = type(running_mwb(view, weights))
            assert kernel is (_GraphicRunningMwb if forest else _GreedyRunningMwb)

    def test_graphic_circuit_eviction(self):
        b = triangle()
        kernel = running_mwb(b.view, b.weights)
        assert kernel.insert(0) == (True, None)     # e1
        assert kernel.insert(1) == (True, None)     # e2
        assert kernel.insert(2) == (True, 0)        # e3 evicts the light e1
        assert kernel.basis() == frozenset({1, 2})

    def test_forest_self_loops_change_nothing(self):
        # a heavy loop at either end of a path closes an empty tree path: it
        # never enters, and the next chord still finds its whole circuit
        edges = ((0, 1), (1, 2), (2, 3), (3, 3), (0, 0), (3, 0))
        view = MatroidView.full(GraphicMatroid(4, edges))
        kernel = running_mwb(view, WeightedGroundSet.from_weights([5, 4, 3, 9, 8, 6]))
        assert [kernel.insert(u) for u in range(5)] == [(True, None)] * 3 + [(False, None)] * 2
        assert forest_depth(kernel) == 3
        assert kernel.insert(5) == (True, 2)        # the chord evicts the lightest path edge
        assert kernel.basis() == frozenset({0, 1, 5})

    @staticmethod
    def random_streams():
        """(view, weights, insertion order) cases: small instances, larger
        multigraphs with loops and parallel edges, a long cycle whose forest
        grows deep, random contractions, and the modified hat graph, some of
        them in the arrival order of a seeded trial."""
        for case in range(40):
            rng = np.random.default_rng(case)
            if case % 3 == 0:
                b = uniform_instance(8, int(rng.integers(1, 4)))
            else:
                b = random_graphic(5, 8, rng)
            yield b.view, b.weights, rng.permutation(b.weights.count)
        for case in range(6):
            rng = np.random.default_rng(100 + case)
            b = random_graphic(30, 90, rng)
            yield b.view, b.weights, rng.permutation(b.weights.count)
            b = random_graphic(12, 30, rng)
            minor = b.view.contract(b.view.greedy_mwb(
                b.weights, [u for u in range(30) if rng.random() < 0.3]))
            yield minor, b.weights, rng.permutation(sorted(minor.ground))
        for case in range(3):
            rng = np.random.default_rng(200 + case)
            # a 40-cycle inserted in path order, then 20 random chords
            cycle = [(i, (i + 1) % 40) for i in range(40)]
            chords = [tuple(int(v) for v in rng.integers(40, size=2)) for _ in range(20)]
            view = MatroidView.full(GraphicMatroid(40, tuple(cycle + chords)))
            weights = WeightedGroundSet.from_weights(rng.permutation(60) + 1)
            yield view, weights, list(range(40)) + list(40 + rng.permutation(20))
            b = modified_hat_graph(8)
            yield b.view, b.weights, rng.permutation(b.weights.count)
        for seed in range(6):
            b = random_graphic(5, 9, np.random.default_rng(seed))
            yield b.view, b.weights, _seeded_schedule(b, seed).order
        for seed in range(3):
            b = modified_hat_graph(16)
            yield b.view, b.weights, _seeded_schedule(b, seed).order
        b = modified_hat_graph(64)                  # the mhat64-trap benchmark instance
        yield b.view, b.weights, _seeded_schedule(b, 0).order

    def test_matches_greedy_on_random_streams(self):
        # the kernel must agree with from-scratch greedy after every insert,
        # an eviction must be exactly the basis diff, and the forest must stay
        # well formed: a re-root rewrites parent pointers on rejected inserts too
        deepest = 0
        for view, weights, order in self.random_streams():
            kernel = running_mwb(view, weights)
            forest = isinstance(kernel, _GraphicRunningMwb)
            seen = set()
            for u in map(int, order):
                before = kernel.basis()
                entered, kicked = kernel.insert(u)
                seen.add(u)
                expect = view.greedy_mwb(weights, seen)
                assert kernel.basis() == expect
                assert entered == (u in expect)
                if kicked is None:
                    assert before <= expect
                else:
                    assert before - expect == {kicked}
                if forest:
                    assert_forest_well_formed(kernel)
                deepest = max(deepest, forest_depth(kernel))
        assert deepest > 10

    @staticmethod
    def large_streams():
        """(view, weights, insertion order) cases too large for from-scratch
        greedy per insert: seeded trial orders on the 256-spoke hats, and
        multigraphs with loops and parallel edges, full and restricted."""
        for make in (modified_hat_graph, hat_graph):
            b = make(256)
            for seed in range(2):
                yield b.view, b.weights, _seeded_schedule(b, seed).order
        for case in range(4):
            rng = np.random.default_rng(300 + case)
            b = random_graphic(40, 200, rng)
            yield b.view, b.weights, rng.permutation(b.weights.count)
            minor = b.view.restrict(u for u in range(200) if rng.random() < 0.6)
            yield minor, b.weights, rng.permutation(sorted(minor.ground))

    def test_forest_matches_greedy_kernel_on_large_streams(self):
        # both kernels agree on every insert; the forest takes each of its
        # three paths: a root endpoint as is, swapped ends, and a re-root.
        # A cycle that an insert closes through u's ends fails here, before
        # the next insert could walk it for ever.
        paths = collections.Counter()
        for view, weights, order in self.large_streams():
            forest, greedy = _GraphicRunningMwb(view, weights), _GreedyRunningMwb(view, weights)
            for u in map(int, order):
                a, b = forest._endpoints[u]
                a_root, b_root = (forest._parent_edge[x] is None for x in (a, b))
                paths["as is" if a_root else "swap" if b_root else "re-root"] += 1
                assert forest.insert(u) == greedy.insert(u)
                assert_chain_ends(forest, a)
                assert_chain_ends(forest, b)
            assert forest.basis() == greedy.basis()
        assert min(paths.values()) > 100, paths

    def test_contracted_graphic(self):
        b = triangle()
        minor = b.view.contract([2])
        kernel = running_mwb(minor, b.weights)
        assert kernel.insert(0) == (True, None)
        assert kernel.insert(1) == (True, 0)        # e1 and e2 parallel in M/e3
        assert kernel.basis() == frozenset({1})

    def test_contracted_uniform(self):
        b = uniform_instance(5, 3)
        minor = b.view.contract([4])
        kernel = running_mwb(minor, b.weights)
        for u in (0, 1, 2):
            kernel.insert(u)
        assert kernel.basis() == frozenset({1, 2})


class TestAcceptedSetTracker:
    @staticmethod
    def answers(tracker, view):
        return {u: tracker.can_add(u) for u in view.ground}

    def test_uniform_capacity(self):
        view = MatroidView.full(UniformMatroid(3, 1))
        tracker = AcceptedSetTracker(view)
        assert tracker.uf is None
        assert tracker.can_add(0)
        assert tracker.add(0) is True
        before = self.answers(tracker, view)
        assert before == {0: False, 1: False, 2: False}
        assert tracker.add(1) is False      # dependent: refused, nothing changes
        assert self.answers(tracker, view) == before

    def test_graphic_cycles(self):
        view = triangle().view
        tracker = AcceptedSetTracker(view)
        assert tracker.uf is not None
        assert tracker.add(0) is True and tracker.add(1) is True
        before = self.answers(tracker, view)
        assert before == {0: False, 1: False, 2: False}
        assert tracker.add(2) is False      # closes the triangle
        assert self.answers(tracker, view) == before

    def test_uniform_contraction_leaves_k_minus_c_slots(self):
        for k in range(5):
            for c in range(k + 1):
                view = MatroidView(UniformMatroid(6, k), frozenset(range(6)),
                                   frozenset(range(c)))
                tracker = AcceptedSetTracker(view)
                assert sum(tracker.add(u) for u in sorted(view.ground)) == k - c
                assert not any(self.answers(tracker, view).values())

    def test_graphic_contraction_refuses_a_parallel_edge(self):
        # edges 0 and 1 are parallel on 0-1; edge 2 hangs off vertex 1
        base = GraphicMatroid(3, ((0, 1), (0, 1), (1, 2)))
        view = MatroidView(base, frozenset({0, 1, 2}), frozenset({0}))
        tracker = AcceptedSetTracker(view)
        assert self.answers(tracker, view) == {1: False, 2: True}
        assert tracker.add(1) is False
        assert self.answers(tracker, view) == {1: False, 2: True}
        assert tracker.add(2) is True

    @pytest.mark.parametrize("base, contraction", [
        (UniformMatroid(4, 1), {0, 1}),
        (GraphicMatroid(3, ((0, 1), (1, 2), (2, 0))), {0, 1, 2}),
        (GraphicMatroid(2, ((0, 1), (0, 1))), {0, 1}),
        (GraphicMatroid(2, ((1, 1), (0, 1))), {0}),
    ], ids=["uniform", "cycle", "parallel", "loop"])
    def test_dependent_contraction_raises(self, base, contraction):
        # the tracker reads only base and contraction, so it is handed the
        # dependent pair directly: a MatroidView would refuse to exist
        with pytest.raises(PreconditionError):
            AcceptedSetTracker(SimpleNamespace(base=base, contraction=frozenset(contraction)))
        with pytest.raises(PreconditionError):
            MatroidView(base, frozenset(range(base.size)), frozenset(contraction))
        with pytest.raises(PreconditionError):
            MatroidView.full(base).contract(contraction)


# -- individual policies ----------------------------------------------------------


TRIANGLE_STREAM = [("e3", 0.2), ("e2", 0.6), ("e1", 0.8)]


class TestSampleVsGreedy:
    def test_sample_overaccepts_on_triangle(self):
        b = triangle()
        trace = run_forced("sample", b, TRIANGLE_STREAM, p=0.5)
        assert labels_of(b, trace.accepted) == ["e1", "e2"]

    def test_greedy_framework_stays_selective(self):
        b = triangle()
        for policy in ("greedy-framework", "sample-contracted"):
            trace = run_forced(policy, b, TRIANGLE_STREAM, p=0.5)
            assert labels_of(b, trace.accepted) == ["e2"]

    # e3 is the stream's one sample, and no loop: a reference holding the
    # live e1 breaks the sandwich, and the empty one fails to span e3
    @pytest.mark.parametrize("reference, message", [
        (("e1",), "reference set must satisfy accepted <= reference"),
        ((), "reference set fails to span the arrived elements")])
    def test_greedy_framework_checks_its_reference(self, monkeypatch, reference, message):
        b = triangle()
        monkeypatch.setattr(GreedyFrameworkPolicy, "_rebuild",
                            lambda self: set(b.ids_of(*reference)))
        with pytest.raises(PolicyViolation, match=message):
            run_forced("greedy-framework", b, TRIANGLE_STREAM, p=0.5)


UNIFORM6_STREAM = [("1", 0.05), ("3", 0.15), ("2", 0.30),
                   ("4", 0.45), ("5", 0.60), ("6", 0.75)]


class TestVirtualOnUniformStream:
    def test_accepts_only_sample_displacers(self):
        b = uniform_instance(6, 2)
        trace = run_forced("virtual-msp", b, UNIFORM6_STREAM, p=0.25)
        assert labels_of(b, trace.accepted) == ["2", "5"]
        by_label = {b.weights.label(r.element): r
                    for r in trace_records(trace, b.view, b.weights)}
        rec4 = by_label["4"]
        assert not rec4.accepted and rec4.in_current_mwb
        assert b.weights.label(rec4.kicked) == "2" and rec4.kicked_was_sample is False
        rec5 = by_label["5"]
        assert rec5.accepted
        assert b.weights.label(rec5.kicked) == "3" and rec5.kicked_was_sample is True

    def test_virtual_uniform_twin_matches(self):
        b = uniform_instance(6, 2)
        a = run_forced("virtual-msp", b, UNIFORM6_STREAM, p=0.25)
        c = run_forced("virtual-uniform", b, UNIFORM6_STREAM, p=0.25)
        assert a.decisions == c.decisions

    def test_optimistic_differs_on_same_stream(self):
        b = uniform_instance(6, 2)
        trace = run_forced("optimistic", b, UNIFORM6_STREAM, p=0.25)
        assert labels_of(b, trace.accepted) == ["2", "4"]


class TestVirtualCrossCheck:
    @staticmethod
    def drift_cases():
        """(view, weights, schedule, p): full graphic views, which run the
        forest kernel, then contracted graphic minors and uniform instances,
        which run the greedy one."""
        for seed in range(6):
            b = random_graphic(5, 9, np.random.default_rng(seed))
            yield b.view, b.weights, _seeded_schedule(b, seed), 0.4
        for seed in range(3):
            b = modified_hat_graph(16)
            yield b.view, b.weights, _seeded_schedule(b, seed), 0.5
        for seed in range(6):
            rng = np.random.default_rng(50 + seed)
            b = random_graphic(6, 12, rng)
            minor = b.view.contract(b.view.greedy_mwb(
                b.weights, [u for u in range(12) if rng.random() < 0.3]))
            sched = _seeded_schedule(b, seed)
            yield minor, b.weights, forced_schedule(
                (u, t) for u, t in zip(sched.order, sched.sorted_times.tolist())
                if u in minor.ground), 0.4
        for seed in range(6):
            b = uniform_instance(8 + seed, 1 + seed % 3)
            yield b.view, b.weights, _seeded_schedule(b, seed), 0.4

    def test_running_basis_never_drifts(self):
        # replay each live decision against a from-scratch basis: the kick
        # must be the basis diff and the verdict must follow from it
        for view, weights, sched, p in self.drift_cases():
            trace = run_trial("virtual-msp", view, weights, sched, p)
            live = [r for r in trace_records(trace, view, weights) if r.phase == "live"]
            sampled = {u for u, t in zip(sched.order, sched.sorted_times.tolist()) if t < p}
            seen = set(sampled)
            tracker = AcceptedSetTracker(view)
            for r in live:
                before = view.greedy_mwb(weights, seen)
                seen.add(r.element)
                after = view.greedy_mwb(weights, seen)
                assert r.in_current_mwb == (r.element in after)
                dropped = before - after
                assert r.kicked == (next(iter(dropped)) if dropped else None)
                assert r.kicked_was_sample == (
                    None if r.kicked is None else r.kicked in sampled)
                assert r.accepted == (tracker.can_add(r.element)
                                      and r.element in after
                                      and r.kicked_was_sample is not False)
                if r.accepted:
                    tracker.add(r.element)
            assert {r.element for r in live if r.accepted} == trace.accepted


def test_equal_decisions_share_one_object():
    """A frozen Decision is a value: equal fields give the identical object,
    and every shared decision equals a freshly built one."""
    assert _decision(True, 4) is _decision(True, 4)
    assert _decision(True, None) is _ACCEPT
    assert _decision(False, None) is _REJECT
    b = modified_hat_graph(64)
    decisions = [d for trace in trial_stream("virtual-msp", b.view, b.weights, 0.5, 20, 7)
                 for d in trace.decisions]
    assert any(d.kicked is not None for d in decisions)
    for d in decisions:
        fields = (d.accept, d.kicked)
        assert d == Decision(*fields) and d is _decision(*fields), fields


def test_decision_cache_is_bounded_by_the_ground_set():
    # a fresh interpreter, since the cache is process-wide and other tests fill it:
    # at most two kick-carrying values per element id, plus the two without a kick
    src = str(Path(matsec.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from matsec import modified_hat_graph, trial_stream; "
            "from matsec.policies import _decision; b = modified_hat_graph(64); "
            "list(trial_stream('virtual-msp', b.view, b.weights, 0.5, 20, 7)); "
            "print(b.weights.count, _decision.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    n, size = map(int, done.stdout.split())
    assert 2 < size <= 2 * n + 2


class TestDynkin:
    def test_threshold_rule(self):
        b = uniform_instance(5, 1)
        pairs = [("3", 0.1), ("2", 0.4), ("4", 0.6), ("5", 0.8), ("1", 0.9)]
        trace = run_forced("dynkin", b, pairs, p=0.25)
        assert labels_of(b, trace.accepted) == ["4"]

    def test_empty_sample_takes_first(self):
        b = uniform_instance(3, 1)
        pairs = [("1", 0.3), ("3", 0.5), ("2", 0.8)]
        trace = run_forced("dynkin", b, pairs, p=0.0)
        assert labels_of(b, trace.accepted) == ["1"]

    def test_needs_one_uniform(self):
        b = uniform_instance(5, 2)
        with pytest.raises(ValueError, match="1-uniform"):
            run_forced("dynkin", b, [(str(i), i / 10) for i in range(1, 6)], p=0.5)
        with pytest.raises(ValueError, match="uniform"):
            run_forced("dynkin", triangle(), TRIANGLE_STREAM, p=0.5)


class TestOptimistic:
    def test_accepts_on_capacity_without_threshold(self):
        b = uniform_instance(4, 2)
        pairs = [("4", 0.3), ("1", 0.6), ("2", 0.7), ("3", 0.8)]
        trace = run_forced("optimistic", b, pairs, p=0.5)
        assert labels_of(b, trace.accepted) == ["1"]
        ref = run_forced("sample-contracted", b, pairs, p=0.5)
        assert trace.accepted == ref.accepted

    def test_k_defaults_to_instance(self):
        # with no samples both slot-count rules fill the instance's k slots
        pairs = [(str(i), i / 10) for i in range(1, 6)]
        for k in range(1, 5):
            b = uniform_instance(5, k)
            for policy in ("optimistic", "virtual-uniform"):
                trace = run_forced(policy, b, pairs, p=0.0)
                assert labels_of(b, trace.accepted) == [str(i) for i in range(1, k + 1)]


# -- pairwise agreement across families -------------------------------------------


class TestEquivalences:
    """Small seeded versions of the large-scale agreement checks; the full
    counts run in the acceptance module."""

    def test_sample_contracted_matches_greedy_framework(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            b = random_graphic(int(rng.integers(3, 6)), int(rng.integers(4, 10)), rng)
            sched = _seeded_schedule(b, seed)
            p = 0.25 + 0.5 * float(rng.random())
            a = run_trial("sample-contracted", b.view, b.weights, sched, p)
            c = run_trial("greedy-framework", b.view, b.weights, sched, p)
            assert a.accepted == c.accepted

    def test_virtual_twins_agree_record_for_record(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            b = uniform_instance(int(rng.integers(4, 10)), int(rng.integers(1, 4)))
            sched = _seeded_schedule(b, seed)
            p = 0.25 + 0.5 * float(rng.random())
            a = run_trial("virtual-msp", b.view, b.weights, sched, p)
            c = run_trial("virtual-uniform", b.view, b.weights, sched, p)
            assert a.decisions == c.decisions

    def test_optimistic_matches_sample_contracted_on_uniform(self):
        for seed in range(20):
            rng = np.random.default_rng(200 + seed)
            b = uniform_instance(int(rng.integers(4, 10)), int(rng.integers(1, 4)))
            sched = _seeded_schedule(b, seed)
            p = 0.25 + 0.5 * float(rng.random())
            a = run_trial("optimistic", b.view, b.weights, sched, p)
            c = run_trial("sample-contracted", b.view, b.weights, sched, p)
            assert a.accepted == c.accepted

    @pytest.mark.parametrize("bundle", [hat_graph(8), modified_hat_graph(4),
                                        uniform_instance(12, 3)],
                             ids=["hat8", "mhat4", "u12k3"])
    def test_sample_contracted_builds_no_minor(self, monkeypatch, bundle):
        """sample-contracted asks its accepted-set tracker, never view.contract."""
        def runs():
            return [(t.decisions, t.accepted) for t in trial_stream(
                "sample-contracted", bundle.view, bundle.weights, 0.5, 40, 5)]
        expected = runs()
        assert sum(len(accepted) for _, accepted in expected) > 40

        def no_minor(self, I):
            raise AssertionError("sample-contracted built a contracted view")
        monkeypatch.setattr(MatroidView, "contract", no_minor)
        assert runs() == expected

    @pytest.mark.parametrize("bundle", [hat_graph(6), modified_hat_graph(4),
                                        random_graphic(6, 12, 3), uniform_instance(9, 3)],
                             ids=["hat6", "mhat4", "random6x12", "u9k3"])
    def test_greedy_framework_asks_no_tracker_basis_query(self, monkeypatch, bundle):
        """greedy-framework decides by greedy_mwb, so it shares no basis query
        with sample-contracted: its traces stand with the tracker's in_mwb gone."""
        def runs():
            out = io.StringIO()
            for trace in trial_stream("greedy-framework", bundle.view, bundle.weights,
                                      0.5, 40, 5):
                dump_trace(trace_records(trace, bundle.view, bundle.weights), out)
            return out.getvalue()
        expected = runs()
        assert expected.count('"accepted":true') > 40

        def no_query(self, ranks, S, u):
            raise AssertionError("greedy-framework asked AcceptedSetTracker.in_mwb")
        monkeypatch.setattr(AcceptedSetTracker, "in_mwb", no_query)
        assert runs() == expected

    def test_dynkin_matches_sample_on_one_uniform(self):
        for seed in range(20):
            rng = np.random.default_rng(300 + seed)
            b = uniform_instance(int(rng.integers(3, 12)), 1)
            sched = _seeded_schedule(b, seed)
            p = 0.25 + 0.5 * float(rng.random())
            a = run_trial("dynkin", b.view, b.weights, sched, p)
            c = run_trial("sample", b.view, b.weights, sched, p)
            d = run_trial("sample-contracted", b.view, b.weights, sched, p)
            assert a.accepted == c.accepted == d.accepted


# -- every schedule of a small instance ---------------------------------------------


CUT = 0.5


def every_schedule(bundle):
    """Every arrival order with every sample count m: the first m arrivals
    are forced below CUT and the rest above it, as in C10's enumeration."""
    n = bundle.weights.count
    for m in range(n + 1):
        times = ([CUT * (i + 1) / (m + 1) for i in range(m)]
                 + [CUT + (1 - CUT) * (j + 1) / (n - m + 1) for j in range(n - m)])
        for order in itertools.permutations(range(n)):
            yield forced_schedule(zip(order, times)), m


@pytest.mark.parametrize("bundle", [triangle(), double_triangle(), hat_graph(2),
                                    uniform_instance(5, 2)],
                         ids=["triangle", "double_triangle", "hat2", "u5k2"])
def test_sample_rules_decide_as_their_definitions(monkeypatch, bundle):
    """Every live decision of the two sample-basis rules equals its definition,
    computed from scratch with greedy_mwb on the samples S and the accepted set A:
    `sample` accepts u iff u in MWB(S + u) and A + u is independent, and
    `sample-contracted` iff u in MWB(S + u) in the view contracted by A.
    No in_mwb answers for either side."""
    def no_in_mwb(*args):
        raise AssertionError("MatroidView.in_mwb was called")
    monkeypatch.setattr(MatroidView, "in_mwb", no_in_mwb)
    view, weights = bundle.view, bundle.weights
    rules = {
        "sample": lambda S, A, u: (u in view.greedy_mwb(weights, S | {u})
                                   and view.is_independent(A | {u})),
        "sample-contracted": lambda S, A, u: u in view.contract(A).greedy_mwb(weights, S | {u}),
    }
    decisions = accepts = 0
    for schedule, m in every_schedule(bundle):
        S, live = frozenset(schedule.order[:m]), schedule.order[m:]
        for name, rule in rules.items():
            trace = run_trial(name, view, weights, schedule, CUT)
            A = set()
            for u, d in zip(live, trace.decisions, strict=True):
                assert d == _decision(rule(S, A, u), None), (name, schedule.order, m, u)
                if d.accept:
                    A.add(u)
            decisions += len(live)
            accepts += len(A)
    assert 0 < accepts < decisions


@pytest.mark.parametrize("n", range(1, 6))
def test_virtual_twins_agree_on_every_uniform_schedule(n):
    """virtual-uniform and virtual-msp make equal decisions, kicks included,
    on every schedule of U(n, k), and neither accepts more than k: the
    capacity virtual-uniform does not test is implied by its rule."""
    kicks = 0
    for k in range(n + 1):
        b = uniform_instance(n, k)
        for schedule, _ in every_schedule(b):
            a = run_trial("virtual-uniform", b.view, b.weights, schedule, CUT)
            c = run_trial("virtual-msp", b.view, b.weights, schedule, CUT)
            assert a.decisions == c.decisions, (k, schedule.order)
            assert len(a.accepted) <= k and len(c.accepted) <= k
            kicks += sum(d.kicked is not None for d in a.decisions)
    assert kicks > 0 or n == 1


# -- the sample is a set ------------------------------------------------------------


ORDER_BUNDLES = {"hat3": hat_graph(3), "mhat2": modified_hat_graph(2),
                 "rg59": random_graphic(5, 9, 4), "u9k3": uniform_instance(9, 3),
                 "u9k1": uniform_instance(9, 1)}
UNIFORM_ONLY = {"dynkin": ("u9k1",), "optimistic": ("u9k1", "u9k3"),
                "virtual-uniform": ("u9k1", "u9k3")}


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_decisions_ignore_the_sample_order(name):
    """Every policy depends on the sample set, not its order: start() given
    the samples permuted yields the same decisions, kick fields included."""
    def decisions(b, samples, live):
        policy = build_policy(name)
        policy.start(b.view, b.weights, samples)
        return [policy.decide(u) for u in live]

    rng = np.random.default_rng(17)
    for key in UNIFORM_ONLY.get(name, ORDER_BUNDLES):
        b = ORDER_BUNDLES[key]
        for seed in range(12):
            sched = _seeded_schedule(b, seed)
            m = sched.first_live(0.2 + 0.05 * seed)
            samples, live = sched.order[:m], sched.order[m:]
            want = decisions(b, samples, live)
            for permuted in (samples[::-1], tuple(rng.permutation(samples).tolist())):
                assert decisions(b, permuted, live) == want, (key, seed, permuted)


# -- golden traces --------------------------------------------------------------------


# sha256 prefix of the dumped trace_records of 60 seeded trials at p = 0.3, then 0.6;
# the deliberate twins share a digest wherever their records coincide
GOLDEN_TRACES = {
    ("sample", "u9k1"): "5333ffd6cba4caa9",
    ("sample-contracted", "u9k1"): "5333ffd6cba4caa9",
    ("greedy-framework", "u9k1"): "5333ffd6cba4caa9",
    ("virtual-msp", "u9k1"): "3ff48a977dc9894f",
    ("dynkin", "u9k1"): "5333ffd6cba4caa9",
    ("optimistic", "u9k1"): "3dd22fba5d55e3d3",
    ("virtual-uniform", "u9k1"): "3ff48a977dc9894f",
    ("sample", "u9k3"): "8f07c8a74c695ef1",
    ("sample-contracted", "u9k3"): "325165e521ebed4f",
    ("greedy-framework", "u9k3"): "325165e521ebed4f",
    ("virtual-msp", "u9k3"): "5c7af24ddf2f3a32",
    ("optimistic", "u9k3"): "72c42682d370d4b9",
    ("virtual-uniform", "u9k3"): "5c7af24ddf2f3a32",
    ("sample", "hat3"): "c223aba8ad9989ed",
    ("sample-contracted", "hat3"): "c97747b92b96b6da",
    ("greedy-framework", "hat3"): "c97747b92b96b6da",
    ("virtual-msp", "hat3"): "94debaeb17c2da00",
    ("sample", "rg59"): "333889f9a00bad9e",
    ("sample-contracted", "rg59"): "c98915030339598f",
    ("greedy-framework", "rg59"): "c98915030339598f",
    ("virtual-msp", "rg59"): "b967c0c741d4bc39",
    ("sample", "mhat8"): "89cf4a179edd164e",
    ("sample-contracted", "mhat8"): "59b42a34f98aa250",
    ("greedy-framework", "mhat8"): "59b42a34f98aa250",
    ("virtual-msp", "mhat8"): "c4ab3cedb6149aa9",
}


def golden_bundles():
    return {"u9k1": uniform_instance(9, 1), "u9k3": uniform_instance(9, 3),
            "hat3": hat_graph(3), "rg59": random_graphic(5, 9, 4),
            "mhat8": modified_hat_graph(8)}


def test_golden_traces_are_unchanged():
    """Every record field of every policy, kicks included, pinned byte for byte."""
    assert {name for name, _ in GOLDEN_TRACES} == set(POLICY_NAMES)
    bundles = golden_bundles()
    got = {}
    for (name, key) in GOLDEN_TRACES:
        b, h = bundles[key], hashlib.sha256()
        for p in (0.3, 0.6):
            buf = io.StringIO()
            for trace in trial_stream(name, b.view, b.weights, p, 60, 7):
                dump_trace(trace_records(trace, b.view, b.weights), buf)
            h.update(buf.getvalue().encode())
        got[name, key] = h.hexdigest()[:16]
    assert got == GOLDEN_TRACES


def test_dumped_records_rebuild_the_trace():
    """Dump, load and rebuild every golden trace: the decisions come back
    equal, and rendering the rebuilt trace dumps the same bytes."""
    bundles = golden_bundles()
    for (name, key) in GOLDEN_TRACES:
        b = bundles[key]
        for p in (0.3, 0.6):
            for i, trace in enumerate(trial_stream(name, b.view, b.weights, p, 20, 7)):
                buf = io.StringIO()
                dump_trace(trace_records(trace, b.view, b.weights), buf)
                rebuilt = trace_from_records(load_records(io.StringIO(buf.getvalue())))
                assert rebuilt.decisions == trace.decisions, (name, key, p, i)
                assert rebuilt.accepted == trace.accepted
                assert rebuilt.sample_set == trace.sample_set
                assert rebuilt.sample_count == trace.sample_count == trace.schedule.first_live(p)
                again = io.StringIO()
                dump_trace(trace_records(rebuilt, b.view, b.weights), again)
                assert again.getvalue() == buf.getvalue(), (name, key, p, i)


# -- registry -----------------------------------------------------------------------


class TestRegistry:
    def test_names_build(self):
        for name in POLICY_NAMES:
            assert isinstance(build_policy(name), Policy)
        for cls in POLICIES.values():
            assert isinstance(cls(), cls)       # every policy takes no arguments

    def test_each_policy_has_one_name(self):
        for alias in ("virtual", "greedy"):
            with pytest.raises(ValueError, match="unknown policy"):
                build_policy(alias)
        assert tuple(POLICIES) == POLICY_NAMES

    def test_an_old_alias_is_a_usage_error(self, capsys):
        assert main(["estimate", "--policy", "virtual"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_canonical_names_match_the_built_policies(self):
        assert POLICY_NAMES == ("dynkin", "optimistic", "virtual-uniform", "sample",
                                "sample-contracted", "greedy-framework", "virtual-msp")
        for name in POLICY_NAMES:
            assert build_policy(name).name == POLICIES[name].name == name

    def test_build_policy_accepts_all_forms(self):
        p = DynkinPolicy()
        assert build_policy(p) is p
        a, b = build_policy("sample"), build_policy("sample")
        assert isinstance(a, Policy) and a is not b     # a name gives a fresh instance

    def test_unknown_names_rejected(self):
        for bad in ("secretary", "", "Dynkin", None, 3, DynkinPolicy):
            with pytest.raises(ValueError, match="unknown policy"):
                build_policy(bad)
