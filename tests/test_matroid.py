"""Ground sets, base matroids, views, greedy, and the instance file format."""

import gc
import io
import itertools
import random
import re
import sys
import weakref
from collections import defaultdict, deque
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from matsec import (
    DomainError,
    GraphicMatroid,
    MatroidView,
    PreconditionError,
    UniformMatroid,
    WeightedGroundSet,
    brute_force_mwb,
    dump_instance,
    forced_schedule,
    fuzz_corpus,
    hat_graph,
    parse_instance,
    parse_schedule,
    random_graphic,
    trial_stream,
    uniform_instance,
)
from matsec.matroid import AcceptedSetTracker, _parse_weight, element_ids, format_weight


# -- weighted ground sets ------------------------------------------------------


class TestWeightedGroundSet:
    def test_order_and_ranks(self):
        ws = WeightedGroundSet.from_weights([3, 1, 4, 2])
        assert ws.count == 4
        assert ws.sort_desc(range(4)) == [2, 0, 3, 1]
        assert ws.ranks == (1, 3, 0, 2)
        assert ws.ranks[0] < ws.ranks[1]        # 0 is the heavier of the two
        assert not ws.ranks[1] < ws.ranks[0]
        assert ws.sort_desc([1, 3]) == [3, 1]
        assert ws.total([0, 3]) == Fraction(5)
        assert ws.total([]) == Fraction(0)
        assert ws.weight(2) == Fraction(4)

    def test_default_labels(self):
        ws = WeightedGroundSet.from_weights([5, 7])
        assert ws.label(0) == "u0" and ws.label(1) == "u1"

    def test_fractional_weights(self):
        ws = WeightedGroundSet.from_weights([Fraction(1, 3), 0.5, "2/7"])
        assert ws.weight(0) == Fraction(1, 3)
        assert ws.weight(1) == Fraction(1, 2)
        assert ws.weight(2) == Fraction(2, 7)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            WeightedGroundSet.from_weights([1, 2, 1])
        # equal values written apart: Fraction normalises 2/4 to 1/2
        with pytest.raises(ValueError, match="^weights must be pairwise distinct$"):
            WeightedGroundSet((Fraction(1, 2), Fraction(3), Fraction(2, 4)), ("a", "b", "c"))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            WeightedGroundSet.from_weights([0])
        with pytest.raises(ValueError, match="positive"):
            WeightedGroundSet.from_weights([2, -1])
        # the sign test reads the numerator; the message still shows the weight
        for w, shown in ((Fraction(-1, 3), "-1/3"), (Fraction(0), "0")):
            with pytest.raises(ValueError, match=f"^weights must be positive, got {shown}$"):
                WeightedGroundSet((Fraction(1, 2), w), ("a", "b"))

    def test_type_is_checked_before_sign_and_duplicates(self):
        with pytest.raises(ValueError, match="must be Fractions"):
            WeightedGroundSet((Fraction(1), Fraction(1), -1), ("a", "b", "c"))

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            WeightedGroundSet((Fraction(1),), ("a", "b"))

    def test_rejects_raw_floats(self):
        with pytest.raises(ValueError, match="from_weights"):
            WeightedGroundSet((1.5,), ("a",))

    @given(st.lists(st.integers(1, 10**6), min_size=1, max_size=12, unique=True))
    def test_order_is_descending_permutation(self, raw):
        ws = WeightedGroundSet.from_weights(raw)
        order = ws.sort_desc(range(len(raw)))
        assert sorted(order) == list(range(len(raw)))
        values = [ws.weight(u) for u in order]
        assert values == sorted(values, reverse=True)
        for pos, u in enumerate(order):
            assert ws.ranks[u] == pos


# -- base matroids and views ---------------------------------------------------


def triangle_base():
    return GraphicMatroid(3, ((0, 1), (1, 2), (2, 0)))


class TestUniformView:
    def test_independence_and_rank(self):
        view = MatroidView.full(UniformMatroid(4, 2))
        assert view.is_independent([])
        assert view.is_independent([0])
        assert view.is_independent([0, 3])
        assert not view.is_independent([0, 1, 2])
        assert view.rank([0, 1, 2]) == 2
        assert view.rank([]) == 0

    def test_span(self):
        view = MatroidView.full(UniformMatroid(4, 2))
        assert view.span([0, 1]) == frozenset(range(4))
        assert view.span([0]) == frozenset({0})
        assert view.span([]) == frozenset()

    def test_zero_capacity_spans_everything(self):
        view = MatroidView.full(UniformMatroid(3, 0))
        assert view.span([]) == frozenset(range(3))
        assert not view.is_independent([0])

    def test_greedy_takes_top_k(self):
        view = MatroidView.full(UniformMatroid(4, 2))
        ws = WeightedGroundSet.from_weights([3, 1, 4, 2])
        assert view.greedy_mwb(ws) == frozenset({2, 0})
        assert view.greedy_mwb(ws, [1, 3]) == frozenset({1, 3})

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            UniformMatroid(4, 5)
        with pytest.raises(ValueError):
            UniformMatroid(-1, 0)
        with pytest.raises(ValueError):
            UniformMatroid(3, -1)


class TestGraphicView:
    def test_cycle_is_dependent(self):
        view = MatroidView.full(triangle_base())
        assert view.is_independent([0, 1])
        assert not view.is_independent([0, 1, 2])
        assert view.rank([0, 1, 2]) == 2
        assert view.span([0, 1]) == frozenset({0, 1, 2})

    def test_self_loop(self):
        view = MatroidView.full(GraphicMatroid(1, ((0, 0),)))
        assert not view.is_independent([0])
        assert view.span([]) == frozenset({0})

    def test_parallel_edges(self):
        view = MatroidView.full(GraphicMatroid(2, ((0, 1), (0, 1))))
        assert view.is_independent([0])
        assert not view.is_independent([0, 1])
        assert view.span([1]) == frozenset({0, 1})

    def test_endpoint_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            GraphicMatroid(2, ((0, 2),))

    @pytest.mark.parametrize("end", [1.7, 1.0, "1"])
    def test_endpoints_must_be_integers(self, end):
        # int() would turn (0, 1.7) into the edge (0, 1)
        with pytest.raises(ValueError, match=re.escape(f"integers, got {end!r}")):
            GraphicMatroid(3, ((0, end), (1, 2)))
        ends = GraphicMatroid(3, ((np.int64(0), np.int32(1)),)).endpoints
        assert ends == ((0, 1),) and all(type(v) is int for v in ends[0])

    def test_greedy_on_chorded_cycle(self):
        # 4-cycle 0-1-2-3 plus the chord (0, 2); the heavy chord and the two
        # heaviest cycle edges that avoid closing a triangle win
        base = GraphicMatroid(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)))
        ws = WeightedGroundSet.from_weights([4, 3, 2, 1, 5])
        view = MatroidView.full(base)
        assert view.greedy_mwb(ws) == frozenset({4, 0, 2})
        assert view.greedy_mwb(ws, [1, 2, 3]) == frozenset({1, 2, 3})


class TestMinors:
    def p4_chord(self):
        # path 0-1-2-3 with chord (0, 2); edges a=0, b=1, c=2, d=3
        return MatroidView.full(
            GraphicMatroid(4, ((0, 1), (1, 2), (2, 3), (0, 2))))

    def test_contract_merges_endpoints(self):
        minor = self.p4_chord().contract([0])
        assert minor.ground == frozenset({1, 2, 3})
        assert not minor.is_independent([1, 3])   # b and d go parallel
        assert minor.rank([1, 2, 3]) == 2
        assert minor.span([1]) == frozenset({1, 3})

    def test_restrict_shrinks_ground(self):
        sub = self.p4_chord().restrict([0, 1, 3])
        assert sub.ground == frozenset({0, 1, 3})
        assert not sub.is_independent([0, 1, 3])
        with pytest.raises(DomainError):
            sub.is_independent([2])

    def test_minors_compose(self):
        view = self.p4_chord().restrict([0, 1, 2, 3]).contract([2])
        assert view.ground == frozenset({0, 1, 3})
        assert view.rank(view.ground) == 2

    def test_contract_requires_independent(self):
        with pytest.raises(PreconditionError):
            self.p4_chord().contract([0, 1, 3])
        with pytest.raises(PreconditionError):
            MatroidView(triangle_base(), frozenset({0, 1, 2}),
                        frozenset({0, 1, 2}))

    def test_domain_errors(self):
        minor = self.p4_chord().contract([0])
        with pytest.raises(DomainError):
            minor.rank([0])
        with pytest.raises(DomainError):
            minor.greedy_mwb(WeightedGroundSet.from_weights([1, 2, 3, 4]), [0, 1])
        with pytest.raises(DomainError):
            MatroidView(triangle_base(), frozenset({0, 5}), frozenset())

    @pytest.mark.parametrize("base", [UniformMatroid(3, 2), triangle_base()])
    def test_ids_must_be_integers(self, base):
        # a float id would pass the range check and, on a uniform base, count as an element
        for restriction, contraction, bad in (({0, 1.5, 2}, set(), 1.5),
                                              ({0, 1, 2}, {1.0}, 1.0)):
            with pytest.raises(DomainError, match=re.escape(f"integers, got {bad!r}")):
                MatroidView(base, restriction, contraction)
        with pytest.raises(DomainError, match=r"got 1\.0"):
            MatroidView.full(base).contract([1.0])
        view = MatroidView(base, {np.int64(0), 1, 2}, {np.int64(2)})
        assert view.ground == frozenset({0, 1}) and view.rank(view.ground) == 1

    @pytest.mark.parametrize("base", [UniformMatroid(3, 2), triangle_base()])
    @pytest.mark.parametrize("bad", [1.0, np.float64(1.0), Fraction(1)])
    def test_queries_refuse_ids_that_only_equal_integers(self, base, bad):
        # 1.0 == 1 passes the ground-set test, so each query must look at the type
        view, ws = MatroidView.full(base), WeightedGroundSet.from_weights([1, 2, 3])
        queries = {"rank": lambda: view.rank([bad]),
                   "is_independent": lambda: view.is_independent([bad, 2]),
                   "span": lambda: view.span([bad]),
                   "greedy_mwb": lambda: view.greedy_mwb(ws, [0, bad]),
                   "in_mwb S": lambda: view.in_mwb(ws, [bad, 2], 0),
                   "in_mwb u": lambda: view.in_mwb(ws, [2], bad)}
        for name, query in queries.items():
            with pytest.raises(DomainError, match=re.escape(f"integers, got {bad!r}")):
                query()
        ints = [np.int64(1), True]          # index-able ids still pass
        assert view.rank(ints) == 1 and view.in_mwb(ws, ints, np.int64(2))

    def test_full_views_of_a_size_share_one_ground(self):
        full = self.p4_chord()
        assert full.ground is element_ids(4) is MatroidView.full(UniformMatroid(4, 2)).ground
        assert full.restrict(full.ground).ground is full.ground
        sub = full.restrict([0, 1, 3])          # nothing contracted: the ground is the restriction
        assert sub.ground is sub.restriction == frozenset({0, 1, 3})
        minor = full.contract([0])
        assert minor.ground == frozenset({1, 2, 3}) and minor.ground is not minor.restriction
        assert minor.restriction is full.ground

    def test_element_ids_holds_a_handful_of_sizes(self):
        maxsize = element_ids.cache_info().maxsize
        assert maxsize is not None and maxsize <= 8
        first = element_ids(10_000)
        assert element_ids(10_000) is first == frozenset(range(10_000))
        held = weakref.ref(first)
        for n in range(10_001, 10_001 + maxsize):       # evicts the least recently used size
            element_ids(n)
        del first
        gc.collect()
        assert held() is None                           # nothing but a live user keeps a set
        assert element_ids(10_000) == frozenset(range(10_000))

    def test_contracted_uniform_capacity(self):
        minor = MatroidView.full(UniformMatroid(5, 3)).contract([4])
        assert minor.rank(minor.ground) == 2
        assert minor.is_independent([0, 1])
        assert not minor.is_independent([0, 1, 2])
        ws = WeightedGroundSet.from_weights([1, 2, 3, 4, 5])
        assert minor.greedy_mwb(ws) == frozenset({2, 3})


# -- view properties under random small graphs ---------------------------------


small_graphs = st.builds(
    GraphicMatroid,
    st.just(4),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
             min_size=1, max_size=6).map(tuple),
)


@given(small_graphs, st.data())
def test_span_is_monotone_idempotent_closure(base, data):
    view = MatroidView.full(base)
    elems = sorted(view.ground)
    S = frozenset(data.draw(st.sets(st.sampled_from(elems), max_size=len(elems))))
    T = frozenset(data.draw(st.sets(st.sampled_from(elems), max_size=len(elems))))
    span_s = view.span(S)
    assert S <= span_s
    assert view.span(span_s) == span_s
    if S <= T:
        assert span_s <= view.span(T)
    assert view.rank(span_s) == view.rank(S)


@given(small_graphs, st.data())
def test_independence_is_downward_closed(base, data):
    view = MatroidView.full(base)
    elems = sorted(view.ground)
    S = data.draw(st.sets(st.sampled_from(elems), max_size=len(elems)))
    sub = data.draw(st.sets(st.sampled_from(elems or [0]), max_size=len(S))) & S
    if view.is_independent(S):
        assert view.is_independent(sub)
    assert view.rank(S) <= len(S)


# -- an independence oracle that shares no union-find with the views ---------


def forest_size(base, edges):
    """|V(edges)| - c(edges): the rank of a graphic edge set, by BFS components."""
    adj = defaultdict(list)
    for u in edges:
        a, b = base.endpoints[u]
        adj[a].append(b)
        adj[b].append(a)
    seen, components = set(), 0
    for start in adj:
        if start in seen:
            continue
        components += 1
        seen.add(start)
        queue = deque([start])
        while queue:
            for y in adj[queue.popleft()]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
    return len(adj) - components


def oracle_rank(view, S):
    C = view.contraction
    if isinstance(view.base, UniformMatroid):
        return min(len(S), view.base.k - len(C))
    return forest_size(view.base, S | C) - forest_size(view.base, C)


def check_against_oracle(view):
    ground = sorted(view.ground)
    subsets = [frozenset(c) for r in range(len(ground) + 1)
               for c in itertools.combinations(ground, r)]
    rank = {S: oracle_rank(view, S) for S in subsets}
    for S in subsets:
        assert view.rank(S) == rank[S], (view, S)
        assert view.is_independent(S) == (rank[S] == len(S)), (view, S)
        assert view.span(S) == frozenset(u for u in ground if rank[S | {u}] == rank[S]), \
            (view, S)


def test_views_and_minors_match_a_bfs_oracle():
    rng = np.random.default_rng(11)
    minors = 0
    for bundle in fuzz_corpus(40, seed=4):
        view = bundle.view
        check_against_oracle(view)
        ground = sorted(view.ground)
        for _ in range(4):
            C = frozenset(u for u in ground if rng.random() < 0.4)
            if oracle_rank(view, C) == len(C):
                check_against_oracle(view.contract(C))
                minors += 1
            else:
                with pytest.raises(PreconditionError):
                    view.contract(C)
    assert minors >= 40


# -- basis membership without a basis -------------------------------------------


def membership_views():
    """(view, weights): each fuzz-corpus view (graphic ones carry self-loops
    and parallel edges), a restriction and a contraction of it, a multigraph
    made of loops and parallels, and contracted uniform views."""
    rng = np.random.default_rng(23)
    for bundle in fuzz_corpus(40, seed=5):
        view, weights = bundle.view, bundle.weights
        ground = sorted(view.ground)
        yield view, weights
        yield view.restrict(u for u in ground if rng.random() < 0.7), weights
        yield view.contract(u for u in view.greedy_mwb(weights) if rng.random() < 0.5), weights
    loops = GraphicMatroid(3, ((0, 0), (0, 1), (1, 0), (1, 2), (2, 2), (2, 1), (0, 2), (0, 1)))
    ws = WeightedGroundSet.from_weights([7, 3, 8, 1, 6, 4, 2, 5])
    yield MatroidView.full(loops), ws
    yield MatroidView.full(loops).contract([3]), ws
    for k, C in ((3, [5]), (4, [0, 2]), (2, [1, 4])):
        yield MatroidView.full(UniformMatroid(6, k)).contract(C), ws


class TestInMwb:
    def test_matches_greedy_and_brute_force(self):
        rng = random.Random(31)
        seen = set()
        for view, weights in membership_views():
            ground = sorted(view.ground)
            for _ in range(8 if ground else 0):
                S = [v for v in ground if rng.random() < 0.5]
                u = rng.choice(ground)
                expect = u in view.greedy_mwb(weights, set(S) | {u})
                assert expect == (u in brute_force_mwb(view, weights, set(S) | {u}))
                for given in (S, tuple(S), frozenset(S), iter(S)):     # iter: read once
                    assert view.in_mwb(weights, given, u) == expect, (view, S, u)
                seen.add((u in S, expect))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_elements_outside_the_view_raise(self):
        view = MatroidView.full(GraphicMatroid(4, ((0, 1), (1, 2), (2, 3), (0, 2))))
        ws = WeightedGroundSet.from_weights([1, 2, 3, 4])
        minor = view.restrict([0, 1, 3]).contract([0])
        for S, u, stray in (([1], 0, "[0]"), ([0, 1], 3, "[0]"), ([1], 2, "[2]"),
                            ([1, 7], 3, "[7]"), ([], -1, "[-1]")):
            with pytest.raises(DomainError, match=re.escape(stray)):
                minor.in_mwb(ws, S, u)
        uniform = MatroidView.full(UniformMatroid(3, 1)).contract([2])
        with pytest.raises(DomainError, match=re.escape("[2]")):
            uniform.in_mwb(WeightedGroundSet.from_weights([1, 2, 3]), [2], 0)
        # in the minor, 1 and 3 are parallel and 3 is the heavier
        assert minor.in_mwb(ws, [1], 3)
        assert not minor.in_mwb(ws, [3], 1)

    @pytest.mark.parametrize("base", [UniformMatroid(3, 2), triangle_base()])
    def test_a_repeated_element_of_S_counts_once(self, base):
        # weights make 2 the heaviest and 0 the lightest; MWB({2, 0}) holds 0
        view, ws = MatroidView.full(base), WeightedGroundSet.from_weights([1, 2, 3])
        assert view.in_mwb(ws, [2, 2], 0) and view.in_mwb(ws, iter([2, 2, 2]), 0)
        assert not view.in_mwb(ws, [2, 1, 2], 0)


def reference_in_mwb(tracker, ranks, S, u):
    """The copy-and-add query the one-pass in_mwb replaced: add the elements
    of S heavier than u to a copy of the tracker, then ask it can_add(u)."""
    copy = tracker.copy()
    for v in S:
        if ranks[v] < ranks[u]:
            copy.add(v)
    return copy.can_add(u)


def test_one_pass_query_matches_the_copy_and_add_reference():
    """On every membership view, on its stored tracker and on one grown by a
    random independent set, with the query's S drawn at random densities."""
    rng = random.Random(41)
    seen = set()
    for view, weights in membership_views():
        ground, ranks = sorted(view.ground), weights.ranks
        grown = view.tracker()
        for v in rng.sample(ground, len(ground) // 2):
            grown.add(v)
        for tracker in (view._tracker, grown):
            stored = tracker_state(tracker)
            for _ in range(10 if ground else 0):
                density = rng.random()
                S = [v for v in ground if rng.random() < density]
                u = rng.choice(ground)
                answer = tracker.in_mwb(ranks, S, u)
                assert answer == reference_in_mwb(tracker, ranks, S, u), (view, S, u)
                assert tracker_state(tracker) == stored
                seen.add((tracker.uf is None, answer))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


# -- trackers copied from the view's own -----------------------------------------


def tracker_state(tracker):
    """Everything add() can change: the slot count and the union-find's parents."""
    uf = tracker.uf
    return tracker._slots, None if uf is None else list(uf.parent)


SQUARE_WITH_DIAGONAL = GraphicMatroid(4, ((0, 1), (1, 2), (2, 0), (2, 3), (0, 3)))


class TestTrackerCopies:
    @pytest.mark.parametrize("view", [
        MatroidView.full(UniformMatroid(4, 2)),
        MatroidView.full(triangle_base()),
        MatroidView.full(SQUARE_WITH_DIAGONAL).contract([0, 3]),
    ], ids=["uniform", "graphic", "contracted"])
    def test_add_on_one_copy_changes_no_other(self, view):
        stored = tracker_state(view._tracker)
        assert stored == tracker_state(AcceptedSetTracker(view))
        first, second = view.tracker(), view.tracker()
        assert tracker_state(first) == tracker_state(second) == stored
        outcomes = [first.add(u) for u in sorted(view.ground)]
        assert True in outcomes and False in outcomes       # at least one refused add
        assert tracker_state(first) != stored
        assert tracker_state(second) == tracker_state(view._tracker) == stored
        assert [second.add(u) for u in sorted(view.ground)] == outcomes

    @pytest.mark.parametrize("policy, bundle", [("virtual-msp", hat_graph(5)),
                                                ("sample-contracted", hat_graph(4))],
                             ids=["virtual-msp-hat5", "sample-contracted-hat4"])
    def test_a_trial_stream_leaves_the_view_as_built(self, policy, bundle):
        view = bundle.view
        traces = list(trial_stream(policy, view, bundle.weights, 0.5, 100, 0))
        assert sum(map(len, (t.accepted for t in traces))) > 100
        assert tracker_state(view._tracker) == tracker_state(AcceptedSetTracker(view))


def from_scratch(view, elements):
    """A tracker that re-adds the view's contraction, then adds `elements` in
    order; returns it with the outcome of each add."""
    tracker = AcceptedSetTracker(view)
    return tracker, [tracker.add(v) for v in elements]


def test_contracted_queries_match_trackers_built_from_scratch():
    rng = np.random.default_rng(17)
    contracted = dependent = 0
    for _ in range(60):
        bundle = random_graphic(int(rng.integers(1, 7)), int(rng.integers(1, 11)), rng)
        view, weights = bundle.view, bundle.weights
        chooser = AcceptedSetTracker(view)      # keeps the random contraction independent
        A = [u for u in rng.permutation(sorted(view.ground)).tolist()
             if rng.random() < 0.5 and chooser.add(u)]
        minor = view.contract(A)
        contracted += bool(minor.contraction)
        ground = sorted(minor.ground)
        for _ in range(6 if ground else 0):
            S = [v for v in ground if rng.random() < 0.6]
            u = ground[int(rng.integers(len(ground)))]
            added = from_scratch(minor, S)[1]
            dependent += not all(added)
            assert minor.is_independent(S) == all(added)
            assert minor.rank(S) == sum(added)
            tracker = from_scratch(minor, S)[0]
            assert minor.span(S) == frozenset(S) | {v for v in ground if not tracker.can_add(v)}
            for subset in (S, ground):
                order = weights.sort_desc(subset)
                kept = from_scratch(minor, order)[1]
                assert minor.greedy_mwb(weights, subset) == {v for v, k in zip(order, kept) if k}
            assert minor.greedy_mwb(weights) == minor.greedy_mwb(weights, ground)
            heavier = [v for v in S if weights.ranks[v] < weights.ranks[u]]
            assert minor.in_mwb(weights, S, u) == from_scratch(minor, heavier)[0].can_add(u)
            assert_tracker_answers_minor(view, A, weights, S, u)
    assert contracted >= 30 and dependent >= 30
    # one uniform input: 2 of 5 slots held, so an element is in MWB(S + u) over
    # the minor exactly when fewer than 3 elements of S outweigh it
    uniform = uniform_instance(9, 5)
    A, ground, ranks = [1, 6], sorted(uniform.view.ground - {1, 6}), uniform.weights.ranks
    answers = set()
    for _ in range(40):
        S = [v for v in ground if rng.random() < 0.6]
        u = ground[int(rng.integers(len(ground)))]
        answer = assert_tracker_answers_minor(uniform.view, A, uniform.weights, S, u)
        assert answer == (sum(ranks[v] < ranks[u] for v in S) < 3)
        answers.add(answer)
    assert answers == {False, True}


def assert_tracker_answers_minor(view, A, weights, S, u):
    """A view.tracker() copy holding A answers view.contract(A).in_mwb through
    its own in_mwb, and the query leaves it as it was; returns the answer."""
    held = view.tracker()
    assert all(map(held.add, A))
    before = [held.can_add(v) for v in sorted(view.ground)]
    answer = held.in_mwb(weights.ranks, S, u)
    assert answer == view.contract(A).in_mwb(weights, S, u)
    assert [held.can_add(v) for v in sorted(view.ground)] == before
    return answer


# -- deep union-find chains ----------------------------------------------------
#
# add() links one root under the other with no sizes, so a tracker can hold a
# chain as deep as the graph has vertices: path edges (k + 1, k) added in id
# order build one, and a view contracted by them stores it for every copy.

CHAIN_VERTICES = 300


def chain_base(order):
    """A spanning tree on CHAIN_VERTICES vertices, its edges at the even ids in
    the named order, each followed by a seeded chord (odd id) that closes a
    cycle or not, depending on what came before it."""
    n = CHAIN_VERTICES
    rng = np.random.default_rng(35)
    path = [(k + 1, k) for k in range(n - 1)]
    tree = {"path": path, "reversed": path[::-1], "star": [(k, 0) for k in range(1, n)],
            "random": [path[i] for i in rng.permutation(n - 1)]}[order]
    chords = [tuple(ends) for ends in rng.integers(n, size=(n - 1, 2)).tolist()]
    return GraphicMatroid(n, [e for pair in zip(tree, chords) for e in pair])


def reaches(adj, a, b):
    """Whether a reaches b in the graph adj, by BFS."""
    seen, queue = {a}, deque([a])
    while queue:
        x = queue.popleft()
        if x == b:
            return True
        for y in adj[x] - seen:
            seen.add(y)
            queue.append(y)
    return False


def grow_like_bfs(tracker, base, held, elements):
    """Add `elements` one by one to `tracker`, which holds `held`: each can_add
    and add answer must be BFS's, that the edge's ends are not yet joined.
    Returns the answers."""
    adj = defaultdict(set)

    def join(u):
        a, b = base.endpoints[u]
        adj[a].add(b)
        adj[b].add(a)

    for u in held:
        join(u)
    answers = []
    for u in elements:
        free = not reaches(adj, *base.endpoints[u])
        assert tracker.can_add(u) == free, u
        assert tracker.add(u) == free, u
        answers.append(free)
        if free:
            join(u)
    return answers


@pytest.mark.parametrize("order", ["path", "reversed", "star", "random"])
class TestDeepChains:
    def test_a_tracker_grown_in_id_order_answers_like_bfs(self, order):
        view = MatroidView.full(chain_base(order))
        answers = grow_like_bfs(view.tracker(), view.base, (), range(view.base.size))
        assert True in answers[1::2] and False in answers[1::2]     # chords go both ways
        for i in [*range(0, view.base.size, 23), view.base.size]:
            assert view.rank(range(i)) == oracle_rank(view, frozenset(range(i))) == sum(answers[:i])

    def test_copies_of_a_view_contracted_by_the_tree_answer_like_bfs(self, order):
        base = chain_base(order)
        held = range(0, base.size // 2, 2)             # the first half of the tree
        view = MatroidView.full(base).contract(held)
        rest = sorted(view.ground)
        half = len(rest) // 2
        first = view.tracker()
        early = grow_like_bfs(first, base, held, rest[:half])
        mid = first.copy()                              # taken mid-chain
        stored = tracker_state(first)
        late = grow_like_bfs(mid, base, [*held, *itertools.compress(rest, early)], rest[half:])
        assert tracker_state(first) == stored
        assert tracker_state(view._tracker) == tracker_state(AcceptedSetTracker(view))
        assert [first.add(u) for u in rest[half:]] == late
        assert grow_like_bfs(view.tracker(), base, held, rest) == early + late
        for i in [*range(0, len(rest), 23), len(rest)]:
            assert view.rank(rest[:i]) == oracle_rank(view, frozenset(rest[:i]))

    def test_basis_queries_answer_like_bfs(self, order):
        """in_mwb on the full view and on the one contracted by the first half
        of the tree, whose stored parent list holds the deep chain."""
        base = chain_base(order)
        rng = np.random.default_rng(37)
        weights = WeightedGroundSet.from_weights((rng.permutation(base.size) + 1).tolist())
        ranks = weights.ranks
        held = range(0, base.size // 2, 2)
        for view in (MatroidView.full(base), MatroidView.full(base).contract(held)):
            ground, stored = sorted(view.ground), tracker_state(view._tracker)
            answers = []
            for _ in range(24):
                density = rng.random()
                S = [v for v in ground if rng.random() < density]
                u = ground[int(rng.integers(len(ground)))]
                adj = defaultdict(set)
                for v in [*view.contraction, *(v for v in S if ranks[v] < ranks[u])]:
                    a, b = base.endpoints[v]
                    adj[a].add(b)
                    adj[b].add(a)
                answers.append(view.in_mwb(weights, S, u))
                assert answers[-1] == (not reaches(adj, *base.endpoints[u])), (S, u)
            assert True in answers and False in answers
            assert tracker_state(view._tracker) == stored


# -- file format ----------------------------------------------------------------


class TestFormatWeight:
    @pytest.mark.parametrize("w, text", [
        (Fraction(3), "3"),
        (Fraction(5, 4), "1.25"),
        (Fraction(7, 10), "0.7"),
        (Fraction(1, 8), "0.125"),
        (Fraction(1, 50), "0.02"),
        (Fraction(1, 3), "1/3"),
        (Fraction(22, 7), "22/7"),
    ])
    def test_examples(self, w, text):
        assert format_weight(w) == text
        assert Fraction(text) == w

    def test_matches_the_two_loop_reference(self):
        def reference(w):       # format_weight as it was: count the 2s and the 5s apart
            num, den = w.numerator, w.denominator
            if den == 1:
                return str(num)
            d, twos, fives = den, 0, 0
            while d % 2 == 0:
                d, twos = d // 2, twos + 1
            while d % 5 == 0:
                d, fives = d // 5, fives + 1
            if d != 1:
                return f"{num}/{den}"
            m = max(twos, fives)
            digits = str(num * 10 ** m // den).rjust(m + 1, "0")
            return f"{digits[:-m]}.{digits[-m:]}"

        dens = [2 ** a * 5 ** b * c for a in range(9) for b in range(9) for c in (1, 3, 7)]
        for num in (1, 2, 5, 7, 10, 99, 1000, 12345678901234567890):
            for den in dens:
                w = Fraction(num, den)
                assert format_weight(w) == reference(w), w


class TestParseWeight:
    def test_exponent_limit_is_inclusive(self):
        limit = sys.get_int_max_str_digits()
        assert _parse_weight(f"1e{limit - 1}", "") == 10 ** (limit - 1)
        assert _parse_weight(f"1E-{limit - 1}", "") == Fraction(1, 10 ** (limit - 1))
        assert _parse_weight(f"2.5e+{limit - 1}", "") == Fraction(25) * 10 ** (limit - 2)
        assert _parse_weight(f"0.1e{limit}", "") == 10 ** (limit - 1)
        for text in (f"1e{limit + 1}", f"1E-{limit + 1}", f"0.5e+{limit + 1}",
                     f"1e{limit + 1:_}", "7e999999999", "7e-999999999"):
            message = f"weight exponent too large (limit {limit}): 'elem 0 {text}'"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                _parse_weight(text, f"elem 0 {text}")

    def test_digit_limit_is_inclusive(self):
        # every weight that parses must print back: no part over `limit` digits
        limit = sys.get_int_max_str_digits()
        nines = "9" * limit
        assert _parse_weight(nines, "") == 10 ** limit - 1
        assert _parse_weight(f"1/{nines}", "") == Fraction(1, 10 ** limit - 1)
        assert _parse_weight(f"0.5e-{limit - 1}", "") == Fraction(1, 2 * 10 ** (limit - 1))
        for text in (f"1e{limit}", f"1E-{limit}", f"{nines}e1", f"{nines}.5",
                     f"0.{'0' * (limit - 1)}1"):
            message = f"weight has more than {limit} digits: 'elem 0 {text}'"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                _parse_weight(text, f"elem 0 {text}")

    def test_an_unlimited_interpreter_keeps_the_default_limit(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        limit = sys.int_info.default_max_str_digits
        assert _parse_weight(f"1e{limit - 1}", "") == 10 ** (limit - 1)
        with pytest.raises(ValueError, match=f"more than {limit} digits"):
            _parse_weight(f"1e{limit}", "")
        with pytest.raises(ValueError, match="exponent too large"):
            _parse_weight(f"1e{limit + 1}", "")


class TestInstanceFiles:
    def test_graphic_golden_dump(self):
        buf = io.StringIO()
        dump_instance(triangle_base(),
                      WeightedGroundSet.from_weights([1, 2, 3]), buf)
        assert buf.getvalue() == (
            "matroid graphic 3 3\n"
            "edge 0 0 1 1\n"
            "edge 1 1 2 2\n"
            "edge 2 2 0 3\n")

    def test_uniform_golden_dump(self):
        buf = io.StringIO()
        dump_instance(UniformMatroid(3, 2),
                      WeightedGroundSet.from_weights([1, 2, 3]), buf)
        assert buf.getvalue() == (
            "matroid uniform 3 2\n"
            "elem 0 1\n"
            "elem 1 2\n"
            "elem 2 3\n")

    def test_graphic_round_trip(self):
        base = GraphicMatroid(4, ((0, 1), (1, 2), (2, 3), (0, 2)))
        ws = WeightedGroundSet.from_weights([Fraction(1, 3), 2, Fraction(5, 4), 7])
        buf = io.StringIO()
        dump_instance(base, ws, buf)
        buf.seek(0)
        base2, ws2 = parse_instance(buf)
        assert base2 == base
        assert ws2.weights == ws.weights

    def test_uniform_round_trip(self):
        buf = io.StringIO()
        dump_instance(UniformMatroid(4, 1),
                      WeightedGroundSet.from_weights([9, 5, 2, 11]), buf)
        buf.seek(0)
        base2, ws2 = parse_instance(buf)
        assert base2 == UniformMatroid(4, 1)
        assert ws2.weights == (Fraction(9), Fraction(5), Fraction(2), Fraction(11))

    def test_comments_and_blanks_ignored(self):
        text = ("# a comment\n\nmatroid uniform 2 1\n"
                "elem 0 3\n# another\nelem 1 4\n")
        base, ws = parse_instance(io.StringIO(text))
        assert base == UniformMatroid(2, 1)
        assert ws.weight(1) == Fraction(4)

    @pytest.mark.parametrize("text", [
        "",
        "matroid cograph 2 1\nelem 0 1\nelem 1 2\n",
        "matroid uniform 2\n",
        "matroid uniform 2 1\nelem 0 1\n",
        "matroid uniform 2 1\nelem 0 1\nelem 0 2\n",
        "matroid uniform 2 1\nelem 0 1\nelem 5 2\n",
        "matroid graphic 2 1\nedge 0 0 1\n",
        "matroid graphic 2 2\nedge 0 0 1 1\n",
    ])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_instance(io.StringIO(text))


def two_branch_parse_instance(fp):
    """parse_instance as it was with one body loop per kind; the one-loop
    reader must raise the same errors, in the same order, or parse the same."""
    lines = [ln.strip() for ln in fp]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty instance file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "matroid":
        raise ValueError(f"bad header: {lines[0]!r}")
    kind = header[1]
    if kind == "uniform":
        n, k = int(header[2]), int(header[3])
        weights = {}
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 3 or parts[0] != "elem":
                raise ValueError(f"bad elem line: {ln!r}")
            u = int(parts[1])
            if not 0 <= u < n or u in weights:
                raise ValueError(f"bad or duplicate element id {u}")
            weights[u] = _parse_weight(parts[2], ln)
        if len(weights) < n:
            raise ValueError("missing elem lines")
        return UniformMatroid(n, k), WeightedGroundSet.from_weights(map(weights.get, range(n)))
    if kind == "graphic":
        nv, ne = int(header[2]), int(header[3])
        if ne < 0:
            raise ValueError(f"edge count must be nonnegative, got {ne}")
        ends, weights = {}, {}
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 5 or parts[0] != "edge":
                raise ValueError(f"bad edge line: {ln!r}")
            u = int(parts[1])
            if not 0 <= u < ne or u in ends:
                raise ValueError(f"bad or duplicate edge id {u}")
            ends[u] = (int(parts[2]), int(parts[3]))
            weights[u] = _parse_weight(parts[4], ln)
        if len(ends) < ne:
            raise ValueError("missing edge lines")
        labels = tuple(f"e{u}" for u in range(ne))
        return (GraphicMatroid(nv, tuple(map(ends.get, range(ne)))),
                WeightedGroundSet.from_weights(map(weights.get, range(ne)), labels))
    raise ValueError(f"unknown matroid kind: {kind!r}")


def malformed_instance_text(rng: random.Random) -> str:
    """A small instance file, usually broken somewhere: header, keyword, field
    count, id, endpoint or weight."""
    kind = rng.choice(["uniform", "graphic", "graphic", "uniform", "cograph"])
    header = ["matroid", kind, str(rng.randint(-2, 4)), str(rng.randint(-2, 4))]
    if rng.random() < 0.05:
        header[rng.choice([2, 3])] = rng.choice(["x", "1.5"])
    if rng.random() < 0.05:
        header[0] = "matriod"
    if rng.random() < 0.05:
        header = header[:rng.randint(1, 3)]
    lines = [" ".join(header)] if rng.random() > 0.03 else []
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.07:
            lines.append(rng.choice(["", "# note", "   "]))
            continue
        keyword = "elem" if (kind == "uniform") != (rng.random() < 0.1) else "edge"
        width = (3 if keyword == "elem" else 5) + rng.choice([0] * 12 + [-1, 1])
        fields = [keyword] + [rng.choice([str(rng.randint(-1, 4))] * 9 + ["y"])
                              for _ in range(width - 2)]
        fields.append(rng.choice(["1", "2", "3", "4", "5", "1/0", "0", "-1", "w", "3/2",
                                  "0.5", str(rng.randint(1, 9))]))
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def parse_outcome(parse, text):
    try:
        base, ws = parse(io.StringIO(text))
    except Exception as exc:
        return type(exc), str(exc)
    return base, ws.weights, ws.labels


class TestOneBodyReader:
    def test_matches_the_two_branch_reader(self):
        rng = random.Random(20261018)
        seen = set()
        for _ in range(20000):
            text = malformed_instance_text(rng)
            got = parse_outcome(parse_instance, text)
            assert got == parse_outcome(two_branch_parse_instance, text), text
            seen.add(got[1] if got[0] is ValueError else type(got[0]).__name__)
        # every message family and both parsed kinds turn up in the corpus
        for needle in ("empty instance file", "bad header", "unknown matroid kind",
                       "bad elem line", "bad edge line", "bad or duplicate element id",
                       "bad or duplicate edge id", "missing elem lines", "missing edge lines",
                       "edge count must be nonnegative", "zero denominator",
                       "invalid literal for int()", "size must be nonnegative",
                       "num_vertices must be nonnegative", "edge endpoint out of range",
                       "UniformMatroid", "GraphicMatroid"):
            assert any(needle in msg for msg in seen), needle


README = Path(__file__).resolve().parents[1] / "README.md"


def reference_parse_schedule(fp):
    """parse_schedule as it was with its own line loop; the shared reader must
    raise the same errors, in the same order, or parse the same."""
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


def reference_dump_instance(base, weights, fp):
    """dump_instance as it was, with the body keywords written out per kind."""
    if isinstance(base, UniformMatroid):
        fp.write(f"matroid uniform {base.size} {base.k}\n")
        for u in range(base.size):
            fp.write(f"elem {u} {format_weight(weights.weight(u))}\n")
    else:
        fp.write(f"matroid graphic {base.num_vertices} {base.size}\n")
        for u, (a, b) in enumerate(base.endpoints):
            fp.write(f"edge {u} {a} {b} {format_weight(weights.weight(u))}\n")


def schedule_outcome(parse, text):
    try:
        sched = parse(io.StringIO(text))
    except Exception as exc:
        return type(exc), str(exc)
    return sched.order, sched.sorted_times.tolist()


class TestTextLines:
    @pytest.mark.parametrize("skipped", ["", "   ", "\t", "#", "# note", "   # indented note"])
    def test_both_formats_skip_blank_and_whole_line_comment_lines(self, skipped):
        instance = "matroid graphic 2 2\nedge 0 0 1 1\nedge 1 1 0 5/2\n"
        schedule = "schedule 1 0.25\nschedule 0 0.75\n"
        for parse, text in ((parse_instance, instance), (parse_schedule, schedule)):
            padded = "".join(f"{skipped}\n{line}" for line in text.splitlines(True)) + skipped
            assert repr(parse(io.StringIO(padded))) == repr(parse(io.StringIO(text)))

    @pytest.mark.parametrize("parse, text, message", [
        (parse_instance, "matroid uniform 1 1\nelem 0 1  # id, weight\n",
         "bad elem line: 'elem 0 1  # id, weight'"),
        (parse_instance, "matroid graphic 2 1\nedge 0 0 1 1 #\n", "bad edge line: 'edge 0 0 1 1 #'"),
        (parse_schedule, "schedule 0 0.5 # note\n", "bad schedule line: 'schedule 0 0.5 # note'"),
        # the README's instance example as it once was printed
        (parse_instance, "matroid uniform 3 2          # kind, elements, rank\nelem 0 1\n",
         "bad header: 'matroid uniform 3 2          # kind, elements, rank'"),
    ])
    def test_a_note_after_the_fields_is_part_of_the_line(self, parse, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse(io.StringIO(text))

    def test_readme_examples_parse_as_printed(self):
        blocks, block = [], None        # the text of each fenced code block
        for line in README.read_text().splitlines(True):
            if line.startswith("```"):
                blocks, block = (blocks, "") if block is None else (blocks + [block], None)
            elif block is not None:
                block += line
        instances = [b for b in blocks if re.search(r"^matroid ", b, re.M)]
        parsed = [parse_instance(io.StringIO(b)) for b in instances]
        assert sorted(type(base).__name__ for base, _ in parsed) == ["GraphicMatroid",
                                                                   "UniformMatroid"]
        for text, (base, weights) in zip(instances, parsed):
            buf = io.StringIO()
            dump_instance(base, weights, buf)       # the example is what dump_instance writes
            assert buf.getvalue() == "".join(ln + "\n" for ln in text.splitlines()
                                             if not ln.startswith("#"))
        schedules = [b for b in blocks if b.startswith("schedule ")]
        assert len(schedules) == 1
        assert parse_schedule(io.StringIO(schedules[0])).order == (2, 0, 1)

    def test_schedule_reader_matches_its_own_loop(self):
        rng = random.Random(20261021)
        seen = set()
        for _ in range(5000):
            lines = []
            for _ in range(rng.randint(0, 5)):
                fields = ["schedule", str(rng.randint(-1, 4)), rng.choice(["0.25", "0.5", "2", "x"])]
                if rng.random() < 0.15:
                    fields[0] = rng.choice(["schedul", "elem", "#", ""])
                if rng.random() < 0.1:
                    fields = fields[:rng.randint(0, 2)] + (["# note"] if rng.random() < 0.5 else [])
                lines.append(rng.choice(["", " ", "\t"]) + " ".join(fields))
            text = "\n".join(lines)
            got = schedule_outcome(parse_schedule, text)
            assert got == schedule_outcome(reference_parse_schedule, text), text
            seen.add(got[1] if got[0] in (ValueError, TypeError) else "parsed")
        for needle in ("bad schedule line", "assigned twice", "outside [0, 1]",
                       "distinct times", "invalid literal for int()", "could not convert", "parsed"):
            assert any(needle in msg for msg in seen), needle

    def test_dump_instance_writes_what_it_wrote_per_kind(self):
        bundles = [*fuzz_corpus(40, 5), hat_graph(3), uniform_instance(4, 2),
                   random_graphic(4, 7, np.random.default_rng(3))]
        pairs = [(b.view.base, b.weights) for b in bundles]
        pairs += [(UniformMatroid(3, 1), WeightedGroundSet.from_weights(["1/3", "2.5", "1e-3"])),
                  (GraphicMatroid(1, ((0, 0),)), WeightedGroundSet.from_weights(["7/8"])),
                  (GraphicMatroid(0, ()), WeightedGroundSet.from_weights([])),
                  (UniformMatroid(0, 0), WeightedGroundSet.from_weights([]))]
        for base, weights in pairs:
            got, want = io.StringIO(), io.StringIO()
            dump_instance(base, weights, got)
            reference_dump_instance(base, weights, want)
            assert got.getvalue() == want.getvalue()
