"""The benchmark's tracer must still find the library's hook points, and
its workloads must still reproduce their pinned outputs.

bench/tracer.py rebinds matsec functions and methods by name (run_trial,
AcceptedSetTracker, RunningMwb.insert, Policy.decide, policy.accepted, ...)
while a traced unit runs. A refactor that renames one of them would break
`bench/run.py --trace 1` without failing any other test, so this loads the
tracer by path, traces a small run and checks its counts and its undo.
Likewise a change that breaks bench/workloads.py, or moves one of its pinned
digests, would first show as a refused benchmark run; so each workload's
unit runs here once at its pin seed.
"""

import hashlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

from matsec import (POLICY_NAMES, analysis, hat_graph, matroid, modified_hat_graph,
                    policies, simulate, uniform_instance)

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
WORKLOADS_PATH = TRACER_PATH.with_name("workloads.py")
BENCHMARKED = ["hat-sweep", "mhat64-trap", "dynkin200", "hat5-forbidden"]


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracer):
    """Every attribute the tracer may rebind, by owner."""
    owners = list(tracer.MODULES)
    owners += tracer._subclasses(policies.Policy) + tracer._subclasses(policies.RunningMwb)
    owners += [policies.AcceptedSetTracker, matroid.MatroidView, matroid.UnionFind]
    return {owner: dict(vars(owner)) for owner in owners}


def assert_restored(before):
    """Every attribute the tracer rebound is the original again."""
    for owner, attrs in before.items():
        now = vars(owner)
        assert now.keys() == attrs.keys(), owner
        assert [a for a, v in attrs.items() if now[a] is not v] == [], owner


def test_traced_run_counts_every_layer_and_restores_bindings():
    tracer = load_tracer()
    before = bindings(tracer)
    hat, one = hat_graph(3), uniform_instance(20, 1)
    t = tracer.Tracer()
    with t.installed():
        assert simulate.run_trial is not before[simulate]["run_trial"]
        assert policies.VirtualMspPolicy.decide is not before[policies.VirtualMspPolicy]["decide"]
        traces = list(simulate.trial_stream("virtual-msp", hat.view, hat.weights, 0.5, 20, 0))
        analysis.estimate("dynkin", one, 1 / math.e, 50, 0)
    counts = t.exact_counts()
    assert len(traces) == 20
    assert counts["simulate.arrivals"] == 20 * 7 + 50 * 20
    # one start per trial takes the sample; the estimate's call starts one
    # more policy on an empty sample before its first trial
    assert t.calls["policies.start"] == 20 + 50 + 1
    for name in ("policies.mwb_insert.calls", "policies.decide.calls",
                 "matroid.union_find.finds"):
        assert counts[name] > 0, name
    # the tracker is defined in matroid; the tracer hooks it as policies.AcceptedSetTracker
    assert policies.AcceptedSetTracker is matroid.AcceptedSetTracker
    assert t.calls["policies.tracker"] > 0
    # trackers copied from the view's own still add, test and find through the
    # hooked methods, so the counts equal those of trackers built from scratch
    assert counts["matroid.union_find.finds"] == 140
    assert t.calls["policies.tracker"] == 123
    assert_restored(before)


def test_traced_forest_kernel_counts_are_pinned():
    """`virtual-msp` on a modified hat inserts into the forest kernel, as the
    mhat64-trap workload does: one traced insert per arrival, and the
    kernel's representation moves none of the exact counts."""
    tracer, hat = load_tracer(), modified_hat_graph(8)
    before = bindings(tracer)
    t = tracer.Tracer()
    with t.installed():
        traces = list(simulate.trial_stream("virtual-msp", hat.view, hat.weights, 0.5, 20, 0))
    assert len(traces) == 20
    counts = t.exact_counts()
    assert {name: counts[name] for name in (
        "simulate.arrivals", "policies.mwb_insert.calls", "policies.mwb_insert.entered",
        "policies.decide.calls", "policies.decide.accepted", "matroid.union_find.finds")} == {
        "simulate.arrivals": 660, "policies.mwb_insert.calls": 660,
        "policies.mwb_insert.entered": 533, "policies.decide.calls": 328,
        "policies.decide.accepted": 173, "matroid.union_find.finds": 694}
    assert t.calls["policies.tracker"] == 380
    assert_restored(before)


def test_traced_forbidden_suite_runs_one_check_per_trace():
    """The suite reads its first-live verdict off the blocked-set pass, so
    `analysis.check` opens one span per trace, not two."""
    tracer = load_tracer()
    before = bindings(tracer)
    t = tracer.Tracer()
    with t.installed():
        result = analysis.run_suite("forbidden-consistency", trials=50, seed=0)
    assert result.cases == 50
    assert t.calls["analysis.suite"] == 1
    assert t.calls["analysis.check"] == 50
    assert_restored(before)


def test_traced_sample_rules_count_their_decides_and_tracker_calls():
    """No benchmark workload runs `sample` or `sample-contracted`, so this is
    the one check that a traced run still sees their decide and tracker calls."""
    tracer, hat = load_tracer(), hat_graph(3)
    calls, accepted = {}, {}
    for name in ("sample", "sample-contracted"):
        t = tracer.Tracer()
        with t.installed():
            traces = list(simulate.trial_stream(name, hat.view, hat.weights, 0.5, 10, 0))
        calls[name] = (t.calls["policies.start"], t.calls["policies.decide"],
                       t.calls["policies.tracker"])
        accepted[name] = sum(len(trace.accepted) for trace in traces)
        assert t.exact_counts()["policies.decide.accepted"] == accepted[name]
    # (start spans, decides, tracker add/can_add calls): neither rule defines
    # its own start, and the basis query makes no tracker call, so the tracker
    # calls are the harness's one add per acceptance plus the rule's own add
    # after each yes from in_mwb (39 for sample, 30 for sample-contracted)
    assert accepted == {"sample": 28, "sample-contracted": 23}
    assert calls == {"sample": (10, 35, 67), "sample-contracted": (10, 35, 53)}


def test_traced_basis_query_makes_no_tracker_call_or_find():
    """view.in_mwb answers on a private parent list, not through the hooked
    add, can_add and find, so the tracer counts none for it."""
    tracer, hat = load_tracer(), hat_graph(5)
    view, ground = hat.view, sorted(hat.view.ground)
    t = tracer.Tracer()
    with t.installed():
        answers = {view.in_mwb(hat.weights, ground[:i], u) for i in range(len(ground))
                   for u in ground}
    assert answers == {False, True}
    assert t.calls["policies.tracker"] == 0
    assert t.exact_counts()["matroid.union_find.finds"] == 0


# the uniform-only policies run on uniform instances, every other on a hat
TRACED_BUNDLES = {"dynkin": uniform_instance(8, 1), "optimistic": uniform_instance(8, 3),
                  "virtual-uniform": uniform_instance(8, 3)}


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_one_decide_span_per_live_arrival(name):
    """A start or decide that calls another traced one (say a subclass calling a
    base rule through super()) would open nested spans and count a call twice."""
    tracer, bundle = load_tracer(), TRACED_BUNDLES.get(name, hat_graph(3))
    t = tracer.Tracer()
    with t.installed():
        traces = list(simulate.trial_stream(name, bundle.view, bundle.weights, 0.5, 20, 3))
    live = sum(len(trace.decisions) for trace in traces)
    accepted = sum(len(trace.accepted) for trace in traces)
    assert live > 0 and accepted > 0
    assert t.calls["policies.start"] == 20
    assert t.calls["policies.decide"] == live
    assert t.exact_counts()["policies.decide.accepted"] == accepted


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("name", BENCHMARKED)
def test_workload_unit_reproduces_its_pinned_digest(workloads, name):
    # the final checks are left out: hat5's repeats C8, dynkin200's pools many units
    w = workloads.WORKLOADS[name]
    unit = w.unit(w.build(), workloads.PIN_SEED)
    assert unit.problems == []
    assert hashlib.sha256(unit.output).hexdigest() == w.pinned


def test_the_workloads_are_the_four_benchmarked(workloads):
    assert list(workloads.WORKLOADS) == BENCHMARKED
