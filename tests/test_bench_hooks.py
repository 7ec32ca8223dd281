"""The benchmark's tracer must still find the library's hook points.

bench/tracer.py rebinds matsec functions and methods by name (run_trial,
AcceptedSetTracker, RunningMwb.insert, Policy.decide, policy.accepted, ...)
while a traced unit runs. A refactor that renames one of them would break
`bench/run.py --trace 1` without failing any other test, so this loads the
tracer by path, traces a small run and checks its counts and its undo.
"""

import importlib.util
import math
from pathlib import Path

from matsec import analysis, hat_graph, matroid, policies, simulate, uniform_instance

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
    assert t.calls["policies.start"] == 20 + 50     # one start per trial takes the sample
    for name in ("policies.mwb_insert.calls", "policies.decide.calls",
                 "matroid.union_find.finds"):
        assert counts[name] > 0, name
    # the tracker is defined in matroid; the tracer hooks it as policies.AcceptedSetTracker
    assert policies.AcceptedSetTracker is matroid.AcceptedSetTracker
    assert t.calls["policies.tracker"] > 0
    for owner, attrs in before.items():     # every rebound attribute is the original again
        now = vars(owner)
        assert now.keys() == attrs.keys(), owner
        assert [a for a, v in attrs.items() if now[a] is not v] == [], owner
