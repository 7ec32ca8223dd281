"""Outside-in tracing of matsec's layers.

The tracer rebinds module attributes and class methods of the installed
`matsec` modules for the duration of a traced unit and restores them
afterwards; the package's source is never edited. Spans are aggregated in
memory per name (calls, inclusive time, self time) instead of being kept one
by one: a traced unit makes millions of calls. A span's self time is its
duration minus the time of the spans it caused, so the self times of all
spans add up to the traced wall time.

Counts are taken at the same boundaries: arrivals delivered, inserts that
entered the running basis, decides made once the accepted set had full
rank, accepted decides, trials estimated and union-find finds (counted, not
timed, because a find is too short to time).
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

import matsec
from matsec import analysis, cli, instances, matroid, policies, simulate

MODULES = (matsec, analysis, cli, instances, matroid, policies, simulate)
LAYERS = ("cli", "analysis", "simulate", "policies", "matroid", "instances")

# span name -> module functions it covers
FUNCTION_SPANS = {
    "cli.main": (cli.main,),
    "analysis.estimate": (analysis.estimate,),
    "analysis.suite": (analysis.run_suite,),
    "analysis.check": (analysis.check_modified_hat_trap,
                       analysis.check_forbidden_consistency,
                       analysis.check_first_live_accepted,
                       analysis.check_claw_blocker),
    "simulate.trial_rng": (simulate.trial_rng,),
    "simulate.draw_schedule": (simulate.draw_schedule,),
    "simulate.run_trial": (simulate.run_trial,),
    "instances.build": (instances.triangle, instances.double_triangle,
                        instances.hat_graph, instances.modified_hat_graph,
                        instances.uniform_instance, instances.random_graphic),
}


def _subclasses(base):
    return [c for c in vars(policies).values()
            if isinstance(c, type) and issubclass(c, base) and c is not base]


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)     # inclusive seconds per span
        self.self_s = defaultdict(float)    # exclusive seconds per span
        self.counts = Counter()
        self._stack = [0.0]                 # child seconds of each open span
        self._policy_rank = {}              # id(policy) -> rank of its view
        self._view_rank = {}                # id(view) -> (view, rank)
        self._counting = True

    # -- span machinery -------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        stack, calls, total, self_s = self._stack, self.calls, self.total, self.self_s

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                calls[name] += 1
                total[name] += dt
                self_s[name] += dt - child
            if after is not None:
                after(args, result)
            return result
        return traced

    def _counted_find(self, find):
        counts = self.counts

        def traced_find(uf, x):
            if self._counting:
                counts["matroid.union_find.finds"] += 1
            return find(uf, x)
        return traced_find

    # -- hooks ----------------------------------------------------------------

    def _rank(self, view) -> int:
        hit = self._view_rank.get(id(view))
        if hit is None:
            self._counting = False
            try:
                hit = (view, view.rank(view.ground))   # keeps view alive: ids stay unique
            finally:
                self._counting = True
            self._view_rank[id(view)] = hit
        return hit[1]

    def _on_start(self, args, kwargs):
        policy, view = args[0], args[1]
        self._policy_rank[id(policy)] = self._rank(view)

    def _on_decide(self, args, kwargs):
        policy = args[0]
        if len(policy.accepted) >= self._policy_rank[id(policy)]:
            self.counts["policies.decide.after_full"] += 1

    def _after_decide(self, args, decision):
        self.counts["policies.decide.accepted"] += decision.accept

    def _after_insert(self, args, result):
        self.counts["policies.mwb_insert.entered"] += result[0]

    def _on_run_trial(self, args, kwargs):
        schedule = args[3] if len(args) > 3 else kwargs["schedule"]
        self.counts["simulate.arrivals"] += len(schedule.order)

    def _on_estimate(self, args, kwargs):
        self.counts["analysis.estimate.trials"] += args[3] if len(args) > 3 else kwargs["trials"]

    # -- installation ---------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Rebind matsec's entry points to traced wrappers until exit."""
        undo = []

        def rebind(owner, attr, new):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        hooks = {"simulate.run_trial": self._on_run_trial,
                 "analysis.estimate": self._on_estimate}
        for name, fns in FUNCTION_SPANS.items():
            for fn in fns:
                wrapped = self.wrap(name, fn, hooks.get(name))
                for module in MODULES:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            rebind(module, attr, wrapped)
        for cls in _subclasses(policies.Policy):
            methods = {"start": (self._on_start, None),
                       "observe_sample": (None, None),
                       "decide": (self._on_decide, self._after_decide)}
            for meth, (before, after) in methods.items():
                if meth in vars(cls):
                    rebind(cls, meth, self.wrap(f"policies.{meth}", vars(cls)[meth],
                                                before, after))
        for cls in _subclasses(policies.RunningMwb):
            if "insert" in vars(cls):
                rebind(cls, "insert", self.wrap("policies.mwb_insert", vars(cls)["insert"],
                                                after=self._after_insert))
        tracker = policies.AcceptedSetTracker
        for meth in ("can_add", "add"):
            rebind(tracker, meth, self.wrap("policies.tracker", vars(tracker)[meth]))
        view = matroid.MatroidView
        rebind(view, "greedy_mwb", self.wrap("matroid.greedy_mwb", vars(view)["greedy_mwb"]))
        uf = matroid.UnionFind
        rebind(uf, "find", self._counted_find(vars(uf)["find"]))
        try:
            yield self
        finally:
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)

    def exact_counts(self) -> dict:
        """The counts that repeat bit for bit at a fixed seed."""
        return {
            "simulate.arrivals": self.counts["simulate.arrivals"],
            "policies.mwb_insert.calls": self.calls["policies.mwb_insert"],
            "policies.mwb_insert.entered": self.counts["policies.mwb_insert.entered"],
            "policies.decide.calls": self.calls["policies.decide"],
            "policies.decide.after_full": self.counts["policies.decide.after_full"],
            "policies.decide.accepted": self.counts["policies.decide.accepted"],
            "matroid.greedy_mwb.calls": self.calls["matroid.greedy_mwb"],
            "matroid.union_find.finds": self.counts["matroid.union_find.finds"],
        }

    def layer_metrics(self, exact: dict, traced_wall: float) -> dict:
        """Per-layer values: mean times from every traced unit, counts and
        ratios of counts from `exact` (the first traced unit)."""
        def us(name):
            return 1e6 * self.total[name] / self.calls[name] if self.calls[name] else 0.0

        def self_us(name):
            return 1e6 * self.self_s[name] / self.calls[name] if self.calls[name] else 0.0

        def ratio(num, den):
            return exact[num] / exact[den] if exact[den] else 0.0

        trials = self.counts["analysis.estimate.trials"]
        values = {
            "simulate.trial_rng.us": (us("simulate.trial_rng"), "us"),
            "simulate.draw_schedule.us": (us("simulate.draw_schedule"), "us"),
            "simulate.run_trial.self_us": (self_us("simulate.run_trial"), "us"),
            "simulate.arrivals": (exact["simulate.arrivals"], "count"),
            "policies.mwb_insert.calls": (exact["policies.mwb_insert.calls"], "count"),
            "policies.mwb_insert.us": (us("policies.mwb_insert"), "us"),
            "policies.mwb_insert.enter_ratio": (
                ratio("policies.mwb_insert.entered", "policies.mwb_insert.calls"), "ratio"),
            "policies.decide.calls": (exact["policies.decide.calls"], "count"),
            "policies.decide.self_us": (self_us("policies.decide"), "us"),
            "policies.decide.after_full": (exact["policies.decide.after_full"], "count"),
            "policies.decide.accept_ratio": (
                ratio("policies.decide.accepted", "policies.decide.calls"), "ratio"),
            "policies.observe_sample.self_us": (self_us("policies.observe_sample"), "us"),
            "policies.tracker.us": (us("policies.tracker"), "us"),
            "matroid.greedy_mwb.calls": (exact["matroid.greedy_mwb.calls"], "count"),
            "matroid.greedy_mwb.us": (us("matroid.greedy_mwb"), "us"),
            "matroid.union_find.finds": (exact["matroid.union_find.finds"], "count"),
            "analysis.estimate.self_us": (
                1e6 * self.self_s["analysis.estimate"] / trials if trials else 0.0, "us"),
            "analysis.check.us": (us("analysis.check"), "us"),
            "cli.self_s": (self.self_s["cli.main"] / self.calls["cli.main"]
                           if self.calls["cli.main"] else 0.0, "s"),
        }
        layer_self = {layer: sum(s for name, s in self.self_s.items()
                                 if name.startswith(layer + "."))
                      for layer in LAYERS}
        for layer, s in layer_self.items():
            values[f"{layer}.self_share"] = (s / traced_wall, "ratio")
        values["trace.self_sum_ratio"] = (sum(layer_self.values()) / traced_wall, "ratio")
        return values
