"""Oracles, Monte Carlo estimation, analytic bounds, trace checkers, and the
exhaustive size-1 impossibility certificate.

brute_force_mwb is the trusted oracle for everything greedy computes: it
enumerates subsets outright and shares only the independence test (the
one AcceptedSetTracker, which the matroid-axioms suite guards) with greedy.
The checker functions consume traces and re-derive what they need from the
schedule rather than trusting any policy bookkeeping.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .instances import (InstanceBundle, double_triangle, fuzz_corpus, hat_graph,
                        random_graphic, uniform_instance)
from .matroid import GraphicMatroid, MatroidView, WeightedGroundSet
from .policies import build_policy
from .simulate import (DecisionTrace, check_cutoff, draw_schedule, forced_schedule,
                       run_trial, schedule_stream, trial_rng, trial_stream)


class OracleError(ValueError):
    """A reference oracle misbehaved (tie, size overflow, bad blocked set)."""


# -- brute force -------------------------------------------------------------


def brute_force_mwb(view: MatroidView, weights: WeightedGroundSet,
                    S=None) -> frozenset:
    """Exhaustive max-weight independent subset of S; the trusted oracle.

    Enumerates every subset, so it is capped at 20 elements. Distinct
    weights make the optimum unique; uniqueness is asserted rather than
    assumed, and a tie raises OracleError.
    """
    S = view._checked(view.ground if S is None else S)
    if len(S) > 20:
        raise OracleError("brute force capped at 20 elements")
    elems = sorted(S)
    best = frozenset()
    best_weight = Fraction(0)
    tie = None
    for r in range(1, len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            cand = frozenset(combo)
            if not view.is_independent(cand):
                continue
            w = weights.total(cand)
            if w > best_weight:
                best, best_weight, tie = cand, w, None
            elif w == best_weight:
                tie = cand
    if tie is not None:
        raise OracleError(f"maximum not unique: {sorted(best)} vs {sorted(tie)}")
    return best


# -- Monte Carlo estimation ----------------------------------------------------


def three_sigma(freq: float, trials: int) -> float:
    """Radius 3 * sqrt(f(1-f)/trials) of the binomial normal band."""
    return 3.0 * math.sqrt(freq * (1.0 - freq) / trials)


@dataclass(frozen=True, eq=False)
class EstimateReport:
    trials: int
    per_element_accept_freq: dict       # optimum element id -> acceptance frequency
    min_over_mwb: float
    utility_ratio_mean: float
    ci_radius_3sigma: float             # evaluated at the min_over_mwb frequency

    def to_json_obj(self) -> dict:
        return {
            "trials": self.trials,
            "perElementAcceptFreq": {str(u): f for u, f
                                     in sorted(self.per_element_accept_freq.items())},
            "minOverMwb": self.min_over_mwb,
            "utilityRatioMean": self.utility_ratio_mean,
            "ciRadius3Sigma": self.ci_radius_3sigma,
        }


def _count(name: str, value) -> int:
    """A count read as ids are, by operator.index: 2.5 or "3" raises ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def estimate(policy, bundle: InstanceBundle, p: float, trials: int, seed: int) -> EstimateReport:
    """Acceptance frequency of each optimum element plus the mean utility
    ratio, over `trials` independent schedules. The report carries no
    analytic bound; the CLI writes one beside it.

    Deterministic given (seed, trials): trial i always consumes the stream
    trial_rng(seed, i), whatever order trials execute in.
    """
    report, = estimate_grid(policy, bundle, (p,), trials, seed)
    return report


def estimate_grid(policy, bundle: InstanceBundle, ps, trials: int, seed: int):
    """estimate at each cutoff of ps, in order, as an iterator of reports.

    The call checks the inputs: trials, the optimum, then the cutoffs; last,
    start() on an empty sample raises for a policy that cannot run here. The
    first read runs every trial: each schedule is drawn once and run at
    every cutoff.
    """
    ps, trials = tuple(ps), _count("trials", trials)
    if trials < 1:
        raise ValueError("trials must be positive")
    if not bundle.mwb:
        raise ValueError("the optimum is empty: no element can be accepted")
    if not ps:
        raise ValueError("an estimate needs at least one cutoff")
    for p in ps:
        check_cutoff(p)
    policy, view, weights = build_policy(policy), bundle.view, bundle.weights
    policy.start(view, weights, ())

    def reports():
        tallies = [[0] * weights.count for _ in ps]     # acceptances per element
        for schedule in schedule_stream(weights, trials, seed):
            for p, tally in zip(ps, tallies):
                for u in run_trial(policy, view, weights, schedule, p).accepted:
                    tally[u] += 1
        opt_sum = weights.total(bundle.mwb) * trials
        for tally in tallies:
            # the accepted weight over all trials, as one exact sum over elements
            value_sum = sum((c * w for c, w in zip(tally, weights.weights) if c), Fraction(0))
            freqs = {u: tally[u] / trials for u in sorted(bundle.mwb)}
            min_freq = min(freqs.values())
            yield EstimateReport(trials, freqs, min_freq, float(value_sum / opt_sum),
                                 three_sigma(min_freq, trials))
    return reports()


# -- analytic values -----------------------------------------------------------


def alpha_p(k: int) -> tuple[float, float]:
    """Guarantee-and-cutoff pair for rank-k uniform blocked-set tables:
    (1/e, 1/e) at k=1, (k^(-k/(k-1)), k^(-1/(k-1))) beyond."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if k == 1:
        return (1.0 / math.e, 1.0 / math.e)
    return (k ** (-k / (k - 1.0)), k ** (-1.0 / (k - 1.0)))


def reference_bound(family: str | None, policy: str, p: float,
                    element: str | None = None) -> float | None:
    """Known analytic lower bound on acceptance, or None. Without an element
    it bounds every optimum element: 0.25 for virtual-msp on the hat family at
    p = 1/2 (BIKK2007), p ln(1/p) for dynkin. Of single elements only the hat
    hub edge e_inf has one, p^2 (1-p). A family of None (a file) has none."""
    policy = build_policy(policy).name
    hat_virtual = family == "hat" and policy == "virtual-msp"
    if element is not None:
        return p * p * (1.0 - p) if hat_virtual and element == "e_inf" else None
    if hat_virtual and abs(p - 0.5) <= 1e-9:
        return 0.25
    if policy == "dynkin" and 0.0 < p < 1.0:
        return p * math.log(1.0 / p)
    return None


def modified_hat_bounds(n: int, p: float) -> tuple[float, float]:
    """(p_n, rejection lower bound) for the modified hat family at cutoff p.

    p_n = 1 - (1 - p^3)^floor(n/2) is the chance some low-index claw has
    its 2_j, 3_j, 4_j edges all sampled; the rejection bound integrates the
    chance a high-index claw then traps the hub edge arriving at time t,
    q_{n,t} = 1 - (1 - p(t-p)^3/6)^floor(n/2), via composite Simpson
    quadrature with 1024 intervals.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    half = n // 2
    p_n = 1.0 - (1.0 - p ** 3) ** half
    ts = np.linspace(p, 1.0, 1025)
    q = 1.0 - (1.0 - p * (ts - p) ** 3 / 6.0) ** half
    integral = (ts[1] - ts[0]) / 3.0 * (q[0] + 4.0 * q[1::2].sum() + 2.0 * q[2:-1:2].sum() + q[-1])
    rejection = p + p_n * float(integral)
    return (float(p_n), rejection)


# -- blocked-set (forbidden-set) machinery --------------------------------------


@dataclass(frozen=True)
class ForbiddenSetOracle:
    """Strong-form blocked-set table: rule(Y, u) names the elements of Y - {u} whose
    earlier live arrival excuses rejecting u. Y is the checker's live set: read, never kept."""

    rule: Callable
    size_bound: int


def _hat_layout(bundle: InstanceBundle, what: str, family: str, width: int) -> tuple:
    """(e_inf, claws) of a bundle of the given hat family, whose claws hold
    `width` ids each; any other bundle raises ValueError naming `what`."""
    claws = bundle.claws
    if "e_inf" not in bundle.named or not claws or len(claws[0]) != width:
        raise ValueError(f"{what} needs a {family} instance")
    return bundle.named["e_inf"], claws


def hat_forbidden_oracle(bundle: InstanceBundle) -> ForbiddenSetOracle:
    """Size-2 blocked-set table for hat instances under the virtual policy.

    Roles: the hub edge is blocked by the first claw's pair; a claw edge
    that would become the leftmost complete claw is blocked by the bottom
    edge of the next complete claw; any other top edge is blocked by its
    own bottom edge; any other bottom edge needs no blocker (if its arrival
    closes a cycle it is the lightest edge on it). Blocked sets are clipped
    to Y - {u}: unseen elements can never be earlier arrivals.
    """
    e_inf, claws = _hat_layout(bundle, "hat_forbidden_oracle", "hat", 2)
    first, own = frozenset(claws[0]), [frozenset({b}) for _, b in claws] + [frozenset()]
    claw_of = {u: i for i, claw in enumerate(claws) for u in claw}

    def rule(Y: set, u: int) -> frozenset:
        if u == e_inf:
            return first & Y
        i = claw_of[u]
        if e_inf not in Y:          # find the first two complete claws, lazily
            complete = (j for j, (t, b) in enumerate(claws) if t in Y and b in Y)
            if next(complete, None) == i:
                return own[next(complete, -1)]      # own[-1] is the empty set
        return own[i] if u == claws[i][0] and claws[i][1] in Y else own[-1]

    return ForbiddenSetOracle(rule, 2)


def check_forbidden_consistency(trace: DecisionTrace, oracle: ForbiddenSetOracle,
                                view: MatroidView, weights: WeightedGroundSet
                                ) -> tuple[bool, int | None]:
    """Replay a trace against a blocked-set table.

    Whenever a live arrival u belongs to the max-weight basis of everything
    seen and no earlier live arrival lies in rule(seen + u, u), the trace
    must show u accepted. The table is validated at every live arrival;
    basis membership is asked only for a rejected, unexcused one.
    Reads the schedule, sample count and accepted set, never the decisions.
    Returns (True, None) or (False, first offending element).
    """
    view._check(trace.schedule.order)
    order, m, sampled = trace.schedule.order, trace.sample_count, trace.sample_set
    rule, bound, accepted = oracle.rule, oracle.size_bound, trace.accepted
    seen = set(sampled)
    for u in order[m:]:
        seen.add(u)
        blocked = rule(seen, u)
        if u in blocked or not blocked <= seen:
            raise OracleError("blocked set must be drawn from the seen elements")
        if len(blocked) > bound:
            raise OracleError(f"blocked set exceeds size bound {bound}")
        # blocked lies in seen - {u}, so no earlier live arrival is in it iff it lies in the sample
        if u not in accepted and blocked <= sampled and view.in_mwb(weights, seen, u):
            return (False, u)
    return (True, None)


def check_first_live_accepted(trace: DecisionTrace, view: MatroidView,
                              weights: WeightedGroundSet) -> bool:
    """The first live arrival must be accepted whenever it belongs to the
    max-weight basis of the samples plus itself (no earlier live arrival
    can excuse rejecting it, whatever the blocked-set table says)."""
    view._check(trace.schedule.order)
    order, m = trace.schedule.order, trace.sample_count
    return (m == len(order) or order[m] in trace.accepted
            or not view.in_mwb(weights, order[:m], order[m]))


# -- instance-specific trace checks ---------------------------------------------


def check_claw_blocker(trace: DecisionTrace, bundle: InstanceBundle) -> bool:
    """Hat instances: vacuously true unless the first claw was fully sampled
    and the hub edge arrived live (a hub absent from the trace is not live);
    then the hub edge must be accepted and no claw may have both of its edges
    accepted before the hub edge arrives."""
    bundle.view._check(trace.schedule.order)
    e_inf, claws = _hat_layout(bundle, "check_claw_blocker", "hat", 2)
    t_1, b_1 = claws[0]
    S, order, m = trace.sample_set, trace.schedule.order, trace.sample_count
    if not (t_1 in S and b_1 in S and e_inf in order[m:]):     # the hub edge is live
        return True
    if e_inf not in trace.accepted:
        return False
    before_hub = trace.accepted.intersection(order[:order.index(e_inf)])
    return not any(t in before_hub and b in before_hub for t, b in claws)


def check_modified_hat_trap(trace: DecisionTrace, bundle: InstanceBundle) -> bool:
    """Modified hat instances: whenever claw i has 2_i sampled, its 1_i, 3_i,
    4_i and the hub edge all live in that arrival order, and some earlier claw
    j < i has 2_j, 3_j, 4_j all sampled, the trace must accept both 1_i and
    4_i (which together with the hub edge would close a cycle, trapping it)."""
    bundle.view._check(trace.schedule.order)
    e_inf, claws = _hat_layout(bundle, "check_modified_hat_trap", "modified-hat", 4)
    if e_inf not in trace.schedule.order[trace.sample_count:]:  # sampled, or absent
        return True
    S, accepted, m = trace.sample_set, trace.accepted, trace.sample_count
    live = {u: i for i, u in enumerate(trace.schedule.order[m:])}   # place among live
    first = next((j for j, (_, e2, e3, e4) in enumerate(claws)
                  if e2 in S and e3 in S and e4 in S), len(claws))
    for e1, e2, e3, e4 in claws[first + 1:]:
        if (e2 in S and e1 in live and e3 in live and e4 in live
                and live[e1] < live[e3] < live[e4] < live[e_inf]
                and not (e1 in accepted and e4 in accepted)):
            return False
    return True


# -- impossibility certificate ---------------------------------------------------


@dataclass(frozen=True)
class CertifiedViolation:
    assignment: str             # pinned blocked sets, human-readable
    schedule: tuple             # ((element label, time), ...)
    accepted: tuple             # forced acceptances (labels), dependent in the instance

    def to_json_obj(self) -> dict:
        return {"assignment": self.assignment,
                "schedule": [[lab, t] for lab, t in self.schedule],
                "accepted": list(self.accepted)}


@dataclass(frozen=True, eq=False)
class ImpossibilityCertificate:
    checked_assignments: int
    violations: tuple

    @property
    def complete(self) -> bool:
        """True when every enumerated assignment produced a violation."""
        return len(self.violations) == self.checked_assignments

    def to_json_obj(self) -> dict:
        return {"checkedAssignments": self.checked_assignments,
                "violations": [v.to_json_obj() for v in self.violations]}


def certify_no_size1_strong_fs() -> ImpossibilityCertificate:
    """Exhaustively refute size-1 blocked-set tables on the doubled triangle.

    Each case pins part of a table and forces one schedule. An arrival is
    forced, for every policy honoring the pinned sets, when it lies in the
    max-weight basis of the seen elements (brute-forced) and either it is
    the first live arrival or its pinned blocked set avoids every earlier
    live arrival. Unpinned arrivals with live predecessors are never forced:
    a size-1 table may block any single one of them.

    Stage 1: for each parallel pair, any blocked-set choice for the heavy
    copy other than its light twin (one other element, or nothing) admits a
    three-element schedule whose forced acceptances contain both copies of
    the pair, a dependent set. Stage 2: the single surviving table (each
    heavy copy blocked by its twin) forces all three heavy copies, a cycle,
    on the schedule that samples the three light copies. Every enumerated
    assignment therefore carries a recorded violation.
    """
    bundle = double_triangle()
    view, weights = bundle.view, bundle.weights
    label = weights.label
    p = 0.25
    lights = [bundle.named[f"e_{i}_1"] for i in (1, 2, 3)]
    heavies = [bundle.named[f"e_{i}_2"] for i in (1, 2, 3)]
    cases = []      # (assignment text, pinned table, schedule pairs)
    for target, twin in zip(heavies, lights):
        cases.append((f"blocked({label(target)}) = nothing", {target: frozenset()},
                      [(twin, 0.4), (target, 0.8)]))
        cases += [(f"blocked({label(target)}) = {label(f)}", {target: frozenset({f})},
                   [(f, 0.1), (twin, 0.4), (target, 0.8)])
                  for f in sorted(view.ground) if f not in (target, twin)]
    cases.append(("blocked(e_i_2) = e_i_1 for every pair i",
                  {heavy: frozenset({light}) for heavy, light in zip(heavies, lights)},
                  [(light, 0.05 * (i + 1)) for i, light in enumerate(lights)]
                  + [(heavy, 0.4 + 0.2 * i) for i, heavy in enumerate(heavies)]))
    violations = []
    for assignment, pinned, pairs in cases:
        schedule = forced_schedule(pairs)
        order, m = schedule.order, schedule.first_live(p)
        forced = frozenset(
            u for i, u in enumerate(order[m:], m)
            if u in brute_force_mwb(view, weights, order[:i + 1])
            and (i == m or (u in pinned and pinned[u].isdisjoint(order[m:i]))))
        if not view.is_independent(forced):
            violations.append(CertifiedViolation(
                assignment, tuple((label(u), t) for u, t in pairs),
                tuple(sorted(label(u) for u in forced))))
    return ImpossibilityCertificate(len(cases), tuple(violations))


# -- verification suites ----------------------------------------------------------


@dataclass(eq=False)
class SuiteResult:
    name: str
    cases: int
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def check_matroid_axioms(view: MatroidView) -> list[str]:
    """Exhaustive check of the independence axioms on a small view: empty
    set independent, downward closure, and the exchange property (checked
    for |S| = |T| + 1, which with downward closure implies the rest)."""
    ground = sorted(view.ground)
    if len(ground) > 10:
        raise ValueError("axiom check is exhaustive; cap is 10 elements")
    failures = []
    by_size: dict[int, list[frozenset]] = {}
    indep_set = set()
    for r in range(len(ground) + 1):
        for combo in itertools.combinations(ground, r):
            if view.is_independent(combo):
                by_size.setdefault(r, []).append(frozenset(combo))
                indep_set.add(frozenset(combo))
    if frozenset() not in indep_set:
        failures.append("empty set dependent")
    for I in indep_set:
        for u in I:
            if I - {u} not in indep_set:
                failures.append(f"downward closure fails at {sorted(I)} minus {u}")
    for r, bigger in by_size.items():
        for S in bigger:
            for T in by_size.get(r - 1, ()):
                if not any(T | {x} in indep_set for x in S - T):
                    failures.append(f"exchange fails for {sorted(S)}, {sorted(T)}")
    return failures


def _suite_matroid_axioms(cases: int, seed: int) -> SuiteResult:
    result = SuiteResult("matroid-axioms", 0)
    pairs = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    for ne in range(1, 4):      # every multigraph on 3 vertices with up to 3 edges
        for combo in itertools.combinations_with_replacement(pairs, ne):
            result.cases += 1
            result.failures += check_matroid_axioms(MatroidView.full(GraphicMatroid(3, combo)))
    for n in range(1, 6):
        for k in range(n + 1):
            result.cases += 1
            result.failures += check_matroid_axioms(
                uniform_instance(n, k).view)
    rng = trial_rng(seed, 0xA1)
    corpus = fuzz_corpus(cases, seed)
    for bundle in corpus:
        view = bundle.view
        ground = sorted(view.ground)
        keep = [u for u in ground if rng.random() < 0.7]
        sub = view.restrict(keep)
        basis = view.greedy_mwb(bundle.weights, keep)
        pick = [u for u in sorted(basis) if rng.random() < 0.5]
        minor = sub.contract(pick)
        for v in (view, sub, minor):
            result.cases += 1
            result.failures += check_matroid_axioms(v)
    return result


def _random_subset(rng, elems):
    return frozenset(u for u in elems if rng.random() < 0.5)


def _suite_mwb_lemmas(cases: int, seed: int) -> SuiteResult:
    """Randomized battery of the structural basis/span/rank properties that
    every policy implementation leans on."""
    result = SuiteResult("mwb-lemmas", cases)
    corpus = fuzz_corpus(30, seed)
    rng = trial_rng(seed, 0xB2)
    for _ in range(cases):
        bundle = corpus[int(rng.integers(len(corpus)))]
        view, weights = bundle.view, bundle.weights
        ground = sorted(view.ground)
        if not ground:
            continue
        S = _random_subset(rng, ground)
        T = frozenset(u for u in S if rng.random() < 0.6)
        u = int(ground[int(rng.integers(len(ground)))])
        mwb_S = view.greedy_mwb(weights, S)
        mwb_T = view.greedy_mwb(weights, T)
        mwb_Su = view.greedy_mwb(weights, S | {u})

        if not (mwb_S & T) <= mwb_T:
            result.failures.append(f"basis-of-subset containment fails: S={sorted(S)} T={sorted(T)}")
        desc = weights.sort_desc(S)
        j = int(rng.integers(len(desc) + 1))
        prefix = frozenset(desc[:j])
        if (mwb_S & prefix) != view.greedy_mwb(weights, prefix):
            result.failures.append(f"weight-prefix basis equality fails: S={sorted(S)} j={j}")
        if len(mwb_S - mwb_Su) > 1:
            result.failures.append(f"single-displacement bound fails: S={sorted(S)} u={u}")
        if mwb_Su != view.greedy_mwb(weights, mwb_S | {u}):
            result.failures.append(f"basis-of-basis equality fails: S={sorted(S)} u={u}")
        if view.rank(S | {u}) - view.rank(S) not in (0, 1):
            result.failures.append(f"unit rank increment fails: S={sorted(S)} u={u}")

        A = _random_subset(rng, ground)
        B = _random_subset(rng, ground)
        if view.rank(A | B) + view.rank(A & B) > view.rank(A) + view.rank(B):
            result.failures.append(f"rank submodularity fails: A={sorted(A)} B={sorted(B)}")
        if not view.span(T) <= view.span(S):
            result.failures.append(f"span monotonicity fails: T={sorted(T)} S={sorted(S)}")

        # greedy takes exactly the elements outside the span of their heavier prefix
        taken = []
        for v in desc:
            if v not in view.span(taken):
                taken.append(v)
        if frozenset(taken) != mwb_S:
            result.failures.append(f"greedy span criterion fails: S={sorted(S)}")

        # same closure after swapping u for u' when u lies in span(I + u')
        I = mwb_S
        span_I = view.span(I)
        outside = [v for v in ground if v not in span_I]
        if len(outside) >= 2:
            u2 = int(outside[int(rng.integers(len(outside)))])
            span_Iu2 = view.span(I | {u2})
            swaps = [v for v in outside if v != u2 and v in span_Iu2]
            if swaps:
                u1 = int(swaps[int(rng.integers(len(swaps)))])
                if view.span(I | {u1}) != span_Iu2:
                    result.failures.append(
                        f"span swap equality fails: I={sorted(I)} u={u1} u'={u2}")
    return result


def _suite_equivalences(cases: int, seed: int) -> SuiteResult:
    """Trace-for-trace policy equivalences on seeded schedules: the
    contracted sampling rule against the reference-set framework on graphic
    instances, and the three uniform-matroid reductions. Runs on one
    schedule compare accepted sets, which fix every accept; the virtual
    twins compare decisions, kicks included."""
    result = SuiteResult("equivalences", cases)
    rng = trial_rng(seed, 0xC3)
    for run in range(cases):
        p = 0.2 + 0.6 * float(rng.random())

        nv = int(rng.integers(3, 7))
        ne = int(rng.integers(3, 13))
        g = random_graphic(nv, ne, rng)
        sched = draw_schedule(g.weights, rng)
        t_sc = run_trial("sample-contracted", g.view, g.weights, sched, p)
        t_gf = run_trial("greedy-framework", g.view, g.weights, sched, p)
        if t_sc.accepted != t_gf.accepted:
            result.failures.append(
                f"run {run}: contracted sampling != reference framework on {ne} edges")

        n = int(rng.integers(4, 13))
        k = int(rng.integers(1, 5))
        uni = uniform_instance(n, k)
        sched = draw_schedule(uni.weights, rng)
        t_vm = run_trial("virtual-msp", uni.view, uni.weights, sched, p)
        t_vu = run_trial("virtual-uniform", uni.view, uni.weights, sched, p)
        if t_vm.decisions != t_vu.decisions:
            result.failures.append(f"run {run}: virtual twins diverge on {k}-uniform")
        t_sc = run_trial("sample-contracted", uni.view, uni.weights, sched, p)
        t_op = run_trial("optimistic", uni.view, uni.weights, sched, p)
        if t_sc.accepted != t_op.accepted:
            result.failures.append(f"run {run}: optimistic diverges on {k}-uniform")

        one = uniform_instance(int(rng.integers(3, 10)), 1)
        sched = draw_schedule(one.weights, rng)
        t_dy = run_trial("dynkin", one.view, one.weights, sched, p)
        for other in ("sample", "sample-contracted"):
            t_other = run_trial(other, one.view, one.weights, sched, p)
            if t_dy.accepted != t_other.accepted:
                result.failures.append(f"run {run}: {other} diverges from dynkin on 1-uniform")
    return result


def _suite_claw_blocker(trials: int, seed: int, n: int, p: float) -> SuiteResult:
    result = SuiteResult("claw-blocker", trials)
    bundle = hat_graph(n)
    for idx, trace in enumerate(trial_stream("virtual-msp", bundle.view,
                                             bundle.weights, p, trials, seed)):
        if not check_claw_blocker(trace, bundle):
            result.failures.append(f"trial {idx}: hub edge not protected")
    return result


def _suite_forbidden_consistency(trials: int, seed: int, n: int, p: float) -> SuiteResult:
    result = SuiteResult("forbidden-consistency", trials)
    bundle = hat_graph(n)
    oracle = hat_forbidden_oracle(bundle)
    for idx, trace in enumerate(trial_stream("virtual-msp", bundle.view,
                                             bundle.weights, p, trials, seed)):
        ok, u = check_forbidden_consistency(trace, oracle, bundle.view, bundle.weights)
        if not ok:
            result.failures.append(f"trial {idx}: unexcused rejection of element {u}")
            if u == trace.schedule.order[trace.sample_count]:   # nothing could excuse it
                result.failures.append(f"trial {idx}: first live arrival wrongly rejected")
    return result


# suite name -> (runner, {argument it reads: default}); every runner also takes the seed
_SUITES = {
    "matroid-axioms": (_suite_matroid_axioms, {"cases": 20}),
    "mwb-lemmas": (_suite_mwb_lemmas, {"cases": 2000}),
    "equivalences": (_suite_equivalences, {"cases": 200}),
    "claw-blocker": (_suite_claw_blocker, {"trials": 2000, "n": 5, "p": 0.5}),
    "forbidden-consistency": (_suite_forbidden_consistency, {"trials": 1000, "n": 5, "p": 0.5}),
}
SUITE_NAMES = tuple(_SUITES)
CASE_SUITES = tuple(name for name, (_, reads) in _SUITES.items() if "cases" in reads)


def run_suite(name: str, *, cases: int | None = None, trials: int | None = None,
              seed: int = 0, n: int | None = None, p: float | None = None) -> SuiteResult:
    """Run one named suite. An argument left as None takes the suite's
    default; one the suite does not read raises ValueError."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite: {name!r}")
    runner, defaults = _SUITES[name]
    given = {"cases": cases, "trials": trials, "n": n, "p": p}
    for arg, value in given.items():
        if value is not None and arg not in defaults:
            raise ValueError(f"--{arg} does not apply to suite {name}")
    for arg in ("cases", "trials", "n"):
        value = given[arg] = None if given[arg] is None else _count(arg, given[arg])
        if value is not None and value < 1:
            raise ValueError(f"{arg} must be at least 1, got {value}")
    return runner(seed=seed, **{arg: default if given[arg] is None else given[arg]
                                for arg, default in defaults.items()})
