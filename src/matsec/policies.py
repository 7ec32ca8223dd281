"""Online accept/reject policies and the incremental max-weight-basis kernel.

Every policy gets its sample first, in one start() call that also resets
it, and then sees the live arrivals one at a time through decide(). So one
instance can serve many sequential trials; build_policy() makes fresh
instances for anything concurrent.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .matroid import (AcceptedSetTracker, DomainError, GraphicMatroid, MatroidView,
                      UniformMatroid, WeightedGroundSet)


@dataclass(frozen=True)
class Decision:
    accept: bool
    kicked: int | None = None
    kicked_was_sample: bool | None = None


_ACCEPT, _REJECT = Decision(True), Decision(False)   # shared: a frozen Decision is a value


def _decision(accept: bool, kicked: int | None, kicked_was_sample: bool | None) -> Decision:
    if kicked is None:
        return _ACCEPT if accept else _REJECT
    return Decision(accept, kicked, kicked_was_sample)


class PolicyViolation(RuntimeError):
    """A policy broke one of its structural invariants."""


# -- incremental max-weight basis -------------------------------------------


class RunningMwb:
    """Maintains the max-weight basis of everything inserted so far.

    Inserting u replaces the basis B with the max-weight basis of B + u,
    which equals the max-weight basis of the whole inserted set: at most
    one element is displaced per insertion and a displaced element never
    returns, so the small update is exact. insert() reports whether u
    entered the basis and which element (if any) it displaced. A graphic
    view with nothing contracted gets a rooted forest that pays O(tree
    depth) per insert; every other view, uniform or contracted, re-runs
    greedy on B + u. So the list-based virtual-uniform rule shares no code
    with virtual-msp's kernel and stays an independent twin of it.
    """

    def insert(self, u: int) -> tuple[bool, int | None]:
        raise NotImplementedError

    def basis(self) -> frozenset:
        raise NotImplementedError


class _GreedyRunningMwb(RunningMwb):
    """Any view: the new basis is greedy_mwb(B + u), exact by the
    basis-of-basis lemma MWB(S + u) = MWB(MWB(S) + u)."""

    def __init__(self, view: MatroidView, weights: WeightedGroundSet):
        self._view = view
        self._weights = weights
        self._inserted: set[int] = set()
        self._basis = frozenset()

    def insert(self, u: int) -> tuple[bool, int | None]:
        if u not in self._view.ground:
            raise DomainError(f"element {u} outside effective ground set")
        if u in self._inserted:
            raise ValueError(f"element {u} inserted twice")
        self._inserted.add(u)
        basis = self._view.greedy_mwb(self._weights, self._basis | {u})
        kicked = next(iter(self._basis - basis), None)
        self._basis = basis
        return u in basis, kicked

    def basis(self) -> frozenset:
        return self._basis


class _GraphicRunningMwb(RunningMwb):
    """The basis as a rooted forest on the vertices of a graphic view with
    nothing contracted: each vertex stores its parent and the edge to it.

    The circuit u closes is the tree path between its endpoints a and b:
    stamp a's ancestors with the insert count and walk up from b to the
    first stamped vertex. Stamps are never cleared, so an insert allocates
    nothing and costs O(tree depth). The displaced edge is cut at its child
    endpoint, and u is linked by re-rooting a's tree at a below b.
    """

    def __init__(self, view: MatroidView, weights: WeightedGroundSet):
        base = view.base
        self._ground = view.ground
        self._endpoints = base.endpoints
        self._ranks = weights.ranks
        self._parent: list[int | None] = [None] * base.num_vertices
        self._parent_edge: list[int | None] = [None] * base.num_vertices
        self._stamps = [0] * base.num_vertices   # insert count when last stamped
        self._edges: set[int] = set()

    def insert(self, u: int) -> tuple[bool, int | None]:
        if u not in self._ground:
            raise DomainError(f"element {u} outside effective ground set")
        if u in self._edges:
            raise ValueError(f"element {u} inserted twice")
        self._edges.add(u)
        a, b = self._endpoints[u]
        parent, parent_edge, stamps = self._parent, self._parent_edge, self._stamps
        stamp = len(self._edges)             # this insert's count: fresh, never 0
        x = a
        while x is not None:
            stamps[x] = stamp
            x = parent[x]
        lca = b
        while lca is not None and stamps[lca] != stamp:
            lca = parent[lca]
        kicked = None
        if lca is not None:
            # circuit = path a..lca..b + u (u alone if a == b); its lightest edge leaves
            ranks = self._ranks
            worst_rank, worst_child = ranks[u], None
            for x in (a, b):
                while x != lca:
                    r = ranks[parent_edge[x]]
                    if r > worst_rank:
                        worst_rank, worst_child = r, x
                    x = parent[x]
            if worst_child is None:
                return False, None
            kicked = parent_edge[worst_child]
            parent[worst_child] = parent_edge[worst_child] = None
        # re-root a's tree at a by reversing its root path, then hang a below b
        x, new_parent, new_edge = a, b, u
        while x is not None:
            next_x, next_edge = parent[x], parent_edge[x]
            parent[x], parent_edge[x] = new_parent, new_edge
            x, new_parent, new_edge = next_x, x, next_edge
        return True, kicked

    def basis(self) -> frozenset:
        return frozenset(e for e in self._parent_edge if e is not None)


def running_mwb(view: MatroidView, weights: WeightedGroundSet) -> RunningMwb:
    """The forest kernel for a graphic view with nothing contracted, the
    greedy update for every other view."""
    if isinstance(view.base, GraphicMatroid) and not view.contraction:
        return _GraphicRunningMwb(view, weights)
    return _GreedyRunningMwb(view, weights)


# -- policies ----------------------------------------------------------------


class Policy:
    """One online decision procedure. start() fully resets state and takes
    the trial's samples, in arrival order, before the first decide()."""

    name = "?"

    def start(self, view: MatroidView, weights: WeightedGroundSet, samples: tuple) -> None:
        raise NotImplementedError

    def decide(self, u: int) -> Decision:
        raise NotImplementedError


class _SampleRule(Policy):
    """The start the three sample-basis rules share: the view and weights
    of the trial, the sample set and the accepted set."""

    def start(self, view, weights, samples):
        self.view = view
        self.weights = weights
        self.samples = set(samples)
        self.accepted: set[int] = set()


class SamplePolicy(_SampleRule):
    """Accept u when the accepted set stays independent and u belongs to the
    max-weight basis of the samples plus u."""

    name = "sample"

    def start(self, view, weights, samples):
        super().start(view, weights, samples)
        self._tracker = AcceptedSetTracker(view)

    def decide(self, u):
        feasible = self._tracker.can_add(u)
        if feasible and u in self.view.greedy_mwb(self.weights, self.samples | {u}):
            self._tracker.add(u)
            self.accepted.add(u)
            return _ACCEPT
        return _REJECT


class SampleContractedPolicy(_SampleRule):
    """Like SamplePolicy, but the basis query runs in the matroid contracted
    by the accepted set, so earlier acceptances consume capacity."""

    name = "sample-contracted"

    def decide(self, u):
        minor = self.view.contract(self.accepted)
        if u in minor.greedy_mwb(self.weights, self.samples | {u}):
            self.accepted.add(u)
            return _ACCEPT
        return _REJECT


class GreedyFrameworkPolicy(_SampleRule):
    """Reference-set framework: keep an independent reference set I with
    A <= I <= A + S whose span covers everything seen; accept u iff u enters
    the max-weight basis of I + u after contracting the accepted set.

    I is the accepted set plus the sample basis in the contracted matroid,
    which makes this the invariant-checked twin of SampleContractedPolicy.
    The structural invariants are re-checked at every decision and a
    violation raises PolicyViolation instead of being repaired.
    """

    name = "greedy-framework"

    def start(self, view, weights, samples):
        super().start(view, weights, samples)
        self.arrived = set(samples)
        self._reference: set[int] | None = None

    def _rebuild(self) -> set[int]:
        minor = self.view.contract(self.accepted)
        return set(minor.greedy_mwb(self.weights, self.samples)) | self.accepted

    def decide(self, u):
        if self._reference is None:
            self._reference = self._rebuild()
        ref = self._reference
        if not self.accepted <= ref <= (self.accepted | self.samples):
            raise PolicyViolation(
                "reference set must satisfy accepted <= reference <= accepted | samples")
        if not self.arrived <= self.view.span(ref):
            raise PolicyViolation("reference set fails to span the arrived elements")
        minor = self.view.restrict(ref | {u}).contract(self.accepted)
        accept = u in minor.greedy_mwb(self.weights)
        self.arrived.add(u)
        if accept:
            self.accepted.add(u)
            self._reference = self._rebuild()
        return _ACCEPT if accept else _REJECT


class VirtualMspPolicy(Policy):
    """Track the running max-weight basis of everything seen; accept u when
    the accepted set stays independent, u joins the running basis, and the
    element u displaces (if any) was a sample."""

    name = "virtual-msp"

    def start(self, view, weights, samples):
        self._running = running_mwb(view, weights)
        for u in samples:                   # the order shapes the forest, not its edges
            self._running.insert(u)
        self._tracker = AcceptedSetTracker(view)
        self._sampled = set(samples)
        self.accepted: set[int] = set()

    def decide(self, u):
        in_mwb, kicked = self._running.insert(u)
        kicked_was_sample = None if kicked is None else kicked in self._sampled
        accept = in_mwb and (kicked is None or kicked_was_sample) and self._tracker.add(u)
        if accept:
            self.accepted.add(u)
        return _decision(accept, kicked, kicked_was_sample)


def _effective_uniform_k(view: MatroidView, what: str) -> int:
    """The slots a uniform view leaves, k - |contraction|; the policy runs
    on uniform matroids only."""
    if not isinstance(view.base, UniformMatroid):
        raise ValueError(f"{what} runs on uniform matroids only")
    return view.base.k - len(view.contraction)


class DynkinPolicy(Policy):
    """Single-slot threshold rule: accept the first arrival heavier than
    every sample, then stop."""

    name = "dynkin"

    def start(self, view, weights, samples):
        if _effective_uniform_k(view, "dynkin") != 1:
            raise ValueError("dynkin needs a 1-uniform instance")
        self._ranks = ranks = weights.ranks
        # weight rank of the heaviest sample, lower is heavier; count when none
        self._best_sample = min((ranks[u] for u in samples), default=weights.count)
        self.accepted: set[int] = set()

    def decide(self, u):
        if self.accepted or self._ranks[u] > self._best_sample:
            return _REJECT
        self.accepted.add(u)
        return _ACCEPT


class OptimisticPolicy(Policy):
    """Threshold list of the heaviest samples, consumed lightest-first.

    With i acceptances so far, the next arrival must beat the (k-i)-th
    heaviest sample; when that sample does not exist the arrival is
    accepted on capacity alone, and the reference list is only popped
    when a threshold was actually consumed.
    """

    name = "optimistic"

    def start(self, view, weights, samples):
        self._k = _effective_uniform_k(view, "optimistic")
        self._ranks = weights.ranks
        # the k heaviest samples, heaviest first
        self._refs = sorted(samples, key=self._ranks.__getitem__)[:self._k]
        self.accepted: set[int] = set()

    def decide(self, u):
        slots = self._k - len(self.accepted)
        if slots <= 0:
            return _REJECT
        if slots > len(self._refs):
            self.accepted.add(u)            # no threshold to beat
            return _ACCEPT
        if self._ranks[u] < self._ranks[self._refs[slots - 1]]:
            kicked = self._refs.pop()
            self.accepted.add(u)
            return Decision(True, kicked, True)
        return _REJECT


class VirtualUniformPolicy(Policy):
    """Top-k reference list with sample flags. The list always absorbs an
    arrival that beats its lightest entry, accepted or not; acceptance
    additionally requires the displaced entry to be a sample. Kept
    list-based on purpose as an independent twin of VirtualMspPolicy."""

    name = "virtual-uniform"

    def start(self, view, weights, samples):
        self._k = _effective_uniform_k(view, "virtual-uniform")
        self._ranks = weights.ranks
        # the k heaviest arrivals, heaviest first
        self._refs = sorted(samples, key=self._ranks.__getitem__)[:self._k]
        self._sampled = set(samples)
        self.accepted: set[int] = set()

    def decide(self, u):
        ranks, refs, kicked = self._ranks, self._refs, None
        if len(refs) >= self._k:
            if self._k == 0 or ranks[u] > ranks[refs[-1]]:
                return _REJECT              # u stays out of the top k
            kicked = refs.pop()
        bisect.insort(refs, u, key=ranks.__getitem__)
        kicked_was_sample = None if kicked is None else kicked in self._sampled
        accept = len(self.accepted) < self._k and (kicked is None or kicked_was_sample)
        if accept:
            self.accepted.add(u)
        return _decision(accept, kicked, kicked_was_sample)


# -- registry ----------------------------------------------------------------

# name -> policy class; the aliases come last and share their policy's class
POLICIES = {cls.name: cls for cls in (
    DynkinPolicy, OptimisticPolicy, VirtualUniformPolicy, SamplePolicy,
    SampleContractedPolicy, GreedyFrameworkPolicy, VirtualMspPolicy)}
POLICY_NAMES = tuple(POLICIES)
POLICIES["greedy"] = GreedyFrameworkPolicy
POLICIES["virtual"] = VirtualMspPolicy


def build_policy(policy) -> Policy:
    """A fresh policy from its name or alias; a Policy instance passes through."""
    if isinstance(policy, Policy):
        return policy
    if isinstance(policy, str) and policy in POLICIES:
        return POLICIES[policy]()
    raise ValueError(f"unknown policy: {policy!r}")
