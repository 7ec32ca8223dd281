"""Online accept/reject policies and the incremental max-weight-basis kernel.

Every policy gets its sample first, in one start() call that also resets
it, and then sees the live arrivals one at a time through decide(). So one
instance can serve many sequential trials; build_policy() makes fresh
instances for anything concurrent.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from itertools import takewhile

from .matroid import (AcceptedSetTracker, DomainError, GraphicMatroid, MatroidView,
                      UniformMatroid, WeightedGroundSet)


@dataclass(frozen=True)
class Decision:
    accept: bool
    kicked: int | None = None


# the one constructor, called with both fields: a frozen Decision is a
# value, so equal fields share one object (at most 2 per element id)
_decision = functools.cache(Decision)
_ACCEPT, _REJECT = _decision(True, None), _decision(False, None)


class PolicyViolation(RuntimeError):
    """A policy broke one of its structural invariants."""


# -- incremental max-weight basis -------------------------------------------


class RunningMwb:
    """Maintains the max-weight basis of everything inserted so far.

    Inserting u replaces the basis B with the max-weight basis of B + u,
    which equals the max-weight basis of the whole inserted set: at most
    one element is displaced per insertion and a displaced element never
    returns, so the small update is exact. insert() reports whether u
    entered the basis and which element (if any) it displaced. The
    list-based virtual-uniform rule shares no code with running_mwb's two
    kernels and stays an independent twin of virtual-msp.
    """

    def insert(self, u: int) -> tuple[bool, int | None]:
        raise NotImplementedError

    def basis(self) -> frozenset:
        raise NotImplementedError


class _GreedyRunningMwb(RunningMwb):
    """Any view: the basis B as a list, heaviest first; an insert is greedy on B + u."""

    def __init__(self, view: MatroidView, weights: WeightedGroundSet):
        self._view = view
        self._ranks = weights.ranks
        self._inserted: set[int] = set()
        self._basis: list[int] = []

    def insert(self, u: int) -> tuple[bool, int | None]:
        if u not in self._view.ground:
            raise DomainError(f"element {u} outside effective ground set")
        if u in self._inserted:
            raise ValueError(f"element {u} inserted twice")
        self._inserted.add(u)
        basis, ranks = self._basis, self._ranks
        j = bisect.bisect(basis, ranks[u], key=ranks.__getitem__)
        basis.insert(j, u)
        # B[:j] is independent, so the first refusal, if any, is u or the element u displaces
        k = len(list(takewhile(self._view.tracker().add, basis)))
        if k == j:
            del basis[j]
            return False, None
        return True, basis.pop(k) if k < len(basis) else None

    def basis(self) -> frozenset:
        return frozenset(self._basis)


class _GraphicRunningMwb(RunningMwb):
    """The basis as a rooted forest on the vertices of a graphic view with
    nothing contracted: each vertex stores its parent and the edge to it.

    An insert of u = (a, b) takes two walks. It re-roots a's tree at a by
    reversing a's root path; then u closes a circuit exactly when the walk
    up from b reaches a, and that walk finds the lightest edge on the
    path. The displaced edge is cut at its child endpoint, and u is linked
    by hanging a below b. A rejected insert leaves the basis unchanged but
    may leave a's tree re-rooted. An insert allocates nothing and costs
    O(tree depth).
    """

    def __init__(self, view: MatroidView, weights: WeightedGroundSet):
        base = view.base
        self._ground = view.ground
        self._endpoints = base.endpoints
        self._ranks = weights.ranks
        self._parent: list[int | None] = [None] * base.num_vertices
        self._parent_edge: list[int | None] = [None] * base.num_vertices
        self._edges: set[int] = set()

    def insert(self, u: int) -> tuple[bool, int | None]:
        if u not in self._ground:
            raise DomainError(f"element {u} outside effective ground set")
        if u in self._edges:
            raise ValueError(f"element {u} inserted twice")
        self._edges.add(u)
        a, b = self._endpoints[u]
        parent, parent_edge, ranks = self._parent, self._parent_edge, self._ranks
        x, new_parent, new_edge = a, None, None   # re-root: reverse a's root path
        while x is not None:
            next_x, next_edge = parent[x], parent_edge[x]
            parent[x], parent_edge[x] = new_parent, new_edge
            x, new_parent, new_edge = next_x, x, next_edge
        # a is a root now: the circuit is path b..a + u (u alone if a == b)
        x, worst_rank, worst_child, kicked = b, ranks[u], None, None
        while x != a:
            e = parent_edge[x]
            if e is None:                   # b's tree is another tree: no circuit
                break
            r = ranks[e]
            if r > worst_rank:
                worst_rank, worst_child = r, x
            x = parent[x]
        else:
            if worst_child is None:
                return False, None
            kicked = parent_edge[worst_child]
            parent[worst_child] = parent_edge[worst_child] = None
        parent[a], parent_edge[a] = b, u
        return True, kicked

    def basis(self) -> frozenset:
        return frozenset(e for e in self._parent_edge if e is not None)


def running_mwb(view: MatroidView, weights: WeightedGroundSet) -> RunningMwb:
    """The forest kernel for a graphic view with nothing contracted, the
    sorted-list greedy kernel for every other view."""
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


class SamplePolicy(Policy):
    """Accept u when u belongs to the max-weight basis of the samples plus u
    and the accepted set stays independent. The basis query asks `_basis`:
    the accepted-set tracker when `contracted`, else a copy that never grows."""

    name = "sample"
    contracted = False

    def start(self, view, weights, samples):
        self.view = view
        self.weights = weights
        self.samples = set(samples)
        self.accepted: set[int] = set()
        self.tracker: AcceptedSetTracker = view.tracker()
        self._basis = self.tracker if self.contracted else view.tracker()

    def decide(self, u):
        if self._basis.in_mwb(self.weights.ranks, self.samples, u) and self.tracker.add(u):
            self.accepted.add(u)
            return _ACCEPT
        return _REJECT


class SampleContractedPolicy(SamplePolicy):
    """The basis query runs in the view contracted by the accepted set."""

    name = "sample-contracted"
    contracted = True


class GreedyFrameworkPolicy(Policy):
    """Reference-set framework: keep an independent reference set I with
    A <= I <= A + S whose span covers everything seen; accept u iff u enters
    the max-weight basis of I + u after contracting the accepted set.

    I is the accepted set plus the sample basis in the contracted matroid,
    which makes this the invariant-checked twin of SampleContractedPolicy;
    the two share no code. The structural invariants are re-checked at
    every decision and a violation raises PolicyViolation instead of being
    repaired.
    """

    name = "greedy-framework"

    def start(self, view, weights, samples):
        self.view = view
        self.weights = weights
        self.samples = set(samples)
        self.arrived = set(samples)
        self.accepted: set[int] = set()
        self._reference = self._rebuild()

    def _rebuild(self) -> set[int]:
        minor = self.view.contract(self.accepted)
        return set(minor.greedy_mwb(self.weights, self.samples)) | self.accepted

    def decide(self, u):
        ref = self._reference
        if not self.accepted <= ref <= (self.accepted | self.samples):
            raise PolicyViolation(
                "reference set must satisfy accepted <= reference <= accepted | samples")
        if not self.arrived <= self.view.span(ref):
            raise PolicyViolation("reference set fails to span the arrived elements")
        accept = self.view.contract(self.accepted).in_mwb(self.weights, ref - self.accepted, u)
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
        self._insert = insert = running_mwb(view, weights).insert
        for u in samples:                   # the order shapes the forest, not its edges
            insert(u)
        self._add = view.tracker().add
        self._sampled = set(samples)
        self.accepted: set[int] = set()

    def decide(self, u):
        in_mwb, kicked = self._insert(u)
        if in_mwb and (kicked is None or kicked in self._sampled) and self._add(u):
            self.accepted.add(u)
            return _ACCEPT if kicked is None else _decision(True, kicked)
        return _REJECT if kicked is None else _decision(False, kicked)


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
        if _effective_uniform_k(view, self.name) != 1:
            raise ValueError("dynkin needs a 1-uniform instance")
        self._ranks = ranks = weights.ranks
        # weight rank of the heaviest sample, lower is heavier; count when none
        self._best_sample = min(map(ranks.__getitem__, samples), default=weights.count)
        self.accepted: set[int] = set()

    def decide(self, u):
        if self._ranks[u] > self._best_sample:
            return _REJECT
        self._best_sample = -1      # the slot is filled: no rank beats -1
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
        self._k = _effective_uniform_k(view, self.name)
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
            return _decision(True, kicked)
        return _REJECT


class VirtualUniformPolicy(Policy):
    """Top-k reference list with sample flags. The list always absorbs an
    arrival that beats its lightest entry, accepted or not; acceptance
    additionally requires the displaced entry to be a sample, which caps
    acceptances at k: each one turns an empty or sampled slot live for good.
    Kept list-based on purpose as an independent twin of VirtualMspPolicy."""

    name = "virtual-uniform"

    def start(self, view, weights, samples):
        self._k = _effective_uniform_k(view, self.name)
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
        accept = kicked is None or kicked in self._sampled
        if accept:
            self.accepted.add(u)
        return _decision(accept, kicked)


# -- registry ----------------------------------------------------------------

# name -> policy class
POLICIES = {cls.name: cls for cls in (
    DynkinPolicy, OptimisticPolicy, VirtualUniformPolicy, SamplePolicy,
    SampleContractedPolicy, GreedyFrameworkPolicy, VirtualMspPolicy)}
POLICY_NAMES = tuple(POLICIES)


def build_policy(policy) -> Policy:
    """A fresh policy from its name; a Policy instance passes through."""
    if isinstance(policy, Policy):
        return policy
    if isinstance(policy, str) and policy in POLICIES:
        return POLICIES[policy]()
    raise ValueError(f"unknown policy: {policy!r}")
