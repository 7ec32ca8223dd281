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
        self._pending = set(view.ground)    # not yet inserted
        self._basis: list[int] = []

    def insert(self, u: int) -> tuple[bool, int | None]:
        try:
            self._pending.remove(u)
        except KeyError:
            raise (ValueError(f"element {u} inserted twice") if u in self._view.ground
                   else DomainError(f"element {u} outside effective ground set")) from None
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
    nothing contracted: each vertex stores only the edge to its parent, the
    edge's other end x ^ view.other_end[e].

    An insert of u = (a, b) needs a to be a root: if only b is, the ends
    swap, and if neither is, a's tree is re-rooted at a by reversing a's
    root path. Then u closes a circuit exactly when the walk up from b ends
    at a, and that walk finds the lightest edge on the path. The displaced
    edge is cut at its child endpoint, and u is linked by hanging a below b.
    A rejected insert leaves the basis unchanged but may leave a tree
    re-rooted. An insert allocates nothing and costs O(tree depth).
    """

    def __init__(self, view: MatroidView, weights: WeightedGroundSet):
        self._view = view
        self._pending = set(view.ground)    # not yet inserted
        self._endpoints = view.base.endpoints
        self._other_end = view.other_end
        self._ranks = weights.ranks
        self._parent_edge: list[int | None] = [None] * view.base.num_vertices

    def insert(self, u: int) -> tuple[bool, int | None]:
        try:
            self._pending.remove(u)
        except KeyError:
            raise (ValueError(f"element {u} inserted twice") if u in self._view.ground
                   else DomainError(f"element {u} outside effective ground set")) from None
        a, b = self._endpoints[u]
        parent_edge, other_end, ranks = self._parent_edge, self._other_end, self._ranks
        if parent_edge[a] is not None:
            if parent_edge[b] is None:      # u is undirected: hang a root endpoint
                a, b = b, a
            else:                           # re-root: reverse a's root path
                x, new_edge = a, None
                while (e := parent_edge[x]) is not None:
                    parent_edge[x], x, new_edge = new_edge, x ^ other_end[e], e
                parent_edge[x] = new_edge
        # a is a root now: b's root path ends at a exactly when u closes the
        # circuit path b..a + u (u alone if a == b)
        x, worst_rank, worst_child = b, ranks[u], None
        while (e := parent_edge[x]) is not None:
            if ranks[e] > worst_rank:
                worst_rank, worst_child = ranks[e], x
            x ^= other_end[e]
        if x != a:                          # b's tree is another tree: no circuit
            parent_edge[a] = u
            return True, None
        if worst_child is None:
            return False, None
        kicked = parent_edge[worst_child]
        parent_edge[worst_child] = None
        parent_edge[a] = u
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
    it decides by greedy_mwb, never by the tracker's in_mwb that the twin
    asks. The structural invariants are re-checked at every decision and a
    violation raises PolicyViolation instead of being repaired.
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
        minor = self.view.contract(self.accepted)
        accept = u in minor.greedy_mwb(self.weights, (ref - self.accepted) | {u})
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
        self._best_sample = min([ranks[u] for u in samples], default=weights.count)
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
