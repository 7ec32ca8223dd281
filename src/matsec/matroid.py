"""Weighted ground sets, uniform and graphic matroids, minors, greedy bases.

Only the two matroid families needed by the simulator are implemented.
Graphic independence is union-find cycle detection, so parallel edges
(a 2-cycle) and self-loops (dependent singletons) work out of the box.
Views are immutable values: restrict() and contract() return new views,
and a view can be shared freely across simulation trials.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import TextIO, Union

WeightLike = Union[int, str, float, Fraction]


class DomainError(ValueError):
    """An element lies outside the effective ground set of a view."""


class PreconditionError(ValueError):
    """A structural precondition failed, e.g. contracting a dependent set."""


def as_id(value, error: type[ValueError] = ValueError) -> int:
    """value as an int id (a Python or numpy int); 1.5 or 1.0 raises error naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"ids must be integers, got {value!r}") from None


@dataclass(frozen=True)
class WeightedGroundSet:
    """Elements 0..n-1 carrying strictly positive, pairwise distinct weights.

    Distinct weights make the max-weight basis unique and remove every
    tie-breaking question from greedy, so duplicates are rejected here
    rather than handled downstream.
    """

    weights: tuple[Fraction, ...]
    labels: tuple[str, ...]
    ranks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.labels) != len(self.weights):
            raise ValueError("labels and weights must have equal length")
        for w in self.weights:
            if not isinstance(w, Fraction):
                raise ValueError("weights must be Fractions; use from_weights()")
            if w.numerator <= 0:            # a Fraction's denominator is positive
                raise ValueError(f"weights must be positive, got {w}")
        if len({w.as_integer_ratio() for w in self.weights}) != len(self.weights):
            raise ValueError("weights must be pairwise distinct")
        order = sorted(range(len(self.weights)), key=self.weights.__getitem__, reverse=True)
        # argsorting a permutation inverts it: ranks[u] is u's place in the
        # descending weight order, 0 the heaviest
        object.__setattr__(self, "ranks", tuple(sorted(range(len(order)), key=order.__getitem__)))

    @classmethod
    def from_weights(cls, weights: Iterable[WeightLike],
                     labels: Iterable[str] | None = None) -> "WeightedGroundSet":
        # Fraction(float) is exact; callers wanting decimal semantics pass strings
        ws = tuple(Fraction(w) for w in weights)
        if labels is None:
            labels = tuple(f"u{i}" for i in range(len(ws)))
        return cls(ws, tuple(labels))

    @property
    def count(self) -> int:
        return len(self.weights)

    def weight(self, u: int) -> Fraction:
        return self.weights[u]

    def label(self, u: int) -> str:
        return self.labels[u]

    def sort_desc(self, elements: Iterable[int]) -> list[int]:
        return sorted(elements, key=self.ranks.__getitem__)

    def total(self, elements: Iterable[int]) -> Fraction:
        return sum((self.weights[u] for u in elements), Fraction(0))


@dataclass(frozen=True)
class UniformMatroid:
    """Independent sets are exactly the subsets of size at most k."""

    size: int
    k: int

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("size must be nonnegative")
        if not 0 <= self.k <= self.size:
            raise ValueError("k must satisfy 0 <= k <= size")


@dataclass(frozen=True)
class GraphicMatroid:
    """Edge set of an undirected multigraph; independent = acyclic."""

    num_vertices: int
    endpoints: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.num_vertices < 0:
            raise ValueError("num_vertices must be nonnegative")
        object.__setattr__(self, "endpoints",
                           tuple((as_id(a), as_id(b)) for a, b in self.endpoints))
        for a, b in self.endpoints:
            if not (0 <= a < self.num_vertices and 0 <= b < self.num_vertices):
                raise ValueError(f"edge endpoint out of range: ({a}, {b})")

    @property
    def size(self) -> int:
        return len(self.endpoints)


BaseMatroid = Union[UniformMatroid, GraphicMatroid]


class UnionFind:
    """Array union-find with path halving and no ranks or sizes:
    AcceptedSetTracker.add links one root under the other."""

    __slots__ = ("parent",)

    def __init__(self, parent: list[int]):
        self.parent = parent

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x


class AcceptedSetTracker:
    """The one independence test: a set grown from the view's contraction,
    as a slot count on a uniform base (uf is None) or a union-find on a
    graphic one. A view builds one; its users each add() to their own copy(),
    which copies one parent list. Path halving keeps a long-lived tracker at
    amortized O(log V) per find; a chain a copy inherits costs no more to
    walk than the O(V) copy itself. in_mwb() answers without growing a tracker."""

    __slots__ = ("_slots", "uf", "_endpoints")

    def __init__(self, view: "MatroidView"):
        base = view.base
        if isinstance(base, UniformMatroid):
            self._slots, self.uf, self._endpoints = base.k, None, None
        else:
            uf = UnionFind(list(range(base.num_vertices)))
            self._slots, self.uf, self._endpoints = 0, uf, base.endpoints
        if not all(map(self.add, view.contraction)):
            raise PreconditionError("contraction set must be independent in the base")

    def copy(self) -> "AcceptedSetTracker":
        new, uf = object.__new__(AcceptedSetTracker), self.uf
        new._slots, new._endpoints = self._slots, self._endpoints
        new.uf = None if uf is None else UnionFind(uf.parent.copy())
        return new

    def can_add(self, u: int) -> bool:
        if self.uf is None:
            return self._slots > 0
        a, b = self._endpoints[u]
        return self.uf.find(a) != self.uf.find(b)

    def in_mwb(self, ranks: tuple[int, ...], S: Iterable[int], u: int) -> bool:
        """Whether u lies in MWB(S + u) in the view contracted by this set: the
        elements of S heavier than u do not span u. One pass over S counts them, or
        links them on a parent-list copy that lives for this one answer, with no
        per-element add() or find() call; this tracker is unchanged."""
        r, uf = ranks[u], self.uf
        if uf is None:
            return self._slots > len({v for v in S if ranks[v] < r})     # a repeat counts once
        parent, ends = uf.parent.copy(), self._endpoints
        for v in S:
            if ranks[v] < r:
                a, b = ends[v]
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]     # path halving, as in find()
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                parent[b] = a
        a, b = ends[u]
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        return a != b

    def add(self, u: int) -> bool:
        """Add u and return True; return False and change nothing when u
        would make the set dependent."""
        uf = self.uf
        if uf is None:
            if self._slots <= 0:
                return False
            self._slots -= 1
            return True
        a, b = self._endpoints[u]
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            return False
        uf.parent[rb] = ra
        return True


@dataclass(frozen=True)
class MatroidView:
    """A base matroid composed with a restriction and a contraction.

    The effective ground set is restriction minus contraction; querying
    anything outside it raises DomainError. A set S is independent in the
    view iff S together with the contraction is independent in the base.
    """

    base: BaseMatroid
    restriction: frozenset
    contraction: frozenset
    ground: frozenset = field(init=False, repr=False, compare=False)    # the effective ground set

    def __post_init__(self):
        object.__setattr__(self, "restriction", frozenset(self.restriction))
        object.__setattr__(self, "contraction", frozenset(self.contraction))
        n = self.base.size
        for u in (*self.restriction, *self.contraction):     # a union would hide 1.0 behind 1
            if not 0 <= as_id(u, DomainError) < n:
                raise DomainError(f"element {u} outside base ground set")
        object.__setattr__(self, "_tracker", AcceptedSetTracker(self))   # checks the contraction
        object.__setattr__(self, "ground", self.restriction - self.contraction)

    @classmethod
    def full(cls, base: BaseMatroid) -> "MatroidView":
        return cls(base, frozenset(range(base.size)), frozenset())

    @cached_property
    def other_end(self) -> tuple[int, ...]:
        """Each graphic base edge's a ^ b: x ^ other_end[e] is the end of e that is not x."""
        return tuple(a ^ b for a, b in self.base.endpoints)

    def _check(self, S: Collection[int]) -> None:
        """Raise DomainError naming the elements of S outside the effective
        ground set; allocates nothing when there are none."""
        if not self.ground.issuperset(S):
            bad = sorted(set(S) - self.ground)
            raise DomainError(f"elements outside effective ground set: {bad}")

    def _checked(self, S: Iterable[int]) -> frozenset:
        S = frozenset(S)
        self._check(S)
        if not {int}.issuperset(map(type, S)):     # 1.0 passes _check as 1
            for u in S:
                as_id(u, DomainError)
        return S

    def tracker(self) -> AcceptedSetTracker:
        """A new tracker holding the contraction, copied from the view's own."""
        return self._tracker.copy()

    def is_independent(self, S: Iterable[int]) -> bool:
        return all(map(self.tracker().add, self._checked(S)))

    def rank(self, S: Iterable[int]) -> int:
        return sum(map(self.tracker().add, self._checked(S)))

    def span(self, S: Iterable[int]) -> frozenset:
        """Elements whose addition to S does not raise its rank.

        Always a superset of S; with an empty S it still contains every
        loop (self-loop edges, or everything when the view has no free
        capacity left).
        """
        S = self._checked(S)
        tracker = self.tracker()
        for u in S:
            tracker.add(u)
        return S | frozenset(u for u in self.ground if not tracker.can_add(u))

    def greedy_mwb(self, weights: WeightedGroundSet,
                   S: Iterable[int] | None = None) -> frozenset:
        """Max-weight basis of S (default: the whole effective ground set).

        Standard greedy: scan S heaviest first, keep whatever stays
        independent. Unique because weights are pairwise distinct.
        """
        S = self._checked(self.ground if S is None else S)
        return frozenset(filter(self.tracker().add, weights.sort_desc(S)))

    def in_mwb(self, weights: WeightedGroundSet, S: Iterable[int], u: int) -> bool:
        """Whether u lies in MWB(S + u), i.e. the elements of S heavier than u do not span u."""
        if not isinstance(S, (set, frozenset, tuple, list)):   # skip the slower ABC test
            S = S if isinstance(S, Collection) else tuple(S)    # S is read twice below
        if u not in self.ground or not self.ground.issuperset(S):
            self._check([*S, u])            # raises DomainError naming the strays
        try:
            return self._tracker.in_mwb(weights.ranks, S, u)
        except TypeError:                   # ranks[1.0]: name the id that only equals an integer
            self._checked([*S, u])
            raise

    def restrict(self, S: Iterable[int]) -> "MatroidView":
        return MatroidView(self.base, self._checked(S), self.contraction)

    def contract(self, I: Iterable[int]) -> "MatroidView":
        """The minor with I contracted too; a dependent I raises PreconditionError."""
        return MatroidView(self.base, self.restriction, self.contraction | self._checked(I))


# -- text file formats -------------------------------------------------------
#
#   matroid uniform <n> <k>          followed by n lines   elem <id> <weight>
#   matroid graphic <V> <E>          followed by E lines   edge <id> <u> <v> <weight>
#   schedule <id> <time>             one line per arrival (simulate.parse_schedule)
#
# Weights are decimal strings when exactly representable (every shipped
# generator emits integers), "num/den" otherwise.


def read_lines(fp: Iterable[str], keyword: str | None = None, fields: int = 0) -> Iterator:
    """(line, line.split()) for each stripped line of either format, skipping blank and
    whole-line '#' comment lines only. Given a keyword, a line that is not `fields`
    fields starting with it raises ValueError naming the line."""
    for line in fp:
        line = line.strip()
        if line and not line.startswith("#"):
            parts = line.split()
            if keyword is not None and (len(parts) != fields or parts[0] != keyword):
                raise ValueError(f"bad {keyword} line: {line!r}")
            yield line, parts


def format_weight(w: Fraction) -> str:
    num, den = w.numerator, w.denominator
    d, m = den, 0
    while (g := math.gcd(d, 10)) > 1:   # each pass takes out one 2 and one 5, while any are left
        d, m = d // g, m + 1
    if d != 1:
        return f"{num}/{den}"
    digits = str(num * 10 ** m // den).rjust(m + 1, "0")
    return f"{digits[:-m]}.{digits[-m:]}" if m else digits


# kind -> (body line keyword, fields per line, noun for its ids)
_BODY = {"uniform": ("elem", 3, "element"), "graphic": ("edge", 5, "edge")}


def dump_instance(base: BaseMatroid, weights: WeightedGroundSet, fp: TextIO) -> None:
    if isinstance(base, UniformMatroid):
        kind, header, ends = "uniform", (base.size, base.k), [()] * base.size
    else:
        kind, header, ends = "graphic", (base.num_vertices, base.size), base.endpoints
    keyword = _BODY[kind][0]
    fp.write(f"matroid {kind} {header[0]} {header[1]}\n")
    for u, uv in enumerate(ends):
        fp.write(" ".join(map(str, (keyword, u, *uv, format_weight(weights.weight(u))))) + "\n")


def _parse_weight(text: str, line: str) -> Fraction:
    # Fraction("1e999999999") would compute 10**999999999: cap |exponent| at the int digit limit
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    exponent = re.search(r"[eE]([-+]?\d[\d_]*)", text)
    if exponent and abs(int(exponent[1])) > limit:
        raise ValueError(f"weight exponent too large (limit {limit}): {line!r}")
    try:
        w = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in weight: {line!r}") from None
    # a part of more than `limit` digits could not be printed back; 10**limit has
    # over 3*limit bits, so only a part that long pays for the power
    part = max(abs(w.numerator), w.denominator)
    if part.bit_length() > 3 * limit and part >= 10 ** limit:
        raise ValueError(f"weight has more than {limit} digits: {line!r}")
    return w


def parse_instance(fp: TextIO) -> tuple[BaseMatroid, WeightedGroundSet]:
    lines = [ln for ln, _ in read_lines(fp)]     # the whole file before any check
    if not lines:
        raise ValueError("empty instance file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "matroid":
        raise ValueError(f"bad header: {lines[0]!r}")
    kind = header[1]
    if kind not in _BODY:
        raise ValueError(f"unknown matroid kind: {kind!r}")
    keyword, fields, noun = _BODY[kind]
    a, b = int(header[2]), int(header[3])       # uniform: n, k; graphic: vertices, edges
    count = a if kind == "uniform" else b
    if kind == "graphic" and count < 0:
        raise ValueError(f"edge count must be nonnegative, got {count}")
    body: dict[int, tuple] = {}     # keyed by id: no list sized by the header
    for ln, parts in read_lines(lines[1:], keyword, fields):
        u = int(parts[1])
        if not 0 <= u < count or u in body:
            raise ValueError(f"bad or duplicate {noun} id {u}")
        body[u] = (*map(int, parts[2:-1]), _parse_weight(parts[-1], ln))   # (ends..., weight)
    if len(body) < count:
        raise ValueError(f"missing {keyword} lines")
    rows = [body[u] for u in range(count)]
    weights = [row[-1] for row in rows]
    if kind == "uniform":
        return UniformMatroid(a, b), WeightedGroundSet.from_weights(weights)
    return (GraphicMatroid(a, tuple(row[:2] for row in rows)),
            WeightedGroundSet.from_weights(weights, tuple(f"e{u}" for u in range(count))))
