"""Benchmark instance families with their exact weight orders.

Every generator emits positive integer weights (pairwise distinct), so
utility ratios downstream stay exact rationals. Element labels double as
names, so tests and fixtures talk about edges by role ("e_inf", "t_3")
instead of raw ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matroid import GraphicMatroid, MatroidView, UniformMatroid, WeightedGroundSet


@dataclass(frozen=True, eq=False)
class InstanceBundle:
    """A view, its weights, role names for elements, and the precomputed optimum."""

    view: MatroidView
    weights: WeightedGroundSet
    named: dict
    mwb: frozenset
    claws: tuple = ()   # ids per claw: (t_i, b_i) for hat, (1_i, ..., 4_i) for modified hat

    def id_of(self, name: str) -> int:
        return self.named[name]

    def ids_of(self, *names: str) -> list[int]:
        return [self.named[n] for n in names]


def _bundle(base, weights, claws=()) -> InstanceBundle:
    """The full view of base; each element is named by its weight label."""
    named = {label: u for u, label in enumerate(weights.labels)}
    view = MatroidView.full(base)
    return InstanceBundle(view, weights, named, view.greedy_mwb(weights), claws)


def _graphic(num_vertices: int, rows, claws=()) -> InstanceBundle:
    """The full graphic bundle whose element u is rows[u] = (label, a, b, weight)."""
    base = GraphicMatroid(num_vertices, tuple((a, b) for _, a, b, _ in rows))
    weights = WeightedGroundSet.from_weights([w for *_, w in rows], [r[0] for r in rows])
    return _bundle(base, weights, claws)


def _claw_family(n: int, num_vertices: int, groups) -> InstanceBundle:
    """The hub edge e_inf = (0, 1), then per group (prefix, g, ends) the n
    edges f"{prefix}_{i}" = ends(i) of weight g*n - i + 1. Claw i holds the
    i-th edge of every group; e_inf weighs 1 + the sum of all the others."""
    rows = [(f"{prefix}_{i}", *ends(i), g * n - i + 1)
            for prefix, g, ends in groups for i in range(1, n + 1)]
    hub = ("e_inf", 0, 1, 1 + sum(w for *_, w in rows))
    claws = zip(*(range(1 + j * n, 1 + (j + 1) * n) for j in range(len(groups))))
    return _graphic(num_vertices, [hub, *rows], tuple(claws))


def triangle() -> InstanceBundle:
    """Three edges on a 3-cycle, weights 1 < 2 < 3; optimum is {e2, e3}."""
    return _graphic(3, [("e1", 0, 1, 1), ("e2", 1, 2, 2), ("e3", 2, 0, 3)])


def double_triangle() -> InstanceBundle:
    """A 3-cycle with every edge doubled; weight of copy j of side i is i + 3(j-1)."""
    sides = ((0, 1), (1, 2), (2, 0))
    return _graphic(3, [(f"e_{i}_{j}", *sides[i - 1], i + 3 * (j - 1))
                        for j in (1, 2) for i in (1, 2, 3)])


def hat_graph(n: int) -> InstanceBundle:
    """Two hub vertices joined by one heavy edge, plus n two-edge claws.

    Vertices: 0 (top hub), 1 (bottom hub), 1+i for claw i. Edge t_i joins
    the top hub to claw vertex i, b_i the bottom hub. The weight chain is
    e_inf > t_1 > ... > t_n > b_1 > ... > b_n, with the hub edge heavier
    than everything else combined (weight 1 + sum of the rest), so the
    optimum is e_inf plus all top edges.
    """
    if n < 1:
        raise ValueError("hat graph needs n >= 1")
    return _claw_family(n, n + 2, (("t", 2, lambda i: (0, 1 + i)),
                                   ("b", 1, lambda i: (1, 1 + i))))


def modified_hat_graph(n: int) -> InstanceBundle:
    """Hat variant with four edges per claw and a two-vertex claw path.

    Vertices: 0 (top hub), 1 (bottom hub), and per claw i the pair
    v_{i,1} = 2i, v_{i,2} = 2i+1. Claw i carries
        1_i = (top, v_{i,2}),  2_i = (top, v_{i,1}),
        3_i = (v_{i,1}, v_{i,2}),  4_i = (bottom, v_{i,2}),
    and the weight chain is
        e_inf > 4_1 > ... > 4_n > 3_1 > ... > 3_n > 2_1 > ... > 2_n > 1_1 > ... > 1_n.
    The optimum is e_inf plus every 4_i and 3_i.
    """
    if n < 1:
        raise ValueError("modified hat graph needs n >= 1")
    return _claw_family(n, 2 * n + 2, (("1", 1, lambda i: (0, 2 * i + 1)),
                                       ("2", 2, lambda i: (0, 2 * i)),
                                       ("3", 3, lambda i: (2 * i, 2 * i + 1)),
                                       ("4", 4, lambda i: (1, 2 * i + 1))))


def uniform_instance(n: int, k: int) -> InstanceBundle:
    """k-uniform matroid on n elements; element i weighs i+1 and is labelled
    by its weight, so streams read naturally."""
    if n < 0:
        raise ValueError(f"uniform instance needs n >= 0, got {n}")
    weights = range(1, n + 1)
    return _bundle(UniformMatroid(n, k), WeightedGroundSet.from_weights(weights, map(str, weights)))


def random_graphic(num_vertices: int, num_edges: int, rng) -> InstanceBundle:
    """Uniformly random endpoints (parallel edges and self-loops allowed),
    weights a random permutation of 1..num_edges."""
    rng = np.random.default_rng(rng)
    ends = [(int(rng.integers(num_vertices)), int(rng.integers(num_vertices)))
            for _ in range(num_edges)]
    weights = rng.permutation(num_edges)
    return _graphic(num_vertices, [(f"e{u}", *ends[u], int(weights[u]) + 1)
                                   for u in range(num_edges)])


def fuzz_corpus(count: int, seed: int) -> list[InstanceBundle]:
    """Seeded mix of small random graphic and uniform instances for
    property suites; deterministic for a given (count, seed)."""
    max_vertices, max_edges = 5, 8
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xF0)))
    bundles = []
    for idx in range(count):
        if idx % 4 == 3:
            n = int(rng.integers(2, max_edges + 1))
            k = int(rng.integers(0, n + 1))
            bundles.append(uniform_instance(n, k))
        else:
            nv = int(rng.integers(2, max_vertices + 1))
            ne = int(rng.integers(1, max_edges + 1))
            bundles.append(random_graphic(nv, ne, rng))
    return bundles
