"""Instance generators: shapes, weight chains, and precomputed optima.

Every frozen optimum here is cross-checked against the exhaustive
brute_force_mwb oracle, so the generators and greedy cannot drift
together unnoticed.
"""

import hashlib
from argparse import Namespace
from fractions import Fraction

import numpy as np
import pytest

from matsec import (
    GraphicMatroid,
    UniformMatroid,
    brute_force_mwb,
    double_triangle,
    dump_instance,
    fuzz_corpus,
    hat_graph,
    modified_hat_graph,
    random_graphic,
    triangle,
    uniform_instance,
)
from matsec.cli import _resolve_instance

PINNED_BUNDLE_DIGEST = "12fdd88df9314b3dd5a892c0411c6db5cedeb589821e131a15a1e8a883cb55d2"


def assert_bundle_coherent(bundle):
    assert bundle.mwb == bundle.view.greedy_mwb(bundle.weights)
    assert bundle.mwb == brute_force_mwb(bundle.view, bundle.weights)
    assert set(bundle.named.values()) == set(range(bundle.weights.count))
    for name, u in bundle.named.items():
        assert bundle.weights.label(u) == name
        assert bundle.id_of(name) == u


class TestTriangle:
    def test_shape_and_optimum(self):
        b = triangle()
        assert_bundle_coherent(b)
        assert b.weights.count == 3
        assert b.mwb == frozenset(b.ids_of("e2", "e3"))
        assert [b.weights.weight(b.id_of(n)) for n in ("e1", "e2", "e3")] == [1, 2, 3]


class TestDoubleTriangle:
    def test_shape_and_optimum(self):
        b = double_triangle()
        assert_bundle_coherent(b)
        assert b.weights.count == 6
        assert b.mwb == frozenset(b.ids_of("e_2_2", "e_3_2"))

    def test_copies_are_parallel(self):
        b = double_triangle()
        assert not b.view.is_independent(b.ids_of("e_1_1", "e_1_2"))
        assert b.view.is_independent(b.ids_of("e_1_1", "e_2_2"))


class TestHatGraph:
    def test_shape(self):
        b = hat_graph(3)
        assert_bundle_coherent(b)
        assert b.weights.count == 7
        base = b.view.base
        assert isinstance(base, GraphicMatroid)
        assert base.num_vertices == 5
        assert base.endpoints[b.id_of("e_inf")] == (0, 1)
        assert base.endpoints[b.id_of("t_2")] == (0, 3)
        assert base.endpoints[b.id_of("b_2")] == (1, 3)

    def test_weight_chain(self):
        b = hat_graph(3)
        names = ["e_inf", "t_1", "t_2", "t_3", "b_1", "b_2", "b_3"]
        weights = [b.weights.weight(b.id_of(n)) for n in names]
        assert weights == sorted(weights, reverse=True)
        # the hub edge alone outweighs every claw edge combined
        assert weights[0] == 1 + sum(weights[1:])

    def test_optimum_is_hub_plus_tops(self):
        for n in (1, 2, 5):
            b = hat_graph(n)
            tops = [f"t_{i}" for i in range(1, n + 1)]
            assert b.mwb == frozenset(b.ids_of("e_inf", *tops))
            assert b.mwb == brute_force_mwb(b.view, b.weights)

    def test_claw_is_a_two_path(self):
        b = hat_graph(2)
        assert b.view.is_independent(b.ids_of("t_1", "b_1"))
        assert not b.view.is_independent(b.ids_of("e_inf", "t_1", "b_1"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            hat_graph(0)


class TestModifiedHatGraph:
    def test_shape(self):
        b = modified_hat_graph(2)
        assert_bundle_coherent(b)
        assert b.weights.count == 9
        base = b.view.base
        assert base.num_vertices == 6
        assert base.endpoints[b.id_of("e_inf")] == (0, 1)
        assert base.endpoints[b.id_of("1_1")] == (0, 3)
        assert base.endpoints[b.id_of("2_1")] == (0, 2)
        assert base.endpoints[b.id_of("3_1")] == (2, 3)
        assert base.endpoints[b.id_of("4_1")] == (1, 3)

    def test_weight_chain_by_group(self):
        b = modified_hat_graph(3)
        chain = ["e_inf"]
        for g in (4, 3, 2, 1):
            chain += [f"{g}_{i}" for i in range(1, 4)]
        weights = [b.weights.weight(b.id_of(n)) for n in chain]
        assert weights == sorted(weights, reverse=True)
        assert weights[0] == 1 + sum(weights[1:])

    def test_optimum(self):
        b = modified_hat_graph(2)
        assert b.mwb == frozenset(b.ids_of("e_inf", "4_1", "4_2", "3_1", "3_2"))
        assert b.mwb == brute_force_mwb(b.view, b.weights)

    def test_cycle_structure(self):
        b = modified_hat_graph(2)
        # 1_i closes a cycle with the hub edge and 4_i
        assert not b.view.is_independent(b.ids_of("e_inf", "4_1", "1_1"))
        # the four claw edges contain the cycle (1_i, 2_i, 3_i)
        assert not b.view.is_independent(b.ids_of("1_1", "2_1", "3_1"))
        assert b.view.is_independent(b.ids_of("2_1", "3_1", "4_1"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            modified_hat_graph(0)


class TestUniformInstance:
    def test_defaults(self):
        b = uniform_instance(5, 2)
        assert_bundle_coherent(b)
        assert b.view.base == UniformMatroid(5, 2)
        assert b.weights.labels == ("1", "2", "3", "4", "5")
        assert b.mwb == frozenset({3, 4})

    def test_zero_capacity(self):
        b = uniform_instance(3, 0)
        assert b.mwb == frozenset()

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError, match=r"n >= 0, got -2"):
            uniform_instance(-2, 1)


class TestRandomGraphic:
    def test_deterministic_for_seed(self):
        a = random_graphic(5, 8, np.random.default_rng(42))
        b = random_graphic(5, 8, np.random.default_rng(42))
        assert a.view.base == b.view.base
        assert a.weights.weights == b.weights.weights

    def test_weights_are_permutation(self):
        b = random_graphic(4, 6, np.random.default_rng(7))
        assert sorted(b.weights.weights) == [Fraction(i) for i in range(1, 7)]
        assert_bundle_coherent(b)


class TestFuzzCorpus:
    def test_reproducible(self):
        xs = fuzz_corpus(8, seed=3)
        ys = fuzz_corpus(8, seed=3)
        assert len(xs) == 8
        for x, y in zip(xs, ys):
            assert x.view.base == y.view.base
            assert x.weights.weights == y.weights.weights

    def test_mixes_families(self):
        bundles = fuzz_corpus(12, seed=0)
        kinds = [type(b.view.base).__name__ for b in bundles]
        assert kinds.count("UniformMatroid") == 3     # every fourth draw
        assert kinds.count("GraphicMatroid") == 9

    def test_all_coherent(self):
        for b in fuzz_corpus(12, seed=5):
            assert_bundle_coherent(b)


class TestClaws:
    """bundle.claws is the one record of which ids form each claw; the
    hat checkers and the blocked-set table read nothing else."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_hat_claws_match_role_labels(self, n):
        b = hat_graph(n)
        assert b.claws == tuple(tuple(b.ids_of(f"t_{i}", f"b_{i}"))
                                for i in range(1, n + 1))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_modified_hat_claws_match_role_labels(self, n):
        b = modified_hat_graph(n)
        assert b.claws == tuple(tuple(b.ids_of(f"1_{i}", f"2_{i}", f"3_{i}", f"4_{i}"))
                                for i in range(1, n + 1))

    def test_other_families_have_none(self):
        others = [triangle(), double_triangle(), uniform_instance(5, 2),
                  random_graphic(4, 6, np.random.default_rng(0)), *fuzz_corpus(4, seed=1)]
        assert all(b.claws == () for b in others)

    def test_a_parsed_file_has_none(self, tmp_path):
        # a dumped hat graph keeps its structure but not its roles
        b = hat_graph(3)
        path = tmp_path / "hat3.inst"
        with open(path, "w") as fp:
            dump_instance(b.view.base, b.weights, fp)
        args = Namespace(instance_file=str(path), n=None, k=None, vertices=None, edges=None)
        parsed, family = _resolve_instance(args)
        assert family is None
        assert parsed.view.base == b.view.base and parsed.claws == ()


def _bundle_digest(bundles):
    """sha256 over every field of each bundle: base, view, weights, labels,
    named (in id order), mwb and claws."""
    h = hashlib.sha256()
    for b in bundles:
        base = b.view.base
        h.update(repr((type(base).__name__, sorted(vars(base).items()),
                       sorted(b.view.restriction), sorted(b.view.contraction),
                       [str(w) for w in b.weights.weights], b.weights.labels,
                       list(b.named.items()), sorted(b.mwb), b.claws)).encode())
    return h.hexdigest()


def _named_bundles():
    yield from (hat_graph(n) for n in range(1, 17))
    yield from (modified_hat_graph(n) for n in range(1, 17))
    yield triangle()
    yield double_triangle()
    # s = 0 draws the empty edge list
    yield from (random_graphic(2 + s % 5, s, np.random.default_rng(s)) for s in range(20))
    yield from fuzz_corpus(200, seed=3)


class TestPinnedBundles:
    """Every named family's ids, endpoints, weights, labels and claws are
    pinned, so a refactor of the builders cannot drift them unnoticed."""

    def test_digest_is_pinned(self):
        assert _bundle_digest(_named_bundles()) == PINNED_BUNDLE_DIGEST
