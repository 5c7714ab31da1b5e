"""Tests for the classic ETT tree functions (§3.1 / Tarjan-Vishkin)."""

import pytest

from repro.ett.functions import (
    descendant_counts,
    node_levels,
    postorder_numbers,
    preorder_numbers,
)
from repro.grid.coords import Node
from repro.sim.engine import CircuitEngine
from repro.workloads import line_structure, random_hole_free
from tests.conftest import bfs_tree_adjacency, node_tour


def tour_for(structure):
    root = structure.westernmost()
    adjacency, parent = bfs_tree_adjacency(structure, root)
    return node_tour(structure, root, adjacency), parent


def reference_orders(tour):
    """Pre/postorder by explicit DFS in rotation order."""
    children = {}
    seen = {tour.root}
    for u, v in tour.edges:
        if v not in seen:
            seen.add(v)
            children.setdefault(u, []).append(v)
    pre, post = {}, {}

    def dfs(u):
        pre[u] = len(pre)
        for c in children.get(u, []):
            dfs(c)
        post[u] = len(post)

    import sys

    sys.setrecursionlimit(10000)
    dfs(tour.root)
    return pre, post


class TestDescendantCounts:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference(self, seed):
        s = random_hole_free(70, seed=200 + seed)
        tour, parent = tour_for(s)
        engine = CircuitEngine(s)
        counts = descendant_counts(engine, tour)
        # Reference by bottom-up accumulation.
        expected = {u: 1 for u in s.nodes}
        for u in sorted(parent, key=lambda x: -_depth(parent, x)):
            expected[parent[u]] += expected[u]
        assert counts == expected

    def test_root_counts_everything(self):
        s = random_hole_free(50, seed=210)
        tour, _ = tour_for(s)
        counts = descendant_counts(CircuitEngine(s), tour)
        assert counts[tour.root] == len(s)

    def test_single_node(self):
        s = line_structure(1)
        tour = node_tour(s, Node(0, 0), {Node(0, 0): []})
        assert descendant_counts(CircuitEngine(s), tour) == {Node(0, 0): 1}


class TestOrderNumbers:
    @pytest.mark.parametrize("seed", range(3))
    def test_preorder_matches_dfs(self, seed):
        s = random_hole_free(60, seed=220 + seed)
        tour, _ = tour_for(s)
        engine = CircuitEngine(s)
        pre = preorder_numbers(engine, tour)
        expected, _post = reference_orders(tour)
        assert pre == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_postorder_matches_dfs(self, seed):
        s = random_hole_free(60, seed=230 + seed)
        tour, _ = tour_for(s)
        engine = CircuitEngine(s)
        post = postorder_numbers(engine, tour)
        _pre, expected = reference_orders(tour)
        assert post == expected

    def test_preorder_is_a_permutation(self):
        s = random_hole_free(40, seed=240)
        tour, _ = tour_for(s)
        pre = preorder_numbers(CircuitEngine(s), tour)
        assert sorted(pre.values()) == list(range(len(s)))

    def test_root_extremes(self):
        s = random_hole_free(40, seed=241)
        tour, _ = tour_for(s)
        engine = CircuitEngine(s)
        assert preorder_numbers(engine, tour)[tour.root] == 0
        assert postorder_numbers(engine, tour)[tour.root] == len(s) - 1

    def test_single_node_orders(self):
        s = line_structure(1)
        tour = node_tour(s, Node(0, 0), {Node(0, 0): []})
        assert preorder_numbers(CircuitEngine(s), tour) == {Node(0, 0): 0}
        assert postorder_numbers(CircuitEngine(s), tour) == {Node(0, 0): 0}


class TestLevels:
    def test_levels_match_bfs_depth(self):
        s = random_hole_free(60, seed=250)
        tour, parent = tour_for(s)
        levels = node_levels(CircuitEngine(s), tour)
        for u in s.nodes:
            assert levels[u] == _depth(parent, u)


def _depth(parent, u):
    d = 0
    while u in parent:
        u = parent[u]
        d += 1
    return d
