"""Cross-validation: strict beep-level executions == fast references.

The single most important safety net of the repository: on randomized
instances, every strict primitive must agree with its centralized
reference implementation (which shares no code with the simulator).
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reference import (
    ref_augmentation,
    ref_centroid_decomposition_depths,
    ref_line_forest,
    ref_q_centroids,
    ref_root_and_prune,
    ref_shortest_path_forest,
    ref_shortest_path_tree,
    ref_subtree_counts,
)
from repro.sim.engine import CircuitEngine
from repro.primitives import centroid_decomposition, q_centroids, root_and_prune
from repro.spf.forest import shortest_path_forest
from repro.spf.line import line_forest
from repro.spf.spt import shortest_path_tree
from repro.workloads import line_structure, random_hole_free, spread_nodes
from tests.conftest import bfs_tree_adjacency, node_ids, node_tour, random_subset


class TestTreePrimitiveAgreement:
    @pytest.mark.parametrize("seed", range(5))
    def test_root_and_prune(self, seed):
        s = random_hole_free(100, seed=100 + seed)
        root = s.westernmost()
        adjacency, _ = bfs_tree_adjacency(s, root)
        q = random_subset(s, 8, seed=seed)
        strict = root_and_prune(CircuitEngine(s), root, adjacency, q)
        ref_vq, ref_parent = ref_root_and_prune(adjacency, root, q)
        assert strict.in_vq == ref_vq
        assert strict.parent == ref_parent

    @pytest.mark.parametrize("seed", range(5))
    def test_augmentation(self, seed):
        s = random_hole_free(100, seed=110 + seed)
        root = s.westernmost()
        adjacency, _ = bfs_tree_adjacency(s, root)
        q = random_subset(s, 9, seed=seed)
        strict = root_and_prune(CircuitEngine(s), root, adjacency, q)
        assert strict.augmentation == ref_augmentation(adjacency, root, q)

    @pytest.mark.parametrize("seed", range(5))
    def test_centroids(self, seed):
        s = random_hole_free(90, seed=120 + seed)
        root = s.westernmost()
        adjacency, _ = bfs_tree_adjacency(s, root)
        q = random_subset(s, 7, seed=seed)
        strict = q_centroids(CircuitEngine(s), root, adjacency, q)
        assert strict == ref_q_centroids(adjacency, q)

    @pytest.mark.parametrize("seed", range(3))
    def test_decomposition_depth_bound(self, seed):
        s = random_hole_free(90, seed=130 + seed)
        root = s.westernmost()
        adjacency, _ = bfs_tree_adjacency(s, root)
        q = random_subset(s, 9, seed=seed)
        engine = CircuitEngine(s)
        rp = root_and_prune(engine, root, adjacency, q)
        q_prime = q | rp.augmentation
        strict = centroid_decomposition(engine, root, adjacency, q_prime)
        ref_depths = ref_centroid_decomposition_depths(adjacency, q_prime)
        # Both are valid decompositions: same member set, same height
        # bound (electoral tie-breaks may differ node by node).
        assert set(ref_depths) == strict.members()
        bound = math.ceil(math.log2(len(q_prime))) + 1
        assert strict.height <= bound
        assert max(ref_depths.values()) + 1 <= bound

    def test_subtree_counts_against_ett(self):
        s = random_hole_free(80, seed=140)
        root = s.westernmost()
        adjacency, parent = bfs_tree_adjacency(s, root)
        q = random_subset(s, 10, seed=0)
        from repro.ett import mark_one_outgoing_edge, run_ett

        tour = node_tour(s, root, adjacency)
        result, _ = run_ett(
            CircuitEngine(s), tour, mark_one_outgoing_edge(tour, node_ids(s, q))
        )
        counts = ref_subtree_counts(adjacency, root, q)
        for child, par in parent.items():
            assert result.subtree_count(child, par) == counts[child]


class TestForestAgreement:
    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=8, deadline=None)
    def test_spt_distances_match(self, seed):
        rng = random.Random(seed)
        s = random_hole_free(rng.randint(20, 90), seed=seed)
        nodes = sorted(s.nodes)
        source = rng.choice(nodes)
        dests = rng.sample(nodes, min(4, len(nodes)))
        strict = shortest_path_tree(CircuitEngine(s), s, source, dests)
        ref = ref_shortest_path_tree(s, source, dests)
        assert strict.forest.members >= set(dests)
        for d in dests:
            strict_depth = _depth(strict.forest.parent, {source}, d)
            assert strict_depth == ref.depth_of(d)

    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=6, deadline=None)
    def test_forest_distances_match(self, seed):
        rng = random.Random(seed)
        s = random_hole_free(rng.randint(30, 80), seed=seed + 1)
        k = rng.randint(2, 5)
        sources = spread_nodes(s, k)
        strict = shortest_path_forest(CircuitEngine(s), s, sources)
        ref = ref_shortest_path_forest(s, sources)
        for u in s:
            assert strict.depth_of(u) == ref.depth_of(u)

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**10))
    @settings(max_examples=15, deadline=None)
    def test_line_forest_matches(self, n, seed):
        rng = random.Random(seed)
        s = line_structure(n)
        nodes = sorted(s.nodes)
        k = rng.randint(1, n)
        sources = rng.sample(nodes, k)
        strict = line_forest(CircuitEngine(s), nodes, sources)
        ref = ref_line_forest(nodes, sources)
        # Depths must match exactly (same tie-break convention).
        for u in nodes:
            assert strict.depth_of(u) == ref.depth_of(u)


def _depth(parent, sources, node):
    d = 0
    cur = node
    while cur not in sources:
        cur = parent[cur]
        d += 1
    return d
