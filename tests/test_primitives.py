"""Tests for the tree primitives of Section 3 (root&prune, election,
centroids, centroid decomposition)."""

import math

import pytest

from repro.grid.coords import Node
from repro.primitives import (
    brute_force_q_centroids,
    centroid_decomposition,
    elect,
    q_centroids,
    root_and_prune,
)
from repro.primitives.root_prune import RootPruneOp
from repro.sim.engine import CircuitEngine
from repro.workloads import line_structure, random_hole_free
from tests.conftest import bfs_tree_adjacency, node_tour, random_subset


def oracle_vq(adjacency, parent, root, q):
    children = {}
    for c, p in parent.items():
        children.setdefault(p, []).append(c)

    def subtree(u):
        out = {u}
        for c in children.get(u, []):
            out |= subtree(c)
        return out

    return {u for u in adjacency if subtree(u) & q}


class TestRootAndPrune:
    def test_matches_oracle(self, random_structure):
        root = random_structure.westernmost()
        adjacency, parent = bfs_tree_adjacency(random_structure, root)
        q = random_subset(random_structure, 10, seed=1)
        engine = CircuitEngine(random_structure)
        result = root_and_prune(engine, root, adjacency, q)
        assert result.in_vq == oracle_vq(adjacency, parent, root, q)
        for u in result.in_vq - {root}:
            assert result.parent[u] == parent[u]

    def test_q_size_read_by_root(self, random_structure):
        root = random_structure.westernmost()
        adjacency, _ = bfs_tree_adjacency(random_structure, root)
        q = random_subset(random_structure, 7, seed=2)
        engine = CircuitEngine(random_structure)
        assert root_and_prune(engine, root, adjacency, q).q_size == 7

    def test_empty_q_prunes_everything(self, small_hexagon):
        root = small_hexagon.westernmost()
        adjacency, _ = bfs_tree_adjacency(small_hexagon, root)
        engine = CircuitEngine(small_hexagon)
        result = root_and_prune(engine, root, adjacency, [])
        assert result.in_vq == set()
        assert result.q_size == 0

    def test_q_only_root(self, small_hexagon):
        root = small_hexagon.westernmost()
        adjacency, _ = bfs_tree_adjacency(small_hexagon, root)
        engine = CircuitEngine(small_hexagon)
        result = root_and_prune(engine, root, adjacency, [root])
        assert result.in_vq == {root}

    def test_augmentation_bound(self, random_structure):
        # Corollary 29: |A_Q| <= |Q| - 1.
        root = random_structure.westernmost()
        adjacency, _ = bfs_tree_adjacency(random_structure, root)
        for seed in range(4):
            q = random_subset(random_structure, 8, seed=seed)
            engine = CircuitEngine(random_structure)
            result = root_and_prune(engine, root, adjacency, q)
            assert len(result.augmentation) <= len(q) - 1

    def test_degrees_match_pruned_tree(self, random_structure):
        root = random_structure.westernmost()
        adjacency, parent = bfs_tree_adjacency(random_structure, root)
        q = random_subset(random_structure, 9, seed=5)
        engine = CircuitEngine(random_structure)
        result = root_and_prune(engine, root, adjacency, q)
        vq = result.in_vq
        for u in vq:
            expected = sum(
                1
                for v in adjacency[u]
                if v in vq and (parent.get(u) == v or parent.get(v) == u)
            )
            assert result.degree_q[u] == expected

    def test_rounds_logarithmic_in_q(self):
        s = random_hole_free(250, seed=11)
        root = s.westernmost()
        adjacency, _ = bfs_tree_adjacency(s, root)
        engine = CircuitEngine(s)
        q = random_subset(s, 4, seed=0)
        root_and_prune(engine, root, adjacency, q, section="rp4")
        small = engine.rounds.section_total("rp4")
        assert small <= 2 * (math.ceil(math.log2(4 * 6)) + 2)

    def test_q_outside_tree_rejected(self, small_hexagon):
        root = small_hexagon.westernmost()
        adjacency, _ = bfs_tree_adjacency(small_hexagon, root)
        tour = node_tour(small_hexagon, root, adjacency)
        with pytest.raises(ValueError):
            RootPruneOp(tour, [len(small_hexagon) + 5])

    def test_children_helper(self, small_hexagon):
        root = small_hexagon.westernmost()
        adjacency, _ = bfs_tree_adjacency(small_hexagon, root)
        engine = CircuitEngine(small_hexagon)
        result = root_and_prune(engine, root, adjacency, sorted(small_hexagon.nodes))
        children = result.children()
        assert sum(len(c) for c in children.values()) == len(result.parent)


class TestElect:
    def test_elected_in_q(self, random_structure):
        root = random_structure.westernmost()
        adjacency, _ = bfs_tree_adjacency(random_structure, root)
        q = random_subset(random_structure, 5, seed=3)
        engine = CircuitEngine(random_structure)
        assert elect(engine, root, adjacency, q) in q

    def test_single_node_tree(self):
        s = line_structure(1)
        engine = CircuitEngine(s)
        assert elect(engine, Node(0, 0), {Node(0, 0): []}, [Node(0, 0)]) == Node(0, 0)

    def test_empty_q_rejected(self, small_hexagon):
        root = small_hexagon.westernmost()
        adjacency, _ = bfs_tree_adjacency(small_hexagon, root)
        with pytest.raises(ValueError):
            elect(CircuitEngine(small_hexagon), root, adjacency, [])

    def test_candidate_outside_tree_rejected(self, small_hexagon):
        root = small_hexagon.westernmost()
        adjacency, _ = bfs_tree_adjacency(small_hexagon, root)
        with pytest.raises(ValueError):
            elect(CircuitEngine(small_hexagon), root, adjacency, [Node(50, 50)])


class TestQCentroids:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, random_structure, seed):
        root = random_structure.westernmost()
        adjacency, _ = bfs_tree_adjacency(random_structure, root)
        q = random_subset(random_structure, 8, seed=seed)
        engine = CircuitEngine(random_structure)
        assert q_centroids(engine, root, adjacency, q) == brute_force_q_centroids(
            adjacency, q
        )

    def test_line_centroid_is_median(self):
        s = line_structure(9)
        nodes = sorted(s.nodes)
        from repro.ett.tour import adjacency_from_edges

        adjacency = adjacency_from_edges(list(zip(nodes, nodes[1:])))
        engine = CircuitEngine(s)
        result = q_centroids(engine, nodes[0], adjacency, nodes)
        assert result == {nodes[4]}

    def test_two_adjacent_centroids_possible(self):
        s = line_structure(4)
        nodes = sorted(s.nodes)
        from repro.ett.tour import adjacency_from_edges

        adjacency = adjacency_from_edges(list(zip(nodes, nodes[1:])))
        engine = CircuitEngine(s)
        result = q_centroids(engine, nodes[0], adjacency, nodes)
        assert result == {nodes[1], nodes[2]}

    def test_centroid_can_be_empty_without_augmentation(self):
        # A star with Q = the three leaves has no Q-centroid: removing
        # any leaf leaves the other two (> 3/2) in one component.
        center = Node(0, 0)
        from repro.grid.directions import Direction
        from repro.grid.structure import AmoebotStructure
        from repro.ett.tour import adjacency_from_edges

        leaves = [
            center.neighbor(Direction.E),
            center.neighbor(Direction.NW),
            center.neighbor(Direction.SW),
        ]
        s = AmoebotStructure([center] + leaves)
        adjacency = adjacency_from_edges([(center, leaf) for leaf in leaves])
        engine = CircuitEngine(s)
        assert q_centroids(engine, center, adjacency, leaves) == set()
        # The augmentation (the center, degree 3) restores existence.
        assert q_centroids(engine, center, adjacency, leaves + [center]) == {center}


class TestCentroidDecomposition:
    def test_members_are_exactly_q_prime(self, random_structure):
        root = random_structure.westernmost()
        adjacency, _ = bfs_tree_adjacency(random_structure, root)
        q = random_subset(random_structure, 10, seed=7)
        engine = CircuitEngine(random_structure)
        rp = root_and_prune(engine, root, adjacency, q)
        q_prime = q | rp.augmentation
        tree = centroid_decomposition(engine, root, adjacency, q_prime)
        assert tree.members() == q_prime

    def test_height_logarithmic(self, random_structure):
        # Lemma 30: height O(log |Q'|).
        root = random_structure.westernmost()
        adjacency, _ = bfs_tree_adjacency(random_structure, root)
        for seed in range(3):
            q = random_subset(random_structure, 12, seed=seed)
            engine = CircuitEngine(random_structure)
            rp = root_and_prune(engine, root, adjacency, q)
            q_prime = q | rp.augmentation
            tree = centroid_decomposition(engine, root, adjacency, q_prime)
            assert tree.height <= math.ceil(math.log2(len(q_prime))) + 1

    def test_parent_depths_increase(self, random_structure):
        root = random_structure.westernmost()
        adjacency, _ = bfs_tree_adjacency(random_structure, root)
        q = random_subset(random_structure, 9, seed=9)
        engine = CircuitEngine(random_structure)
        rp = root_and_prune(engine, root, adjacency, q)
        q_prime = q | rp.augmentation
        tree = centroid_decomposition(engine, root, adjacency, q_prime)
        for node, parent in tree.parent.items():
            if parent is not None:
                assert tree.depth_of(parent) == tree.depth_of(node) - 1

    def test_same_depth_nodes_in_disjoint_subtrees(self, random_structure):
        root = random_structure.westernmost()
        adjacency, _ = bfs_tree_adjacency(random_structure, root)
        q = random_subset(random_structure, 11, seed=4)
        engine = CircuitEngine(random_structure)
        rp = root_and_prune(engine, root, adjacency, q)
        q_prime = q | rp.augmentation
        tree = centroid_decomposition(engine, root, adjacency, q_prime)
        for level in tree.levels:
            for i, a in enumerate(level):
                for b in level[i + 1 :]:
                    assert not (tree.subtree_units[a] & tree.subtree_units[b])

    def test_deterministic(self, random_structure):
        root = random_structure.westernmost()
        adjacency, _ = bfs_tree_adjacency(random_structure, root)
        q = random_subset(random_structure, 8, seed=2)
        engine = CircuitEngine(random_structure)
        rp = root_and_prune(engine, root, adjacency, q)
        q_prime = q | rp.augmentation
        first = centroid_decomposition(engine, root, adjacency, q_prime)
        second = centroid_decomposition(engine, root, adjacency, q_prime)
        assert first.levels == second.levels
        assert first.parent == second.parent

    def test_empty_q_prime_rejected(self, small_hexagon):
        root = small_hexagon.westernmost()
        adjacency, _ = bfs_tree_adjacency(small_hexagon, root)
        with pytest.raises(ValueError):
            centroid_decomposition(CircuitEngine(small_hexagon), root, adjacency, set())

    def test_singleton_q_prime(self, small_hexagon):
        root = small_hexagon.westernmost()
        adjacency, _ = bfs_tree_adjacency(small_hexagon, root)
        engine = CircuitEngine(small_hexagon)
        target = sorted(small_hexagon.nodes)[-1]
        tree = centroid_decomposition(engine, root, adjacency, {target})
        assert tree.levels == [[target]]
