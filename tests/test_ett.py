"""Tests for the Euler tour technique (Section 3.1, Lemmas 14-17)."""

import random

import pytest

from repro.ett.election import ElectionRequest, elect_first_marked, elect_first_marked_many
from repro.ett.technique import ETTOp, mark_one_outgoing_edge, run_ett, run_etts_parallel
from repro.ett.tour import adjacency_from_edges
from repro.grid.coords import Node
from repro.grid.structure import AmoebotStructure
from repro.sim.engine import CircuitEngine
from repro.workloads import line_structure, random_hole_free
from tests.conftest import bfs_tree_adjacency, node_ids, node_tour


def sample_tree(structure, root):
    adjacency, parent = bfs_tree_adjacency(structure, root)
    return adjacency, parent


def subtree_members(parent, root):
    children = {}
    for c, p in parent.items():
        children.setdefault(p, []).append(c)

    def collect(u):
        out = {u}
        for c in children.get(u, []):
            out |= collect(c)
        return out

    return collect


class TestTourConstruction:
    def test_tour_length(self, medium_hexagon):
        root = medium_hexagon.westernmost()
        adjacency, _ = sample_tree(medium_hexagon, root)
        tour = node_tour(medium_hexagon, root, adjacency)
        assert tour.length == 2 * (len(medium_hexagon) - 1)

    def test_every_directed_edge_once(self, random_structure):
        root = random_structure.westernmost()
        adjacency, _ = sample_tree(random_structure, root)
        tour = node_tour(random_structure, root, adjacency)
        assert len(set(tour.edges)) == tour.length

    def test_consecutive_edges_share_node(self, random_structure):
        root = random_structure.westernmost()
        adjacency, _ = sample_tree(random_structure, root)
        tour = node_tour(random_structure, root, adjacency)
        for (u1, v1), (u2, _v2) in zip(tour.edges, tour.edges[1:]):
            assert v1 == u2

    def test_tour_starts_and_ends_at_root(self, random_structure):
        root = random_structure.westernmost()
        adjacency, _ = sample_tree(random_structure, root)
        tour = node_tour(random_structure, root, adjacency)
        assert tour.edges[0][0] == root
        assert tour.edges[-1][1] == root
        assert tour.units[-1][0] == root

    def test_units_per_amoebot_equal_degree(self, random_structure):
        root = random_structure.westernmost()
        adjacency, _ = sample_tree(random_structure, root)
        tour = node_tour(random_structure, root, adjacency)
        from collections import Counter

        count = Counter(node for node, _uid in tour.units)
        for u, neighbors in adjacency.items():
            expected = len(neighbors) + (1 if u == root else 0)
            assert count[u] == expected

    def test_single_node_tour(self):
        tour = node_tour(line_structure(1), Node(0, 0), {Node(0, 0): []})
        assert tour.length == 0
        assert tour.units == [(Node(0, 0), "0")]

    def test_non_tree_rejected(self):
        # A triangle of edges is not a tree.
        a, b, c = Node(0, 0), Node(1, 0), Node(0, 1)
        adjacency = adjacency_from_edges([(a, b), (b, c), (c, a)])
        with pytest.raises(ValueError):
            node_tour(AmoebotStructure([a, b, c]), a, adjacency)

    def test_root_not_in_tree_rejected(self):
        adjacency = adjacency_from_edges([(Node(0, 0), Node(1, 0))])
        with pytest.raises(ValueError):
            node_tour(line_structure(2), Node(5, 5), adjacency)

    def test_adjacency_sorted_ccw(self):
        center = Node(0, 0)
        edges = [(center, v) for v in center.neighbors()]
        adjacency = adjacency_from_edges(edges)
        dirs = [int(center.direction_to(v)) for v in adjacency[center]]
        assert dirs == sorted(dirs)


class TestETTPrefixSums:
    def test_total_equals_marked_count(self, random_structure):
        root = random_structure.westernmost()
        adjacency, _ = sample_tree(random_structure, root)
        tour = node_tour(random_structure, root, adjacency)
        rng = random.Random(1)
        q = rng.sample(sorted(random_structure.nodes), 9)
        marked = mark_one_outgoing_edge(tour, node_ids(random_structure, q))
        engine = CircuitEngine(random_structure)
        result, _stats = run_ett(engine, tour, marked)
        assert result.total == 9

    def test_lemma17_subtree_counts(self, random_structure):
        root = random_structure.westernmost()
        adjacency, parent = sample_tree(random_structure, root)
        tour = node_tour(random_structure, root, adjacency)
        rng = random.Random(2)
        q = set(rng.sample(sorted(random_structure.nodes), 12))
        marked = mark_one_outgoing_edge(tour, node_ids(random_structure, q))
        engine = CircuitEngine(random_structure)
        result, _stats = run_ett(engine, tour, marked)
        collect = subtree_members(parent, root)
        for child, par in parent.items():
            assert result.subtree_count(child, par) == len(collect(child) & q)

    def test_lemma17_sign_properties(self, random_structure):
        root = random_structure.westernmost()
        adjacency, parent = sample_tree(random_structure, root)
        tour = node_tour(random_structure, root, adjacency)
        q = sorted(random_structure.nodes)[:7]
        marked = mark_one_outgoing_edge(tour, node_ids(random_structure, q))
        engine = CircuitEngine(random_structure)
        result, _stats = run_ett(engine, tour, marked)
        for child, par in parent.items():
            assert result.diff(child, par) >= 0  # property 2
            assert result.diff(par, child) <= 0  # property 4

    def test_rounds_logarithmic_in_weight(self):
        s = random_hole_free(300, seed=4)
        root = s.westernmost()
        adjacency, _ = sample_tree(s, root)
        tour = node_tour(s, root, adjacency)
        engine = CircuitEngine(s)
        marked = mark_one_outgoing_edge(tour, node_ids(s, [root]))
        _result, stats = run_ett(engine, tour, marked)
        assert stats.iterations <= 3  # log(1) + termination slack

    def test_empty_weight_function(self, small_hexagon):
        root = small_hexagon.westernmost()
        adjacency, _ = sample_tree(small_hexagon, root)
        tour = node_tour(small_hexagon, root, adjacency)
        engine = CircuitEngine(small_hexagon)
        result, _stats = run_ett(engine, tour, [])
        assert result.total == 0
        assert all(v == 0 for v in result.prefix.values())

    def test_marked_edge_off_tour_rejected(self, small_hexagon):
        root = small_hexagon.westernmost()
        adjacency, _ = sample_tree(small_hexagon, root)
        tour = node_tour(small_hexagon, root, adjacency)
        with pytest.raises(ValueError):
            ETTOp(tour, [tour.length])

    def test_parallel_etts_on_disjoint_trees(self):
        left = [Node(i, 0) for i in range(5)]
        right = [Node(i, 0) for i in range(7, 12)]
        from repro.grid.structure import AmoebotStructure

        s = AmoebotStructure(left + [Node(i, 0) for i in range(5, 7)] + right)
        tours = []
        ops = []
        for chain in (left, right):
            edges = list(zip(chain, chain[1:]))
            adjacency = adjacency_from_edges(edges)
            tour = node_tour(s, chain[0], adjacency)
            tours.append(tour)
            ops.append(ETTOp(tour, mark_one_outgoing_edge(tour, node_ids(s, chain[:2]))))
        engine = CircuitEngine(s)
        results, stats = run_etts_parallel(engine, ops)
        assert [r.total for r in results] == [2, 2]
        assert stats.rounds == 2 * stats.iterations


class TestElection:
    def test_winner_is_candidate(self, random_structure):
        root = random_structure.westernmost()
        adjacency, _ = sample_tree(random_structure, root)
        tour = node_tour(random_structure, root, adjacency)
        rng = random.Random(3)
        q = rng.sample(sorted(random_structure.nodes), 6)
        marked = mark_one_outgoing_edge(tour, node_ids(random_structure, q))
        engine = CircuitEngine(random_structure)
        winner = random_structure.grid_index().nodes[elect_first_marked(engine, tour, marked)]
        assert winner in set(q)
        assert engine.rounds.total == 1  # Lemma 21: O(1) rounds

    def test_single_candidate_wins(self, small_hexagon):
        root = small_hexagon.westernmost()
        adjacency, _ = sample_tree(small_hexagon, root)
        tour = node_tour(small_hexagon, root, adjacency)
        target = sorted(small_hexagon.nodes)[-1]
        marked = mark_one_outgoing_edge(tour, node_ids(small_hexagon, [target]))
        engine = CircuitEngine(small_hexagon)
        assert elect_first_marked(engine, tour, marked) == node_ids(small_hexagon, [target])[0]

    def test_deterministic(self, random_structure):
        root = random_structure.westernmost()
        adjacency, _ = sample_tree(random_structure, root)
        tour = node_tour(random_structure, root, adjacency)
        q = sorted(random_structure.nodes)[:5]
        marked = mark_one_outgoing_edge(tour, node_ids(random_structure, q))
        winners = set()
        for _ in range(3):
            engine = CircuitEngine(random_structure)
            winners.add(elect_first_marked(engine, tour, marked))
        assert len(winners) == 1

    def test_empty_candidates_rejected(self, small_hexagon):
        root = small_hexagon.westernmost()
        adjacency, _ = sample_tree(small_hexagon, root)
        tour = node_tour(small_hexagon, root, adjacency)
        with pytest.raises(ValueError):
            elect_first_marked(CircuitEngine(small_hexagon), tour, [])

    def test_batched_elections_single_round(self):
        left = [Node(i, 0) for i in range(4)]
        right = [Node(i, 0) for i in range(6, 10)]
        from repro.grid.structure import AmoebotStructure

        s = AmoebotStructure([Node(i, 0) for i in range(10)])
        requests = []
        for chain in (left, right):
            edges = list(zip(chain, chain[1:]))
            tour = node_tour(s, chain[0], adjacency_from_edges(edges))
            requests.append(
                ElectionRequest(tour, mark_one_outgoing_edge(tour, node_ids(s, chain[1:3])))
            )
        engine = CircuitEngine(s)
        winners = [s.grid_index().nodes[w] for w in elect_first_marked_many(engine, requests)]
        assert engine.rounds.total == 1
        assert winners[0] in left[1:3]
        assert winners[1] in right[1:3]
