"""Tests for the public API (solve_spf), Forest type, and baselines."""

import random

import pytest

from repro.grid.coords import Node
from repro.grid.oracle import bfs_distances
from repro.sim.engine import CircuitEngine
from repro.baselines import bfs_wave_forest, sequential_merge_forest
from repro.spf import solve_spf
from repro.verify import assert_valid_forest
from tests.conftest import node_forest
from repro.workloads import hexagon, line_structure, random_hole_free


class TestForestType:
    def _simple_forest(self):
        nodes = [Node(i, 0) for i in range(4)]
        parent = {nodes[1]: nodes[0], nodes[2]: nodes[1], nodes[3]: nodes[2]}
        return node_forest({nodes[0]}, parent, set(nodes)), nodes

    def test_root_and_depth(self):
        forest, nodes = self._simple_forest()
        assert forest.root_of(nodes[3]) == nodes[0]
        assert forest.depth_of(nodes[3]) == 3
        assert forest.depth_of(nodes[0]) == 0

    def test_tree_parent_maps(self):
        forest, nodes = self._simple_forest()
        trees = forest.trees()
        (source,) = forest.source_ids
        assert set(trees) == {source}
        assert trees[source] == forest.parent_ids
        assert len(trees[source]) == 3

    def test_missing_parent_rejected(self):
        nodes = [Node(i, 0) for i in range(3)]
        with pytest.raises(ValueError):
            node_forest({nodes[0]}, {}, set(nodes))

    def test_no_sources_rejected(self):
        with pytest.raises(ValueError):
            node_forest(set(), {}, {Node(0, 0)})

    def test_cycle_detected_on_traversal(self):
        a, b, c = Node(0, 0), Node(1, 0), Node(2, 0)
        forest = node_forest({a}, {b: c, c: b}, {a, b, c})
        with pytest.raises(ValueError):
            forest.root_of(b)

    def test_node_views_are_built_once(self):
        forest, nodes = self._simple_forest()
        assert forest.parent is forest.parent
        assert forest.members == set(nodes)
        assert forest.sources == {nodes[0]}
        assert len(forest) == 4


class TestSolveSpf:
    def test_dispatches_to_spt_for_single_source(self):
        s = hexagon(2)
        nodes = sorted(s.nodes)
        solution = solve_spf(s, [nodes[0]], nodes[-3:])
        assert solution.algorithm == "spt"
        assert_valid_forest(s, [nodes[0]], nodes[-3:], solution.forest.parent)

    def test_dispatches_to_forest_for_multi_source(self):
        s = hexagon(2)
        nodes = sorted(s.nodes)
        solution = solve_spf(s, nodes[:3], nodes[-3:])
        assert solution.algorithm == "forest"
        assert_valid_forest(s, nodes[:3], nodes[-3:], solution.forest.parent)

    def test_rounds_reported(self):
        s = hexagon(2)
        nodes = sorted(s.nodes)
        solution = solve_spf(s, [nodes[0]], [nodes[-1]])
        assert solution.rounds > 0

    def test_empty_inputs_rejected(self):
        s = hexagon(1)
        with pytest.raises(ValueError):
            solve_spf(s, [], [Node(0, 0)])
        with pytest.raises(ValueError):
            solve_spf(s, [Node(0, 0)], [])

    def test_external_engine_accumulates(self):
        s = hexagon(2)
        nodes = sorted(s.nodes)
        engine = CircuitEngine(s)
        first = solve_spf(s, [nodes[0]], [nodes[-1]], engine=engine)
        second = solve_spf(s, [nodes[1]], [nodes[-2]], engine=engine)
        assert engine.rounds.total == first.rounds + second.rounds


class TestBfsWave:
    def test_distances_correct(self):
        s = random_hole_free(90, seed=21)
        nodes = sorted(s.nodes)
        rng = random.Random(2)
        sources = rng.sample(nodes, 3)
        engine = CircuitEngine(s)
        forest = bfs_wave_forest(engine, s, sources)
        oracle = bfs_distances(s, sources)
        for u in forest.members:
            assert forest.depth_of(u) == oracle[u]

    def test_rounds_equal_source_eccentricity(self):
        s = line_structure(50)
        engine = CircuitEngine(s)
        bfs_wave_forest(engine, s, [Node(0, 0)])
        # 49 wave rounds + 1 termination round.
        assert engine.rounds.total == 50

    def test_stops_early_with_near_destinations(self):
        s = line_structure(50)
        engine = CircuitEngine(s)
        bfs_wave_forest(engine, s, [Node(0, 0)], destinations=[Node(5, 0)])
        assert engine.rounds.total == 6

    def test_wave_vs_circuit_rounds(self):
        # The headline contrast: on a long line, the wave pays the
        # diameter while the circuit algorithm pays O(1).
        s = line_structure(120)
        wave_engine = CircuitEngine(s)
        bfs_wave_forest(wave_engine, s, [Node(0, 0)], destinations=[Node(119, 0)])
        from repro.spf.spt import shortest_path_tree

        circuit_engine = CircuitEngine(s)
        shortest_path_tree(circuit_engine, s, Node(0, 0), [Node(119, 0)])
        assert circuit_engine.rounds.total < wave_engine.rounds.total / 2

    def test_empty_sources_rejected(self):
        s = hexagon(1)
        with pytest.raises(ValueError):
            bfs_wave_forest(CircuitEngine(s), s, [])


class TestSequentialMerge:
    def test_valid_forest(self):
        s = random_hole_free(80, seed=23)
        nodes = sorted(s.nodes)
        rng = random.Random(3)
        sources = rng.sample(nodes, 4)
        engine = CircuitEngine(s)
        forest = sequential_merge_forest(engine, s, sources)
        assert_valid_forest(s, sources, nodes, forest.parent)

    def test_rounds_linear_in_k(self):
        s = random_hole_free(120, seed=24)
        from repro.workloads import spread_nodes

        rounds = {}
        for k in (2, 8):
            sources = spread_nodes(s, k)
            engine = CircuitEngine(s)
            sequential_merge_forest(engine, s, sources)
            rounds[k] = engine.rounds.total
        # Quadrupling k must roughly quadruple the cost (it is O(k log n)).
        assert rounds[8] >= 2.5 * rounds[2]

    def test_duplicate_sources_deduplicated(self):
        s = hexagon(2)
        nodes = sorted(s.nodes)
        engine = CircuitEngine(s)
        forest = sequential_merge_forest(engine, s, [nodes[0], nodes[0]])
        assert forest.sources == {nodes[0]}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sequential_merge_forest(CircuitEngine(hexagon(1)), hexagon(1), [])
