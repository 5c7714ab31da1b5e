"""Tests for the line algorithm (§5.1) and merging algorithm (§5.2)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.coords import Node
from repro.sim.engine import CircuitEngine
from repro.spf.line import line_forest
from repro.spf.merge import forest_distances, merge_forests
from repro.spf.spt import shortest_path_tree
from repro.verify import assert_valid_forest
from repro.workloads import line_structure, random_hole_free


def line_nodes(n):
    return [Node(i, 0) for i in range(n)]


class TestLineAlgorithm:
    def test_single_source(self):
        s = line_structure(10)
        nodes = line_nodes(10)
        engine = CircuitEngine(s)
        forest = line_forest(engine, nodes, [nodes[0]])
        assert_valid_forest(s, [nodes[0]], nodes, forest.parent)

    @given(
        st.integers(min_value=1, max_value=30),
        st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_sources_property(self, n, data):
        nodes = line_nodes(n)
        k = data.draw(st.integers(min_value=1, max_value=n))
        source_positions = data.draw(
            st.sets(st.integers(min_value=0, max_value=n - 1), min_size=k, max_size=k)
        )
        sources = [nodes[i] for i in source_positions]
        s = line_structure(n)
        engine = CircuitEngine(s)
        forest = line_forest(engine, nodes, sources)
        assert_valid_forest(s, sources, nodes, forest.parent)

    def test_parent_points_to_closer_source(self):
        nodes = line_nodes(9)
        s = line_structure(9)
        engine = CircuitEngine(s)
        forest = line_forest(engine, nodes, [nodes[0], nodes[8]])
        assert forest.parent[nodes[1]] == nodes[0]
        assert forest.parent[nodes[7]] == nodes[8]

    def test_rounds_logarithmic(self):
        for n in (16, 64, 256):
            nodes = line_nodes(n)
            s = line_structure(n)
            engine = CircuitEngine(s)
            line_forest(engine, nodes, [nodes[0], nodes[n // 2]])
            assert engine.rounds.total <= 2 * (n.bit_length() + 2)

    def test_on_y_axis_chain(self):
        # The algorithm must work on any chain, not just x-rows.
        from repro.grid.structure import AmoebotStructure

        chain = [Node(0, i) for i in range(8)]
        s = AmoebotStructure(chain)
        engine = CircuitEngine(s)
        forest = line_forest(engine, chain, [chain[3]])
        assert_valid_forest(s, [chain[3]], chain, forest.parent)

    def test_sources_not_on_chain_rejected(self):
        s = line_structure(4)
        engine = CircuitEngine(s)
        with pytest.raises(ValueError):
            line_forest(engine, line_nodes(4), [Node(9, 9)])

    def test_non_adjacent_chain_rejected(self):
        s = line_structure(4)
        engine = CircuitEngine(s)
        with pytest.raises(ValueError):
            line_forest(engine, [Node(0, 0), Node(2, 0)], [Node(0, 0)])

    def test_empty_sources_rejected(self):
        s = line_structure(4)
        engine = CircuitEngine(s)
        with pytest.raises(ValueError):
            line_forest(engine, line_nodes(4), [])


class TestForestDistances:
    def test_depths_equal_bfs_distances(self, medium_hexagon):
        nodes = sorted(medium_hexagon.nodes)
        engine = CircuitEngine(medium_hexagon)
        forest = shortest_path_tree(engine, medium_hexagon, nodes[0], nodes).forest
        dist = forest_distances(engine, forest)
        from repro.grid.oracle import bfs_distances

        node_at = forest.index.nodes
        assert {node_at[u]: d for u, d in dist.items()} == bfs_distances(
            medium_hexagon, [nodes[0]]
        )


class TestMergingAlgorithm:
    def test_merge_two_ssps(self, medium_hexagon):
        nodes = sorted(medium_hexagon.nodes)
        a, b = nodes[0], nodes[-1]
        engine = CircuitEngine(medium_hexagon)
        fa = _sssp_forest(engine, medium_hexagon, a)
        fb = _sssp_forest(engine, medium_hexagon, b)
        merged = merge_forests(engine, fa, fb)
        assert_valid_forest(medium_hexagon, [a, b], nodes, merged.parent)

    def test_merge_is_iterable_to_many_sources(self):
        s = random_hole_free(100, seed=13)
        nodes = sorted(s.nodes)
        rng = random.Random(1)
        sources = rng.sample(nodes, 4)
        engine = CircuitEngine(s)
        merged = _sssp_forest(engine, s, sources[0])
        for src in sources[1:]:
            merged = merge_forests(engine, merged, _sssp_forest(engine, s, src))
        assert_valid_forest(s, sources, nodes, merged.parent)

    def test_mismatched_members_rejected(self):
        s = line_structure(4)
        engine = CircuitEngine(s)
        f1 = line_forest(engine, line_nodes(4), [Node(0, 0)])
        f2 = line_forest(engine, line_nodes(3), [Node(0, 0)])
        with pytest.raises(ValueError):
            merge_forests(engine, f1, f2)

    def test_tie_prefers_first_forest(self):
        s = line_structure(5)
        nodes = line_nodes(5)
        engine = CircuitEngine(s)
        f1 = line_forest(engine, nodes, [nodes[0]])
        f2 = line_forest(engine, nodes, [nodes[4]])
        merged = merge_forests(engine, f1, f2)
        # The middle node is equidistant; forest 1's parent must win.
        assert merged.parent[nodes[2]] == nodes[1]

    def test_merged_sources_are_union(self):
        s = line_structure(6)
        nodes = line_nodes(6)
        engine = CircuitEngine(s)
        f1 = line_forest(engine, nodes, [nodes[0]])
        f2 = line_forest(engine, nodes, [nodes[5]])
        merged = merge_forests(engine, f1, f2)
        assert merged.sources == {nodes[0], nodes[5]}


def _sssp_forest(engine, structure, source):
    return shortest_path_tree(engine, structure, source, structure.nodes).forest
