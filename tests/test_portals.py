"""Tests for portals, portal graphs, implicit portal trees (§2.3, §3.5)."""

import random

import pytest

from repro.grid.coords import Node
from repro.grid.directions import Axis
from repro.grid.oracle import bfs_distances
from repro.portals.portals import PortalSystem, portal_distance_identity
from repro.workloads import (
    comb,
    hexagon,
    line_structure,
    parallelogram,
    random_hole_free,
    staircase,
    triangle,
)

ALL_SHAPES = [
    hexagon(3),
    parallelogram(8, 4),
    triangle(7),
    comb(4, 4),
    staircase(4, 3),
    random_hole_free(120, seed=5),
    random_hole_free(90, seed=6, compactness=0.05),
]


class TestPortalPartition:
    @pytest.mark.parametrize("axis", list(Axis))
    def test_portals_partition_the_structure(self, axis):
        for s in ALL_SHAPES:
            system = PortalSystem(s, axis)
            seen = set()
            for k in range(system.portal_count()):
                for u in system.portal_nodes(k):
                    assert u not in seen
                    seen.add(u)
            assert seen == set(s.nodes)

    @pytest.mark.parametrize("axis", list(Axis))
    def test_portal_nodes_contiguous_on_line(self, axis):
        s = hexagon(3)
        system = PortalSystem(s, axis)
        pos = axis.directions[0]
        for k in range(system.portal_count()):
            nodes = system.portal_nodes(k)
            for u, v in zip(nodes, nodes[1:]):
                assert u.neighbor(pos) == v

    def test_portal_of_consistency(self):
        s = parallelogram(6, 3)
        system = PortalSystem(s, Axis.X)
        for k in range(system.portal_count()):
            for u in system.portal_nodes(k):
                assert system.portal_of[u] == k

    def test_representative_is_first_node(self):
        s = hexagon(2)
        for axis in Axis:
            system = PortalSystem(s, axis)
            nodes = s.grid_index().nodes
            for k, run in enumerate(system.runs):
                assert nodes[run[0]] == system.portal_nodes(k)[0]
            # Portals are numbered by their first node.
            firsts = [system.portal_nodes(k)[0] for k in range(system.portal_count())]
            assert firsts == sorted(firsts)

    def test_x_portals_are_rows(self):
        s = parallelogram(5, 3)
        system = PortalSystem(s, Axis.X)
        assert system.portal_count() == 3
        for k in range(system.portal_count()):
            assert len(system.portal_nodes(k)) == 5


class TestPortalGraphTree:
    @pytest.mark.parametrize("axis", list(Axis))
    def test_lemma9_portal_graph_is_tree(self, axis):
        for s in ALL_SHAPES:
            assert PortalSystem(s, axis).is_portal_graph_tree()

    def test_portal_graph_of_holey_structure_has_cycle(self):
        from repro.grid.structure import AmoebotStructure

        ring = AmoebotStructure(
            [n for n in hexagon(2).nodes if n not in hexagon(0).nodes],
            require_hole_free=False,
        )
        with pytest.raises(AssertionError):
            PortalSystem(ring, Axis.X)

    def test_adjacency_symmetric(self):
        s = random_hole_free(80, seed=1)
        for axis in Axis:
            system = PortalSystem(s, axis)
            for p, neighbors in enumerate(system.portal_adjacency):
                for q in neighbors:
                    assert p in system.portal_adjacency[q]


class TestImplicitPortalTree:
    @pytest.mark.parametrize("axis", list(Axis))
    def test_spanning_tree(self, axis):
        for s in ALL_SHAPES:
            system = PortalSystem(s, axis)
            edge_count = (
                sum(len(v) for v in system.implicit_adjacency.values()) // 2
            )
            assert edge_count == len(s) - 1
            assert set(system.implicit_adjacency) == set(s.nodes)

    @pytest.mark.parametrize("axis", list(Axis))
    def test_contains_all_axis_parallel_edges(self, axis):
        s = hexagon(3)
        system = PortalSystem(s, axis)
        pos = axis.directions[0]
        for u in s:
            v = u.neighbor(pos)
            if v in s:
                assert v in system.implicit_adjacency[u]

    def test_one_connector_per_adjacent_portal_pair(self):
        for s in ALL_SHAPES:
            for axis in Axis:
                system = PortalSystem(s, axis)
                nodes = s.grid_index().nodes
                for p1, neighbors in enumerate(system.portal_adjacency):
                    for p2 in neighbors:
                        u, v = (nodes[i] for i in system.connector[(p1, p2)])
                        assert u in system.portal_nodes(p1)
                        assert v in system.portal_nodes(p2)
                        assert u.is_adjacent(v)

    def test_tree_membership_is_locally_decidable(self):
        s = random_hole_free(100, seed=8)
        for axis in Axis:
            system = PortalSystem(s, axis)
            for u in s:
                from_rule = {u.neighbor(d) for d in system.tree_directions(u)}
                from_tree = set(system.implicit_adjacency[u])
                # The local rule may miss an edge selected by the *other*
                # endpoint, but must never add one.
                assert from_rule <= from_tree


class TestLemma11:
    @pytest.mark.parametrize("shape_index", range(len(ALL_SHAPES)))
    def test_distance_identity(self, shape_index):
        s = ALL_SHAPES[shape_index]
        systems = {axis: PortalSystem(s, axis) for axis in Axis}
        rng = random.Random(shape_index)
        nodes = sorted(s.nodes)
        for _ in range(12):
            u, v = rng.choice(nodes), rng.choice(nodes)
            d = bfs_distances(s, [u])[v]
            assert portal_distance_identity(s, systems, u, v, d)

    def test_identity_on_single_line(self):
        s = line_structure(10)
        systems = {axis: PortalSystem(s, axis) for axis in Axis}
        u, v = Node(0, 0), Node(9, 0)
        # dist_x = 0 (same portal); dist_y = dist_z = 9.
        assert portal_distance_identity(s, systems, u, v, 9)


class TestPortalGraphQueries:
    def test_bfs_distances_on_portal_graph(self):
        s = parallelogram(4, 4)
        system = PortalSystem(s, Axis.X)
        bottom = system.portal_of[Node(0, 0)]
        distances = system.portal_graph_distances(bottom)
        assert distances[system.portal_of[Node(0, 3)]] == 3

    def test_parent_relation_rooted(self):
        s = parallelogram(4, 4)
        system = PortalSystem(s, Axis.X)
        root = system.portal_of[Node(0, 0)]
        parent = system.parent_relation(root)
        assert parent[root] is None
        assert sum(1 for v in parent.values() if v is None) == 1

    def test_portals_containing(self):
        s = parallelogram(4, 2)
        system = PortalSystem(s, Axis.X)
        found = {system.portal_of[u] for u in [Node(0, 0), Node(3, 0), Node(1, 1)]}
        assert found == {0, 1}
