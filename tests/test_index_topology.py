"""The grid index's topology against ``Node``-level oracles.

:meth:`GridIndex.topology` counts components by an id BFS over ``nbr``
and holes by Euler's formula (``E - V + components - triangles``).
These tests hold it to a ``Node`` flood fill and to
:func:`~repro.grid.holes.find_holes` on connected sets with and without
holes, disconnected sets, single nodes, lines, and derived indexes with
tombstones; and hold the ring-arc table to a direct run count.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.compiled import GridIndex
from repro.grid.coords import Node
from repro.grid.directions import RING_ARCS
from repro.grid.holes import find_holes
from repro.grid.structure import AmoebotStructure, StructureError
from repro.workloads import hexagon
from tests.node_oracles import is_contiguous_arc

BOX = 7


def node_components(nodes) -> int:
    """Connected components of a node set by a ``Node`` flood fill."""
    todo = set(nodes)
    count = 0
    while todo:
        count += 1
        stack = [todo.pop()]
        while stack:
            for v in stack.pop().neighbors():
                if v in todo:
                    todo.discard(v)
                    stack.append(v)
    return count


def assert_topology(index: GridIndex, nodes) -> None:
    assert index.topology() == (node_components(nodes), len(find_holes(nodes)))


cells = st.tuples(st.integers(0, BOX - 1), st.integers(0, BOX - 1)).map(
    lambda xy: Node(*xy)
)
node_sets = st.sets(cells, min_size=1, max_size=BOX * BOX)


def grown(seed: int, n: int):
    """A connected set grown by random neighbor draws (holes allowed)."""
    rng = random.Random(seed)
    nodes = [Node(0, 0)]
    occupied = set(nodes)
    while len(nodes) < n:
        v = rng.choice(nodes).neighbor(rng.randrange(6))
        if v not in occupied:
            occupied.add(v)
            nodes.append(v)
    return occupied


class TestTopology:
    @settings(max_examples=300, deadline=None)
    @given(node_sets)
    def test_topology_matches_node_oracles(self, nodes):
        assert_topology(GridIndex(nodes), nodes)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 120))
    def test_connected_sets_with_and_without_holes(self, seed, n):
        nodes = grown(seed, n)
        index = GridIndex(nodes)
        assert index.topology()[0] == 1
        assert_topology(index, nodes)

    @settings(max_examples=100, deadline=None)
    @given(node_sets, st.data())
    def test_derived_indexes_with_tombstones(self, nodes, data):
        index = GridIndex(nodes)
        removed = data.draw(st.sets(st.sampled_from(sorted(nodes)), max_size=len(nodes) - 1))
        added = data.draw(st.sets(cells.filter(lambda u: u not in nodes), max_size=8))
        derived = index.derive(sorted(added), sorted(removed))
        assert_topology(derived, (nodes - removed) | added)

    def test_named_shapes(self):
        ring = hexagon(2).nodes - {Node(0, 0)}
        three_holes = {Node(x, 0) for x in range(7)} | {Node(x, 2) for x in range(-1, 6)}
        three_holes |= {Node(0, 1), Node(2, 1), Node(4, 1), Node(6, 1), Node(-1, 1)}
        island = (hexagon(3).nodes - hexagon(2).nodes) | {Node(0, 0)}
        cases = {
            "single": ({Node(5, -3)}, (1, 0)),
            "line": ({Node(x, 0) for x in range(30)}, (1, 0)),
            "hexagon": (set(hexagon(3).nodes), (1, 0)),
            "ring": (ring, (1, 1)),
            "three holes": (three_holes, (1, 3)),
            "island in a ring": (island, (2, 1)),
            "two dots": ({Node(0, 0), Node(2, 0)}, (2, 0)),
        }
        for name, (nodes, expected) in cases.items():
            index = GridIndex(nodes)
            assert index.topology() == expected, name
            assert_topology(index, nodes)


class TestConstructorValidation:
    def test_same_errors_in_the_same_order(self):
        holey = hexagon(2).nodes - {Node(0, 0)}
        with pytest.raises(StructureError, match="hole-free"):
            AmoebotStructure(holey)
        # Disconnected *and* holey: connectivity is reported first.
        with pytest.raises(StructureError, match="connected"):
            AmoebotStructure(holey | {Node(9, 9)})
        with pytest.raises(StructureError, match="non-empty"):
            AmoebotStructure([])
        assert AmoebotStructure(holey, require_hole_free=False).hole_count() == 1

    def test_trusted_structures_count_on_their_index(self):
        holey = hexagon(2).nodes - {Node(0, 0)}
        assert AmoebotStructure.from_validated(holey).hole_count() == 1
        assert AmoebotStructure.from_validated(hexagon(2).nodes).hole_count() == 0


def run_count(ring) -> int:
    """Maximal runs of ``True`` in a cyclic six-cell ring (full = 1)."""
    if all(ring):
        return 1
    return sum(1 for d in range(6) if ring[d] and not ring[d - 1])


def test_ring_arcs_match_run_count():
    for mask in range(64):
        ring = [bool(mask >> d & 1) for d in range(6)]
        assert RING_ARCS[mask] == run_count(ring), mask
        assert (RING_ARCS[mask] == 1) == is_contiguous_arc(ring), mask
