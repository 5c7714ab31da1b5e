"""Tests for the Section 4 shortest path tree algorithm (Theorem 39)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.coords import Node
from repro.grid.directions import Axis
from repro.grid.structure import AmoebotStructure
from repro.grid.oracle import bfs_distances
from repro.grid.transforms import rotate60, transform_structure
from repro.portals.portals import PortalSystem
from repro.portals.primitives import portal_root_and_prune
from repro.sim.engine import CircuitEngine
from repro.spf.spt import shortest_path_tree
from repro.verify import assert_valid_forest
from tests.node_oracles import feasible_parents
from repro.workloads import (
    comb,
    hexagon,
    line_structure,
    lollipop,
    parallelogram,
    random_hole_free,
    staircase,
    triangle,
)


class TestCorrectness:
    @pytest.mark.parametrize(
        "structure",
        [
            hexagon(3),
            parallelogram(7, 4),
            triangle(7),
            comb(5, 4),
            staircase(5, 2),
            lollipop(2, 8),
        ],
        ids=["hexagon", "parallelogram", "triangle", "comb", "staircase", "lollipop"],
    )
    def test_valid_on_shapes(self, structure):
        rng = random.Random(0)
        nodes = sorted(structure.nodes)
        source = rng.choice(nodes)
        dests = rng.sample(nodes, min(6, len(nodes) // 3))
        engine = CircuitEngine(structure)
        result = shortest_path_tree(engine, structure, source, dests)
        assert_valid_forest(structure, [source], dests, result.forest.parent)

    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=12, deadline=None)
    def test_random_structures_property(self, seed):
        rng = random.Random(seed)
        structure = random_hole_free(rng.randint(20, 120), seed=seed)
        nodes = sorted(structure.nodes)
        source = rng.choice(nodes)
        dests = rng.sample(nodes, min(5, len(nodes)))
        engine = CircuitEngine(structure)
        result = shortest_path_tree(engine, structure, source, dests)
        assert_valid_forest(structure, [source], dests, result.forest.parent)

    def test_all_destinations_sssp(self, medium_hexagon):
        nodes = sorted(medium_hexagon.nodes)
        engine = CircuitEngine(medium_hexagon)
        result = shortest_path_tree(engine, medium_hexagon, nodes[0], nodes)
        assert result.forest.members == set(nodes)
        assert_valid_forest(medium_hexagon, [nodes[0]], nodes, result.forest.parent)

    def test_members_are_paths_to_destinations(self, medium_hexagon):
        nodes = sorted(medium_hexagon.nodes)
        source, dest = nodes[0], nodes[-1]
        engine = CircuitEngine(medium_hexagon)
        result = shortest_path_tree(engine, medium_hexagon, source, [dest])
        path = result.path_from(dest)
        assert path[0] == dest and path[-1] == source
        assert len(path) - 1 == bfs_distances(medium_hexagon, [source])[dest]
        # Pruning: every member lies on the source-destination path here.
        assert result.forest.members == set(path)

    def test_source_is_destination(self, small_hexagon):
        source = small_hexagon.westernmost()
        engine = CircuitEngine(small_hexagon)
        result = shortest_path_tree(engine, small_hexagon, source, [source])
        assert result.forest.members == {source}
        assert result.forest.parent == {}

    def test_raw_parents_superset(self, medium_hexagon):
        nodes = sorted(medium_hexagon.nodes)
        engine = CircuitEngine(medium_hexagon)
        result = shortest_path_tree(engine, medium_hexagon, nodes[0], [nodes[-1]])
        for u, p in result.forest.parent.items():
            assert result.raw_parent[u] == p


class TestFeasibleParents:
    """The id-native parent choice is Equation 1's first feasible hit."""

    @pytest.mark.parametrize("steps", [0, 1, 2], ids=["rot0", "rot60", "rot120"])
    @pytest.mark.parametrize(
        "family", ["small_hexagon", "medium_hexagon", "random_structure", "dendrite_structure"]
    )
    def test_raw_parents_are_first_feasible(self, request, family, steps):
        # Sixth-turns move each grid axis through the three roles.
        structure = transform_structure(request.getfixturevalue(family), rotate60(steps))
        nodes = sorted(structure.nodes)
        rng = random.Random(steps)
        source = rng.choice(nodes)
        destinations = rng.sample(nodes, 4)
        result = shortest_path_tree(CircuitEngine(structure), structure, source, destinations)

        engine = CircuitEngine(structure)
        systems = {axis: PortalSystem(structure, axis) for axis in Axis}
        portal_parents = {}
        for axis, system in systems.items():
            root = system.portal_of[source]
            q = {system.portal_of[d] for d in destinations} | {root}
            portal_parents[axis] = portal_root_and_prune(engine, system, root, q).parent
        want = {}
        for u in nodes:
            hits = feasible_parents(structure, systems, portal_parents, u)
            if u != source and hits:
                want[u] = hits[0]
        assert result.raw_parent == want
        assert all(result.raw_parent[u] == p for u, p in result.forest.parent.items())

    @pytest.mark.parametrize("rows", [0, 1])
    def test_sub_structure_parents_stay_inside(self, rows):
        # The lower half of a hexagon, with its destinations at the
        # bottom: the pruned top-row portals border the non-members, and
        # a non-member's portal number -1 equals a pruned portal's
        # parent, so only the membership test keeps them out.
        structure = hexagon(4)
        sub = AmoebotStructure([u for u in structure.nodes if u.y <= rows])
        bottom = sorted(u for u in sub.nodes if u.y == -4)
        source, destinations = bottom[0], bottom[1:3]
        engine = CircuitEngine(structure)
        result = shortest_path_tree(engine, sub, source, destinations)

        id_of = structure.grid_index().id_of
        members = {id_of(u) for u in sub.nodes}
        systems = {axis: PortalSystem(structure, axis, members) for axis in Axis}
        portal_parents = {}
        for axis, system in systems.items():
            root = system.portal_of[source]
            q = {system.portal_of[d] for d in destinations} | {root}
            portal_parents[axis] = portal_root_and_prune(engine, system, root, q).parent
        want = {}
        for u in sub.nodes:
            hits = feasible_parents(sub, systems, portal_parents, u)
            if u != source and hits:
                want[u] = hits[0]
        assert result.raw_parent == want
        assert members.issuperset(result.raw_parent_ids.values())


class TestValidation:
    def test_empty_destinations_rejected(self, small_hexagon):
        engine = CircuitEngine(small_hexagon)
        with pytest.raises(ValueError):
            shortest_path_tree(engine, small_hexagon, small_hexagon.westernmost(), [])

    def test_foreign_source_rejected(self, small_hexagon):
        engine = CircuitEngine(small_hexagon)
        with pytest.raises(ValueError):
            shortest_path_tree(engine, small_hexagon, Node(50, 50), [Node(0, 0)])

    def test_foreign_destination_rejected(self, small_hexagon):
        engine = CircuitEngine(small_hexagon)
        with pytest.raises(ValueError):
            shortest_path_tree(
                engine, small_hexagon, small_hexagon.westernmost(), [Node(50, 50)]
            )


class TestRoundComplexity:
    def test_spsp_rounds_independent_of_n(self):
        # Theorem 39 with l = 1: O(1) rounds regardless of n.
        rounds = []
        for n in (40, 160, 640):
            s = random_hole_free(n, seed=1)
            nodes = sorted(s.nodes)
            engine = CircuitEngine(s)
            shortest_path_tree(engine, s, nodes[0], [nodes[-1]])
            rounds.append(engine.rounds.total)
        assert max(rounds) - min(rounds) <= 10

    def test_spt_rounds_grow_logarithmically_in_l(self):
        s = random_hole_free(400, seed=2)
        nodes = sorted(s.nodes)
        rng = random.Random(3)
        rounds = {}
        for l in (1, 4, 16, 64, 256):
            dests = rng.sample(nodes, l)
            engine = CircuitEngine(s)
            shortest_path_tree(engine, s, nodes[0], dests)
            rounds[l] = engine.rounds.total
        # Growth must be logarithmic: a bounded number of extra rounds
        # per doubling of l (the four root-and-prune passes each add at
        # most a PASC iteration, i.e. two rounds, per extra bit).
        doublings = 8  # 1 -> 256
        assert rounds[256] <= rounds[1] + 10 * doublings
        # And nowhere near linear: l grew by 255, rounds by a sliver.
        assert rounds[256] - rounds[1] < 256 / 2

    def test_line_spsp_beats_diameter(self):
        # The whole point of circuits: distance 199 in ~constant rounds.
        s = line_structure(200)
        engine = CircuitEngine(s)
        shortest_path_tree(engine, s, Node(0, 0), [Node(199, 0)])
        assert engine.rounds.total < 60
