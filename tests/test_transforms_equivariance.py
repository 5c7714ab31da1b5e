"""Symmetry tests: transforms themselves, plus algorithm equivariance.

Rotating or translating the whole input must rotate/translate the
output forest and leave the *distances* and round counts untouched —
the strongest available smoke test against direction-convention bugs
in the portal machinery.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.grid.coords import Node, grid_distance
from repro.grid.transforms import (
    reflect_x_axis,
    rotate60,
    transform_parent_map,
    transform_structure,
    translate,
)
from repro.sim.engine import CircuitEngine
from repro.spf.spt import shortest_path_tree
from repro.spf.forest import shortest_path_forest
from repro.verify import assert_valid_forest
from repro.workloads import hexagon, random_hole_free

coords = st.integers(min_value=-30, max_value=30)
nodes = st.builds(Node, coords, coords)


class TestTransformAlgebra:
    @given(nodes)
    def test_rotation_has_order_six(self, u):
        assert rotate60(6)(u) == u

    @given(nodes, nodes)
    def test_rotation_preserves_distance(self, u, v):
        r = rotate60(1)
        assert grid_distance(r(u), r(v)) == grid_distance(u, v)

    @given(nodes, nodes)
    def test_reflection_preserves_distance(self, u, v):
        m = reflect_x_axis()
        assert grid_distance(m(u), m(v)) == grid_distance(u, v)

    @given(nodes)
    def test_reflection_is_involution(self, u):
        m = reflect_x_axis()
        assert m(m(u)) == u

    @given(nodes, nodes)
    def test_rotation_preserves_adjacency(self, u, v):
        r = rotate60(2)
        assert u.is_adjacent(v) == r(u).is_adjacent(r(v))

    def test_transform_structure_preserves_size(self):
        s = hexagon(2)
        t = transform_structure(s, rotate60(1))
        assert len(t) == len(s)


class TestAlgorithmEquivariance:
    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_spt_rounds_invariant_under_rotation(self, steps):
        s = random_hole_free(80, seed=400)
        nodes_sorted = sorted(s.nodes)
        source, dest = nodes_sorted[0], nodes_sorted[-1]
        engine = CircuitEngine(s)
        base = shortest_path_tree(engine, s, source, [dest])
        base_rounds = engine.rounds.total

        r = rotate60(steps)
        rotated = transform_structure(s, r)
        engine2 = CircuitEngine(rotated)
        result = shortest_path_tree(engine2, rotated, r(source), [r(dest)])
        assert engine2.rounds.total == base_rounds
        # Distances are preserved (tree shape may differ by tie-breaks).
        assert len(result.path_from(r(dest))) == len(base.path_from(dest))

    def test_spt_invariant_under_translation(self):
        s = random_hole_free(70, seed=401)
        nodes_sorted = sorted(s.nodes)
        source, dest = nodes_sorted[0], nodes_sorted[-1]
        t = translate(17, -9)
        moved = transform_structure(s, t)
        a = shortest_path_tree(CircuitEngine(s), s, source, [dest])
        b = shortest_path_tree(CircuitEngine(moved), moved, t(source), [t(dest)])
        # Exact equivariance for translations (no tie-break asymmetry).
        assert transform_parent_map(a.forest.parent, t) == b.forest.parent

    def test_forest_valid_after_rotation(self):
        s = random_hole_free(70, seed=402)
        rng = random.Random(1)
        sources = rng.sample(sorted(s.nodes), 3)
        r = rotate60(1)
        rotated = transform_structure(s, r)
        rotated_sources = [r(u) for u in sources]
        forest = shortest_path_forest(CircuitEngine(rotated), rotated, rotated_sources)
        assert_valid_forest(
            rotated, rotated_sources, sorted(rotated.nodes), forest.parent
        )

    def test_forest_valid_after_reflection(self):
        s = random_hole_free(60, seed=403)
        rng = random.Random(2)
        sources = rng.sample(sorted(s.nodes), 3)
        m = reflect_x_axis()
        mirrored = transform_structure(s, m)
        mirrored_sources = [m(u) for u in sources]
        forest = shortest_path_forest(
            CircuitEngine(mirrored), mirrored, mirrored_sources
        )
        assert_valid_forest(
            mirrored, mirrored_sources, sorted(mirrored.nodes), forest.parent
        )
