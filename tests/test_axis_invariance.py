"""Axis-choice ablation (the axis rows of ``benchmarks/bench_ablations.py``).

The divide & conquer algorithm splits along one axis's portals; the
paper picks it arbitrarily.  Correctness must hold for all three axes,
and the round costs must stay in the same ballpark.
"""

import random

import pytest

from repro.grid.directions import Axis
from repro.sim.engine import CircuitEngine
from repro.spf.forest import shortest_path_forest
from repro.spf.propagate import propagate_forest
from repro.spf.line import line_forest
from repro.verify import assert_valid_forest
from repro.workloads import hexagon, random_hole_free, spread_nodes


class TestForestAxisChoice:
    @pytest.mark.parametrize("axis", list(Axis))
    def test_valid_on_every_axis(self, axis):
        s = random_hole_free(100, seed=92)
        sources = spread_nodes(s, 4)
        engine = CircuitEngine(s)
        forest = shortest_path_forest(engine, s, sources, axis=axis)
        assert_valid_forest(s, sources, sorted(s.nodes), forest.parent)

    def test_round_costs_comparable(self):
        s = random_hole_free(120, seed=93)
        sources = spread_nodes(s, 5)
        rounds = {}
        for axis in Axis:
            engine = CircuitEngine(s)
            shortest_path_forest(engine, s, sources, axis=axis)
            rounds[axis] = engine.rounds.total
        assert max(rounds.values()) <= 2 * min(rounds.values())

    @pytest.mark.parametrize("axis", list(Axis))
    def test_dendrite_every_axis(self, axis):
        s = random_hole_free(70, seed=94, compactness=0.05)
        rng = random.Random(0)
        sources = rng.sample(sorted(s.nodes), 3)
        engine = CircuitEngine(s)
        forest = shortest_path_forest(engine, s, sources, axis=axis)
        assert_valid_forest(s, sources, sorted(s.nodes), forest.parent)


class TestPropagationAxisChoice:
    @pytest.mark.parametrize("axis", list(Axis))
    def test_propagate_along_each_axis(self, axis):
        s = hexagon(3)
        # The portal through the center along the chosen axis.
        center = sorted(s.nodes)[len(s) // 2]
        from repro.portals.portals import PortalSystem

        system = PortalSystem(s, axis)
        portal = system.portal_of[center]
        # A = the components of X \ P that touch P from the "negative"
        # side; on a convex hexagon each side is one component, so we
        # use the complement-of-one-side helper from the checker tests.
        nodes = list(system.portal_nodes(portal))
        coord = nodes[0].axis_coordinate(axis)
        members = {
            u for u in s.nodes if u.axis_coordinate(axis) >= coord
        }  # convex: coordinate sides are genuine sides
        engine = CircuitEngine(s)
        base_chain = nodes
        forest = line_forest(engine, base_chain, [base_chain[0]])

        # Extend the line forest over the whole A side first via
        # propagation restricted to A (members == portal for that call).
        from repro.grid.structure import AmoebotStructure

        a_struct = AmoebotStructure(members, require_hole_free=False)
        a_forest = propagate_forest(engine, a_struct, nodes, forest, axis=axis)
        full = propagate_forest(engine, s, nodes, a_forest, axis=axis)
        assert_valid_forest(s, [base_chain[0]], sorted(s.nodes), full.parent)
