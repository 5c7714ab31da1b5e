"""Tests for portal_sides and its use as propagation input."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.directions import Axis
from repro.grid.structure import AmoebotStructure
from repro.portals import PortalSystem, portal_sides
from repro.sim.engine import CircuitEngine
from repro.spf.propagate import propagate_forest
from repro.spf.spt import shortest_path_tree
from repro.verify import assert_valid_forest
from repro.workloads import hexagon, random_hole_free


def longest_portal(system):
    """The number of the system's first longest portal."""
    return max(range(system.portal_count()), key=lambda k: len(system.runs[k]))


class TestPortalSides:
    def test_sides_partition_with_portal_in_a(self):
        s = hexagon(3)
        system = PortalSystem(s, Axis.X)
        portal = longest_portal(system)
        a, b = portal_sides(system, portal)
        assert a | b == set(s.nodes)
        assert not a & b
        assert set(system.portal_nodes(portal)) <= a

    def test_every_a_to_b_path_crosses_the_portal(self):
        s = random_hole_free(80, seed=600)
        system = PortalSystem(s, Axis.X)
        portal = longest_portal(system)
        a, b = portal_sides(system, portal)
        # Remove the portal: no edge may join A \ P to B.
        portal_set = set(system.portal_nodes(portal))
        for u in a - portal_set:
            for v in s.neighbors(u):
                assert v not in b or v in portal_set

    @pytest.mark.parametrize("axis", list(Axis))
    def test_works_for_every_axis(self, axis):
        s = hexagon(2)
        system = PortalSystem(s, axis)
        portal = longest_portal(system)
        a, b = portal_sides(system, portal)
        assert a | b == set(s.nodes)

    def test_boundary_portal_one_empty_side(self):
        s = hexagon(2)
        system = PortalSystem(s, Axis.X)
        top = max(range(system.portal_count()), key=lambda k: system.portal_nodes(k)[0].y)
        _a, b = portal_sides(system, top)
        assert b == set()


class TestPropagationViaPortalSides:
    @given(st.integers(min_value=0, max_value=2**14))
    @settings(max_examples=10, deadline=None)
    def test_propagation_property(self, seed):
        rng = random.Random(seed)
        s = random_hole_free(rng.randint(25, 90), seed=seed)
        system = PortalSystem(s, Axis.X)
        portal = longest_portal(system)
        a, b = portal_sides(system, portal)
        if not b:
            return  # nothing to propagate into
        source = rng.choice(sorted(a))
        a_struct = AmoebotStructure(a, require_hole_free=False)
        engine = CircuitEngine(s)
        base = shortest_path_tree(engine, a_struct, source, a).forest
        full = propagate_forest(engine, s, list(system.portal_nodes(portal)), base)
        assert_valid_forest(s, [source], sorted(s.nodes), full.parent)
