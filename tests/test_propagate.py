"""Tests for the propagation algorithm (§5.3, Lemma 50)."""


import pytest

from repro.grid.coords import Node
from repro.grid.directions import Axis
from repro.grid.structure import AmoebotStructure
from repro.sim.engine import CircuitEngine
from repro.spf.line import line_forest
from repro.spf.propagate import propagate_forest
from repro.spf.spt import shortest_path_tree
from repro.verify import assert_valid_forest
from repro.workloads import hexagon, parallelogram, random_hole_free, staircase


def forest_on(structure, nodes, sources, engine):
    """An S-forest covering exactly ``nodes`` (a sub-structure)."""
    sub = AmoebotStructure(nodes, require_hole_free=False)
    if len(sources) == 1:
        return shortest_path_tree(engine, sub, sources[0], nodes).forest
    raise NotImplementedError


def split_at_row(structure, y):
    """Portal run at row y plus the half-structures it separates."""
    row = sorted(u for u in structure.nodes if u.y == y)
    below = {u for u in structure.nodes if u.y <= y}
    return row, below


class TestPropagationFromInteriorPortal:
    @pytest.mark.parametrize("y", [-2, 0, 2])
    def test_hexagon_split(self, y):
        s = hexagon(4)
        row, below = split_at_row(s, y)
        engine = CircuitEngine(s)
        source = row[0]
        base = forest_on(s, below, [source], engine)
        full = propagate_forest(engine, s, row, base)
        assert full.members == set(s.nodes)
        assert_valid_forest(s, [source], sorted(s.nodes), full.parent)

    def test_source_not_on_portal(self):
        s = hexagon(3)
        row, below = split_at_row(s, 0)
        corner = min(below)
        engine = CircuitEngine(s)
        base = forest_on(s, below, [corner], engine)
        full = propagate_forest(engine, s, row, base)
        assert_valid_forest(s, [corner], sorted(s.nodes), full.parent)

    def test_multi_source_forest_propagates(self):
        s = parallelogram(8, 5)
        row = sorted(u for u in s.nodes if u.y == 0)
        engine = CircuitEngine(s)
        base = line_forest(engine, row, [row[0], row[7]])
        full = propagate_forest(engine, s, row, base)
        assert_valid_forest(s, [row[0], row[7]], sorted(s.nodes), full.parent)


class TestBoundaryPortal:
    def test_propagate_from_bottom_row(self):
        # A empty: the forest initially covers only the portal itself.
        s = parallelogram(6, 4)
        row = sorted(u for u in s.nodes if u.y == 0)
        engine = CircuitEngine(s)
        base = line_forest(engine, row, [row[2]])
        full = propagate_forest(engine, s, row, base)
        assert_valid_forest(s, [row[2]], sorted(s.nodes), full.parent)

    def test_nothing_to_propagate(self):
        s = parallelogram(4, 1)
        row = sorted(s.nodes)
        engine = CircuitEngine(s)
        base = line_forest(engine, row, [row[0]])
        result = propagate_forest(engine, s, row, base)
        assert result.members == set(s.nodes)


class TestShadowRegions:
    def test_staircase_has_shadows_and_still_works(self):
        # Staircases guarantee B'' components (steps shadow each other).
        s = staircase(5, 3)
        row = sorted(u for u in s.nodes if u.y == 0)
        engine = CircuitEngine(s)
        base = line_forest(engine, row, [row[0]])
        full = propagate_forest(engine, s, row, base)
        assert_valid_forest(s, [row[0]], sorted(s.nodes), full.parent)

    def test_random_structures(self):
        for seed in range(6):
            s = random_hole_free(90, seed=seed)
            from repro.portals.portals import PortalSystem

            system = PortalSystem(s, Axis.X)
            longest = max(range(system.portal_count()), key=lambda k: len(system.runs[k]))
            portal = system.portal_nodes(longest)
            members = _a_union_p(s, portal)
            if members == set(s.nodes):
                continue  # this portal has only one side; nothing to do
            engine = CircuitEngine(s)
            base = forest_on(s, members, [portal[0]], engine)
            full = propagate_forest(engine, s, list(portal), base)
            assert full.members == set(s.nodes)
            assert_valid_forest(s, [portal[0]], sorted(s.nodes), full.parent)

    def test_dendrite_structures(self):
        for seed in (3, 4):
            s = random_hole_free(70, seed=seed, compactness=0.05)
            from repro.portals.portals import PortalSystem

            system = PortalSystem(s, Axis.X)
            longest = max(range(system.portal_count()), key=lambda k: len(system.runs[k]))
            portal = system.portal_nodes(longest)
            members = _a_union_p(s, portal)
            if members == set(s.nodes):
                continue
            engine = CircuitEngine(s)
            base = forest_on(s, members, [portal[0]], engine)
            full = propagate_forest(engine, s, list(portal), base)
            assert_valid_forest(s, [portal[0]], sorted(s.nodes), full.parent)


class TestValidation:
    def test_portal_not_covered_rejected(self):
        s = parallelogram(4, 2)
        row = sorted(u for u in s.nodes if u.y == 0)
        engine = CircuitEngine(s)
        base = line_forest(engine, row[:2], [row[0]])
        with pytest.raises(ValueError):
            propagate_forest(engine, s, row, base)

    def test_portal_off_line_rejected(self):
        s = parallelogram(4, 2)
        engine = CircuitEngine(s)
        base = line_forest(engine, sorted(u for u in s.nodes if u.y == 0), [Node(0, 0)])
        with pytest.raises(ValueError):
            propagate_forest(engine, s, [Node(0, 0), Node(0, 1)], base)

    def test_empty_portal_rejected(self):
        s = parallelogram(4, 2)
        engine = CircuitEngine(s)
        base = line_forest(engine, sorted(u for u in s.nodes if u.y == 0), [Node(0, 0)])
        with pytest.raises(ValueError):
            propagate_forest(engine, s, [], base)


def _component_containing(structure, nodes, start):
    component = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in structure.neighbors(u):
            if v in nodes and v not in component:
                component.add(v)
                stack.append(v)
    return component


def _a_union_p(structure, portal):
    """A valid "A ∪ P" for propagation: whole components of X \\ P.

    B must be a union of connected components of the structure minus the
    portal (Lemma 13); we take B = the components that lie north of the
    portal at their point of contact, A = everything else.
    """
    portal_set = set(portal)
    rest = set(structure.nodes) - portal_set
    members = set(portal_set)
    while rest:
        start = next(iter(rest))
        component = _component_containing(structure, rest, start)
        rest -= component
        touches_north = any(
            v in component
            for p in portal_set
            for v in structure.neighbors(p)
            if v.y > p.y
        )
        if not touches_north:
            members |= component
    return members


class TestVisibilityRound:
    def test_one_circuit_per_transversal_portal(self, monkeypatch):
        """Phase 1's round runs on the Y and Z portal circuits, kept apart."""
        from repro.portals.portals import PortalSystem

        s = hexagon(4)
        row, below = split_at_row(s, 0)
        engine = CircuitEngine(s)
        base = forest_on(s, below, [row[0]], engine)
        layouts = []
        run_round = engine.run_round_indexed

        def spy(layout, beeps, listen=None):
            layouts.append(layout)
            return run_round(layout, beeps, listen)

        monkeypatch.setattr(engine, "run_round_indexed", spy)
        propagate_forest(engine, s, row, base, axis=Axis.X)
        vis = [
            layout for layout in layouts
            if any(label.startswith("vis") for _, label in layout.compiled().index.ids)
        ]
        assert len(vis) == 1
        portals = sum(PortalSystem(s, d).portal_count() for d in Axis.X.others)
        assert vis[0].compiled().n_components == portals
