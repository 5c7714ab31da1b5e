"""Tests for error handling and less-traveled code paths."""

import pytest

from repro.grid.coords import Node
from repro.grid.directions import Direction
from repro.grid.structure import AmoebotStructure
from repro.metrics.rounds import RoundCounter
from repro.sim.engine import CircuitEngine
from repro.sim.errors import PinConfigurationError
from repro.spf.types import Forest
from repro.workloads import hexagon, line_structure
from tests.conftest import edge_ids


class TestEngineEdgeCases:
    def test_edge_subset_layout_rejects_non_adjacent(self):
        s = line_structure(4)
        engine = CircuitEngine(s)
        # The edge from (0, 0) toward NE leads to no amoebot.
        edge = s.grid_index().id_of(Node(0, 0)) * 6 + Direction.NE
        with pytest.raises(PinConfigurationError, match="no neighbor toward NE"):
            engine.edge_subset_layout([edge])

    def test_edge_subset_layout_without_isolated(self):
        s = line_structure(4)
        engine = CircuitEngine(s)
        layout = engine.edge_subset_layout(
            edge_ids(s, [(Node(0, 0), Node(1, 0))]), isolated_ok=False
        )
        sets = layout.partition_sets()
        assert (Node(3, 0), "net") not in sets

    def test_charge_local_round_negative_rejected(self):
        engine = CircuitEngine(line_structure(2))
        with pytest.raises(ValueError):
            engine.charge_local_round(-1)


class TestParallelGroupExceptions:
    def test_exception_skips_group_charge(self):
        counter = RoundCounter()
        with pytest.raises(RuntimeError):
            with counter.parallel() as group:
                with group.branch():
                    counter.tick(5)
                raise RuntimeError("boom")
        # The failed group does not charge its max.
        assert counter.total == 0

    def test_branch_exception_propagates(self):
        counter = RoundCounter()
        with pytest.raises(ValueError):
            with counter.parallel() as group:
                with group.branch():
                    raise ValueError("inner")


class TestForestEdgeCases:
    def test_multi_source_tree_maps(self):
        a, b, c, d = (Node(i, 0) for i in range(4))
        forest = Forest({a, d}, {b: a, c: d}, {a, b, c, d})
        trees = forest.tree_parent_maps()
        assert trees[a] == {b: a}
        assert trees[d] == {c: d}

    def test_depth_of_source_zero(self):
        a, b = Node(0, 0), Node(1, 0)
        forest = Forest({a}, {b: a}, {a, b})
        assert forest.depth_of(a) == 0

    def test_iteration_yields_members(self):
        a, b = Node(0, 0), Node(1, 0)
        forest = Forest({a}, {b: a}, {a, b})
        assert set(iter(forest)) == {a, b}

    def test_parent_outside_members_rejected(self):
        a, b = Node(0, 0), Node(1, 0)
        with pytest.raises(ValueError):
            Forest({a}, {b: Node(5, 5)}, {a, b}).restricted_to({a, b})


class TestStructureValidationMessages:
    def test_structure_error_mentions_connectivity(self):
        with pytest.raises(Exception, match="connected"):
            AmoebotStructure([Node(0, 0), Node(3, 3)])

    def test_structure_error_mentions_holes(self):
        ring = [n for n in hexagon(1).nodes if n != Node(0, 0)]
        with pytest.raises(Exception, match="hole"):
            AmoebotStructure(ring)
