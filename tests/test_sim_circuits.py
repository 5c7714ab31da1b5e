"""Tests for pin configurations, partition sets, and circuits."""

import pytest

from repro.grid.coords import Node
from repro.grid.directions import Direction
from repro.sim.circuits import CircuitLayout
from repro.sim.errors import PinConfigurationError
from repro.sim.pins import Pin
from repro.workloads import hexagon, line_structure, parallelogram
from tests.node_oracles import assign


class TestPin:
    def test_mate_roundtrip(self):
        pin = Pin(Node(0, 0), Direction.E, 1)
        mate = pin.mate()
        assert mate.node == Node(1, 0)
        assert mate.direction == Direction.W
        assert mate.channel == 1
        assert mate.mate() == pin


class TestLayoutValidation:
    def test_channel_out_of_range(self):
        s = line_structure(2)
        layout = CircuitLayout(s, channels=2)
        with pytest.raises(PinConfigurationError):
            assign(layout, Node(0, 0), "a", [(Direction.E, 5)])

    def test_pin_toward_unoccupied_neighbor(self):
        s = line_structure(2)
        layout = CircuitLayout(s, channels=2)
        with pytest.raises(PinConfigurationError):
            assign(layout, Node(0, 0), "a", [(Direction.NE, 0)])

    def test_node_outside_structure(self):
        s = line_structure(2)
        layout = CircuitLayout(s, channels=2)
        with pytest.raises(PinConfigurationError):
            assign(layout, Node(7, 7), "a", [])

    def test_pin_in_two_partition_sets(self):
        s = line_structure(2)
        layout = CircuitLayout(s, channels=2)
        assign(layout, Node(0, 0), "a", [(Direction.E, 0)])
        with pytest.raises(PinConfigurationError):
            assign(layout, Node(0, 0), "b", [(Direction.E, 0)])

    def test_repeated_assign_same_label_ok(self):
        s = line_structure(3)
        layout = CircuitLayout(s, channels=2)
        assign(layout, Node(1, 0), "a", [(Direction.E, 0)])
        assign(layout, Node(1, 0), "a", [(Direction.W, 0)])
        layout.freeze()
        assert (Node(1, 0), "a") in layout.partition_sets()

    def test_assign_after_freeze_rejected(self):
        s = line_structure(2)
        layout = CircuitLayout(s, channels=2)
        layout.freeze()
        with pytest.raises(PinConfigurationError):
            assign(layout, Node(0, 0), "x", ())

    def test_zero_channels_rejected(self):
        with pytest.raises(PinConfigurationError):
            CircuitLayout(line_structure(2), channels=0)


class TestCircuitFormation:
    def test_single_wire_chain(self):
        s = line_structure(4)
        layout = CircuitLayout(s, channels=1)
        for u in s:
            pins = [(d, 0) for d in s.occupied_directions(u)]
            assign(layout, u, "wire", pins)
        circuits = layout.circuits()
        assert len(circuits) == 1
        assert len(circuits[0]) == 4

    def test_singleton_sets_make_pairwise_circuits(self):
        # "If each partition set is a singleton, every circuit just
        # connects two neighboring amoebots" (Section 1.2).
        s = line_structure(3)
        layout = CircuitLayout(s, channels=1)
        for u in s:
            for d in s.occupied_directions(u):
                assign(layout, u, f"p{d.name}", [(d, 0)])
        circuits = layout.circuits()
        assert all(len(c) == 2 for c in circuits)
        assert len(circuits) == 2

    def test_cut_in_the_middle(self):
        s = line_structure(5)
        layout = CircuitLayout(s, channels=1)
        for u in s:
            if u == Node(2, 0):
                # The middle amoebot splits its pins into two sets.
                assign(layout, u, "west", [(Direction.W, 0)])
                assign(layout, u, "east", [(Direction.E, 0)])
            else:
                assign(layout, u, "wire", [(d, 0) for d in s.occupied_directions(u)])
        assert len(layout.circuits()) == 2

    def test_disjoint_channels_make_disjoint_circuits(self):
        s = line_structure(3)
        layout = CircuitLayout(s, channels=2)
        for u in s:
            assign(layout, u, "c0", [(d, 0) for d in s.occupied_directions(u)])
            assign(layout, u, "c1", [(d, 1) for d in s.occupied_directions(u)])
        circuits = layout.circuits()
        assert len(circuits) == 2
        assert layout.circuit_of(Node(0, 0), "c0") != layout.circuit_of(Node(0, 0), "c1")

    def test_unassigned_pins_are_inert(self):
        # Partially wired structures: pins never assigned do not join
        # circuits, so isolated partition sets stay isolated.
        s = parallelogram(3, 2)
        layout = CircuitLayout(s, channels=1)
        assign(layout, Node(0, 0), "solo", [(Direction.E, 0)])
        assign(layout, Node(2, 1), "flag", ())
        circuits = layout.circuits()
        assert len(circuits) == 2

    def test_circuit_of_undeclared_raises(self):
        s = line_structure(2)
        layout = CircuitLayout(s, channels=1)
        layout.freeze()
        with pytest.raises(PinConfigurationError):
            layout.circuit_of(Node(0, 0), "nope")

    def test_component_map_consistent_with_circuits(self):
        s = hexagon(2)
        layout = CircuitLayout(s, channels=1)
        for u in s:
            assign(layout, u, "g", [(d, 0) for d in s.occupied_directions(u)])
        component_map = layout.component_map()
        circuits = layout.circuits()
        for index, members in enumerate(circuits):
            for set_id in members:
                assert component_map[set_id] == index
