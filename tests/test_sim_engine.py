"""Tests for synchronous beep-round execution."""

import pytest

from repro.grid.coords import Node
from repro.sim.engine import CircuitEngine
from repro.sim.errors import PinConfigurationError
from repro.workloads import hexagon, line_structure, parallelogram
from tests.conftest import edge_ids
from repro.sim.amoebot import LocalState, assert_constant_size
from tests.node_oracles import assign, run_round


class TestGlobalCircuit:
    def test_everyone_hears_one_beep(self):
        s = hexagon(2)
        engine = CircuitEngine(s)
        layout = engine.global_layout()
        received = run_round(engine, layout, [(Node(0, 0), "global")])
        assert all(received.values())
        assert len(received) == len(s)

    def test_silence_is_heard_as_silence(self):
        s = hexagon(1)
        engine = CircuitEngine(s)
        layout = engine.global_layout()
        received = run_round(engine, layout, [])
        assert not any(received.values())

    def test_multiple_beeps_indistinguishable(self):
        # Amoebots learn *that* someone beeped, not how many.
        s = line_structure(5)
        engine = CircuitEngine(s)
        layout = engine.global_layout()
        one = run_round(engine, layout, [(Node(0, 0), "global")])
        many = run_round(engine, layout, [(Node(i, 0), "global") for i in range(5)])
        assert one == many


class TestRoundAccounting:
    def test_each_round_ticks_once(self):
        s = line_structure(3)
        engine = CircuitEngine(s)
        layout = engine.global_layout()
        for expected in range(1, 4):
            run_round(engine, layout, [])
            assert engine.rounds.total == expected

    def test_charge_local_round(self):
        engine = CircuitEngine(line_structure(2))
        engine.charge_local_round(3)
        assert engine.rounds.total == 3

    def test_shared_counter(self):
        from repro.metrics.rounds import RoundCounter

        counter = RoundCounter()
        engine = CircuitEngine(line_structure(2), counter=counter)
        run_round(engine, engine.global_layout(), [])
        assert counter.total == 1


class TestEdgeSubsetLayout:
    def test_components_of_edge_subset(self):
        s = line_structure(6)
        engine = CircuitEngine(s)
        edges = [
            (Node(0, 0), Node(1, 0)),
            (Node(1, 0), Node(2, 0)),
            (Node(4, 0), Node(5, 0)),
        ]
        layout = engine.edge_subset_layout(edge_ids(s, edges), label="net")
        listen = [(Node(x, 0), "net") for x in range(6)]
        received = run_round(engine, layout, [(Node(0, 0), "net")], listen)
        assert received[(Node(2, 0), "net")]
        assert not received[(Node(4, 0), "net")]
        # Isolated amoebot (3, 0) declares no set: its key is a silent
        # singleton circuit.
        assert (Node(3, 0), "net") not in layout.partition_sets()
        assert not received[(Node(3, 0), "net")]

    def test_undeclared_key_hears_only_its_own_beep(self):
        # Only (0, 0) and (1, 0) are touched: (2, 0) .. (5, 0) declare no
        # set, and each key of theirs is a circuit of its own.
        s = line_structure(6)
        engine = CircuitEngine(s)
        layout = engine.edge_subset_layout(edge_ids(s, [(Node(0, 0), Node(1, 0))]), label="net")
        assert len(layout.compiled().index) == 2
        listen = [(Node(x, 0), "net") for x in range(6)]
        for beeper in range(6):
            received = run_round(engine, layout, [(Node(beeper, 0), "net")], listen)
            want = {(Node(x, 0), "net"): x == beeper or x + beeper == 1 for x in range(6)}
            assert received == want
        silent = run_round(engine, layout, [], listen)
        assert not any(silent.values())
        both = run_round(engine, layout, [(Node(2, 0), "net"), (Node(4, 0), "net")], listen)
        assert [both[key] for key in listen] == [False, False, True, False, True, False]

    def test_beeping_on_undeclared_set_raises(self):
        s = line_structure(3)
        engine = CircuitEngine(s)
        layout = engine.global_layout()
        with pytest.raises(PinConfigurationError):
            run_round(engine, layout, [(Node(0, 0), "missing")])


class TestBeepSemantics:
    def test_beep_reaches_exactly_its_circuit(self):
        s = parallelogram(4, 2)
        engine = CircuitEngine(s)
        top = [u for u in s if u.y == 1]
        bottom = [u for u in s if u.y == 0]
        layout = engine.new_layout()
        for row, label in ((top, "top"), (bottom, "bottom")):
            row_set = set(row)
            for u in row:
                pins = [
                    (d, 0)
                    for d in s.occupied_directions(u)
                    if u.neighbor(d) in row_set
                ]
                assign(layout, u, label, pins)
        received = run_round(engine, layout, [(top[0], "top")])
        assert all(received[(u, "top")] for u in top)
        assert not any(received[(u, "bottom")] for u in bottom)

    def test_sender_hears_its_own_beep(self):
        s = line_structure(2)
        engine = CircuitEngine(s)
        layout = engine.global_layout()
        received = run_round(engine, layout, [(Node(0, 0), "global")])
        assert received[(Node(0, 0), "global")]


class TestLocalState:
    def test_constant_size_passes(self):
        states = {i: LocalState() for i in range(5)}
        assert_constant_size(states)

    def test_oversized_state_detected(self):
        import dataclasses

        @dataclasses.dataclass
        class Big(LocalState):
            blob: tuple = tuple(range(1000))

        with pytest.raises(AssertionError):
            assert_constant_size({0: Big()})
