"""Tests for the round tracing subsystem."""

from repro.grid.coords import Node
from repro.sim.engine import CircuitEngine
from repro.sim.trace import RoundTrace, attach_trace
from repro.spf.spt import shortest_path_tree
from repro.workloads import hexagon, line_structure
from tests.node_oracles import assign, run_round


class TestTraceRecording:
    def test_records_every_round(self):
        s = line_structure(5)
        engine = CircuitEngine(s)
        trace = attach_trace(engine)
        layout = engine.global_layout()
        run_round(engine, layout, [(Node(0, 0), "global")])
        run_round(engine, layout, [])
        engine.charge_local_round(2)
        assert len(trace) == 4
        assert trace.beep_rounds() == 2
        assert trace.summary()["local_rounds"] == 2

    def test_trace_matches_round_counter(self):
        s = hexagon(2)
        engine = CircuitEngine(s)
        trace = attach_trace(engine)
        nodes = sorted(s.nodes)
        shortest_path_tree(engine, s, nodes[0], [nodes[-1]])
        assert len(trace) == engine.rounds.total

    def test_beep_counts(self):
        s = line_structure(4)
        engine = CircuitEngine(s)
        trace = attach_trace(engine)
        layout = engine.global_layout()
        run_round(engine, layout, [(Node(0, 0), "global"), (Node(1, 0), "global")])
        record = trace.records[0]
        assert record.beeping_sets == 2
        assert record.hearing_sets == 4  # everyone on the global circuit
        assert record.circuits == 1

    def test_edge_subset_counts_undeclared_sets(self):
        # Only (0, 0) and (1, 0) declare a set of "net"; the other four
        # amoebots' pinless sets still count, each as its own circuit.
        s = line_structure(6)
        engine = CircuitEngine(s)
        trace = attach_trace(engine)
        gi = s.grid_index()
        layout = engine.edge_subset_layout([gi.id_of(Node(0, 0)) * 6], label="net")
        run_round(engine, layout, [(Node(0, 0), "net"), (Node(3, 0), "net")])
        record = trace.records[0]
        assert len(layout.compiled().index) == 2
        assert (record.partition_sets, record.circuits) == (6, 5)
        assert (record.beeping_sets, record.hearing_sets) == (2, 3)

    def test_silent_rounds_counted(self):
        s = line_structure(3)
        engine = CircuitEngine(s)
        trace = attach_trace(engine)
        layout = engine.global_layout()
        run_round(engine, layout, [])
        assert trace.silent_rounds() == 1

    def test_json_roundtrip(self):
        s = line_structure(3)
        engine = CircuitEngine(s)
        trace = attach_trace(engine)
        run_round(engine, engine.global_layout(), [(Node(0, 0), "global")])
        restored = RoundTrace.from_json(trace.to_json())
        assert restored.records == trace.records

    def test_max_circuits(self):
        s = line_structure(4)
        engine = CircuitEngine(s)
        trace = attach_trace(engine)
        layout = engine.new_layout()
        for u in s:
            for d in s.occupied_directions(u):
                assign(layout, u, f"p{d.name}", [(d, 0)])
        run_round(engine, layout, [])
        assert trace.max_circuits() == 3


class TestTraceOnAlgorithms:
    def test_spt_trace_shape(self):
        # The SPT algorithm alternates PASC beep rounds with O(1)
        # bookkeeping; the trace exposes that structure.
        s = hexagon(3)
        engine = CircuitEngine(s)
        trace = attach_trace(engine)
        nodes = sorted(s.nodes)
        shortest_path_tree(engine, s, nodes[0], nodes[-4:])
        summary = trace.summary()
        assert summary["beep_rounds"] > summary["local_rounds"]
        # PASC wires the whole tour into a handful of long circuits.
        assert summary["max_circuits"] >= 2
