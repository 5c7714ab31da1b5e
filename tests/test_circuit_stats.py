"""Tests for layout statistics (and the Remark 16 channel budget)."""

from repro.metrics.circuit_stats import layout_stats
from repro.sim.engine import CircuitEngine
from repro.workloads import hexagon, line_structure, random_hole_free
from tests.conftest import bfs_tree_adjacency, node_chain, node_tour


class TestLayoutStats:
    def test_global_circuit_stats(self):
        s = hexagon(2)
        engine = CircuitEngine(s)
        stats = layout_stats(engine.global_layout())
        assert stats.circuits == 1
        assert stats.partition_sets == len(s)
        assert stats.largest_circuit == len(s)
        assert stats.max_channels_per_edge == 1

    def test_singleton_configuration(self):
        s = line_structure(4)
        engine = CircuitEngine(s)
        layout = engine.new_layout()
        for u in s:
            for d in s.occupied_directions(u):
                layout.assign(u, f"p{d.name}", [(d, 0)])
        stats = layout_stats(layout)
        assert stats.circuits == 3  # one per edge
        assert stats.largest_circuit == 2
        assert stats.singleton_circuits == 0

    def test_pasc_chain_uses_two_channels(self):
        s = line_structure(8)
        nodes = sorted(s.nodes)
        engine = CircuitEngine(s)
        run = node_chain(s, nodes)
        layout = engine.new_layout()
        run.contribute_layout(layout)
        stats = layout_stats(layout)
        assert stats.max_channels_per_edge == 2  # primary + secondary

    def test_ett_respects_constant_channel_budget(self):
        # Remark 16 in circuit terms: the tour needs at most 4 channels
        # per physical edge (two directions x primary/secondary).
        s = random_hole_free(60, seed=500)
        root = s.westernmost()
        adjacency, _ = bfs_tree_adjacency(s, root)
        from repro.ett import ETTOp, mark_one_outgoing_edge

        tour = node_tour(s, root, adjacency)
        op = ETTOp(tour, mark_one_outgoing_edge(tour, [tour.root_id]))
        engine = CircuitEngine(s)
        layout = engine.new_layout()
        op.chain.contribute_layout(layout)
        stats = layout_stats(layout)
        assert stats.max_channels_per_edge <= 4
