"""Tests for the PASC algorithm: chains, weights, trees, parallelism.

These validate Lemmas 3-4 and Corollaries 5-6 of the paper on the
faithful circuit simulator.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.coords import Node
from repro.grid.directions import Direction
from repro.ett.technique import ETT_CHANNELS
from repro.pasc.chain import PascChainRun
from repro.pasc.runner import run_pasc
from repro.pasc.tree import PascTreeRun
from repro.sim.engine import CircuitEngine
from repro.workloads import line_structure
from tests.conftest import bfs_tree_adjacency, node_chain
from tests.node_oracles import run_round


def line_nodes(length):
    return [Node(i, 0) for i in range(length)]


class TestChainDistance:
    @pytest.mark.parametrize("length", [1, 2, 3, 5, 8, 16, 17, 33])
    def test_every_amoebot_learns_its_index(self, length):
        s = line_structure(length)
        nodes = line_nodes(length)
        engine = CircuitEngine(s)
        run = node_chain(s, nodes)
        run_pasc(engine, [run])
        assert run.node_values() == {u: i for i, u in enumerate(nodes)}

    def test_iteration_count_logarithmic(self):
        # Lemma 4: O(log m) iterations, two rounds each.
        for length in (4, 16, 64, 256):
            s = line_structure(length)
            nodes = line_nodes(length)
            engine = CircuitEngine(s)
            run = node_chain(s, nodes)
            result = run_pasc(engine, [run])
            assert result.iterations <= math.ceil(math.log2(length)) + 1
            assert result.rounds == 2 * result.iterations

    def test_bits_arrive_lsb_first(self):
        s = line_structure(6)
        nodes = line_nodes(6)
        engine = CircuitEngine(s)
        run = node_chain(s, nodes)
        # Execute exactly one iteration manually.
        layout = engine.new_layout()
        run.contribute_layout(layout)
        listen = [run.secondary_set(i) for i in range(len(nodes))]
        received = run_round(engine, layout, [run.primary_set(0)], listen=listen)
        run.absorb_bits([received[set_id] for set_id in listen])
        values = run.node_values()
        for i, u in enumerate(nodes):
            assert values[u] == i % 2  # bit 0 of the distance


class TestPrefixSums:
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_exclusive_prefix_sums(self, weights):
        s = line_structure(len(weights))
        nodes = line_nodes(len(weights))
        engine = CircuitEngine(s)
        run = node_chain(s, nodes, weights=weights)
        run_pasc(engine, [run])
        expected = list(itertools.accumulate([0] + weights[:-1]))
        assert run.values() == expected

    def test_inclusive_adds_own_weight(self):
        weights = [1, 0, 1, 1, 0]
        nodes = line_nodes(5)
        engine = CircuitEngine(line_structure(5))
        run = node_chain(engine.structure, nodes, weights=weights)
        run_pasc(engine, [run])
        assert run.inclusive_values() == list(itertools.accumulate(weights))

    def test_iterations_depend_on_weight_not_length(self):
        # Corollary 6: O(log W) rounds even on a long chain.
        length = 200
        nodes = line_nodes(length)
        s = line_structure(length)
        weights = [0] * length
        weights[150] = 1
        engine = CircuitEngine(s)
        run = node_chain(s, nodes, weights=weights)
        result = run_pasc(engine, [run])
        assert result.iterations <= 2

    def test_all_zero_weights(self):
        nodes = line_nodes(7)
        engine = CircuitEngine(line_structure(7))
        run = node_chain(engine.structure, nodes, weights=[0] * 7)
        result = run_pasc(engine, [run])
        assert all(v == 0 for v in run.node_values().values())
        assert result.iterations == 1  # one round reveals global silence


class TestChainValidation:
    def setup_method(self):
        self.structure = line_structure(3)
        self.index = self.structure.grid_index()
        self.nids = [self.index.id_of(u) for u in line_nodes(3)]
        self.east = [nid * 6 + Direction.E for nid in self.nids]

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            PascChainRun(self.index, [], [])

    def test_wrong_link_count(self):
        with pytest.raises(ValueError):
            PascChainRun(self.index, self.nids, [])

    def test_link_endpoint_mismatch(self):
        bad = [self.east[0], self.east[0]]  # the second should leave nids[1]
        with pytest.raises(ValueError, match="does not start at its unit"):
            PascChainRun(self.index, self.nids, bad)

    def test_link_to_the_wrong_unit(self):
        west = self.nids[1] * 6 + Direction.W  # leaves nids[1], ends at nids[0]
        with pytest.raises(ValueError, match="does not end at its unit"):
            PascChainRun(self.index, self.nids, [self.east[0], west])

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            PascChainRun(self.index, self.nids, self.east[:2], weights=[2, 0, 0])

    def test_revisited_amoebot_gets_a_new_occurrence(self):
        nodes = [Node(0, 0), Node(1, 0), Node(0, 0)]
        run = node_chain(self.structure, nodes, ETT_CHANNELS)
        a, b = self.index.id_of(Node(0, 0)), self.index.id_of(Node(1, 0))
        assert run.units == [(a, 0), (b, 0), (a, 1)]

    def test_node_values_requires_unique_nodes(self):
        nodes = [Node(0, 0), Node(1, 0), Node(0, 0)]
        run = node_chain(self.structure, nodes, ETT_CHANNELS)
        with pytest.raises(ValueError):
            run.node_values()


class TestTreePasc:
    def test_depths_match_bfs(self, medium_hexagon):
        root = medium_hexagon.westernmost()
        adjacency, parent = bfs_tree_adjacency(medium_hexagon, root)
        engine = CircuitEngine(medium_hexagon)
        run = PascTreeRun(root, parent)
        run_pasc(engine, [run])
        from repro.grid.oracle import bfs_tree

        dist, _ = bfs_tree(medium_hexagon, root)
        assert run.values() == dist

    def test_rounds_scale_with_height_not_size(self):
        # A wide 2-row structure: many amoebots, height ~2.
        from repro.workloads import parallelogram

        s = parallelogram(50, 2)
        root = Node(0, 0)
        parent = {}
        for u in s:
            if u == root:
                continue
            if u.y == 0:
                parent[u] = Node(u.x - 1, 0)
            else:
                parent[u] = Node(u.x, 0)
        engine = CircuitEngine(s)
        run = PascTreeRun(root, parent)
        result = run_pasc(engine, [run])
        assert result.iterations <= 7  # log(height), not log(100)

    def test_single_node_tree(self):
        s = line_structure(1)
        engine = CircuitEngine(s)
        run = PascTreeRun(Node(0, 0), {})
        result = run_pasc(engine, [run])
        assert run.values() == {Node(0, 0): 0}
        assert result.iterations == 1

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            PascTreeRun(Node(0, 0), {Node(1, 0): Node(2, 0), Node(2, 0): Node(1, 0)})

    def test_non_adjacent_edge_rejected(self):
        with pytest.raises(ValueError):
            PascTreeRun(Node(0, 0), {Node(5, 0): Node(0, 0)})

    def test_root_with_parent_rejected(self):
        with pytest.raises(ValueError):
            PascTreeRun(Node(0, 0), {Node(0, 0): Node(1, 0)})


class TestParallelRuns:
    def test_parallel_cost_is_shared(self):
        length = 32
        s = line_structure(length)
        nodes = line_nodes(length)
        engine = CircuitEngine(s)
        runs = [
            node_chain(s, nodes, (2 * j, 2 * j + 1), tag=f"r{j}")
            for j in range(3)
        ]
        result = run_pasc(engine, runs)
        for run in runs:
            assert run.values() == list(range(length))
        assert result.rounds == 2 * result.iterations

    def test_runs_of_different_lengths_terminate_together(self):
        s = line_structure(40)
        nodes = line_nodes(40)
        engine = CircuitEngine(s)
        short = node_chain(s, nodes[:4], (0, 1), tag="short")
        long = node_chain(s, nodes, (2, 3), tag="long")
        result = run_pasc(engine, [short, long])
        assert short.node_values() == {u: i for i, u in enumerate(nodes[:4])}
        assert long.node_values() == {u: i for i, u in enumerate(nodes)}
        assert result.iterations <= 7

    def test_runaway_guard(self):
        s = line_structure(4)
        nodes = line_nodes(4)
        engine = CircuitEngine(s)

        class NeverDone(PascChainRun):
            def active_ids(self):
                return [self.nids[0]]

        index = s.grid_index()
        nids = [index.id_of(u) for u in nodes]
        run = NeverDone(index, nids, [nid * 6 + Direction.E for nid in nids[:-1]])
        with pytest.raises(RuntimeError):
            run_pasc(engine, [run], max_iterations=5)

    def test_tree_and_chain_runs_share_one_execution(self):
        # A tree run and a chain run on disjoint amoebots of one
        # structure: each must compute what it computes alone, and the
        # shared execution lasts as long as the longer of the two.
        from repro.workloads import parallelogram

        structure = parallelogram(24, 3)
        root = Node(0, 0)
        parent = {Node(x, 0): Node(x - 1, 0) for x in range(1, 24)}
        parent.update({Node(x, 1): Node(x, 0) for x in range(24)})
        chain_nodes = [Node(x, 2) for x in range(6)]

        def make_runs():
            tree = PascTreeRun(root, parent)
            chain = node_chain(structure, chain_nodes, tag="chain")
            return tree, chain

        alone_tree, alone_chain = make_runs()
        tree_result = run_pasc(CircuitEngine(structure), [alone_tree])
        chain_result = run_pasc(CircuitEngine(structure), [alone_chain])
        assert tree_result.iterations != chain_result.iterations

        tree, chain = make_runs()
        result = run_pasc(CircuitEngine(structure), [tree, chain])
        assert tree.values() == alone_tree.values()
        assert chain.values() == alone_chain.values()
        assert result.rounds == 2 * result.iterations
        assert result.iterations == max(tree_result.iterations, chain_result.iterations)
