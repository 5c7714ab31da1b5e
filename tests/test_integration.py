"""End-to-end integration tests across the whole stack.

These exercise complete scenarios the paper motivates — SPSP/SSSP
special cases, agreement between the two algorithms, between strict
executions and oracles, and failure injection at the simulator level.
"""


import pytest

from repro.grid.oracle import bfs_distances, structure_diameter
from repro.sim.engine import CircuitEngine
from repro.baselines import bfs_wave_forest, sequential_merge_forest
from repro.spf import solve_spf
from repro.spf.forest import shortest_path_forest
from repro.spf.spt import shortest_path_tree
from repro.verify import check_forest
from repro.workloads import (
    hexagon,
    random_hole_free,
    sample_sources_destinations,
    spread_nodes,
    staircase,
)
from tests.conftest import node_chain


class TestSpecialCases:
    def test_spsp_path_is_shortest(self):
        s = random_hole_free(150, seed=31)
        nodes = sorted(s.nodes)
        engine = CircuitEngine(s)
        result = shortest_path_tree(engine, s, nodes[0], [nodes[-1]])
        path = result.path_from(nodes[-1])
        assert len(path) - 1 == bfs_distances(s, [nodes[0]])[nodes[-1]]

    def test_sssp_depths_equal_bfs(self):
        s = random_hole_free(120, seed=32)
        nodes = sorted(s.nodes)
        engine = CircuitEngine(s)
        forest = shortest_path_tree(engine, s, nodes[0], nodes).forest
        oracle = bfs_distances(s, [nodes[0]])
        for u in nodes:
            assert forest.depth_of(u) == oracle[u]


class TestAlgorithmsAgree:
    @pytest.mark.parametrize("seed", range(4))
    def test_divide_conquer_matches_sequential_baseline(self, seed):
        s = random_hole_free(90, seed=40 + seed)
        sources = spread_nodes(s, 4)
        fast = shortest_path_forest(CircuitEngine(s), s, sources)
        slow = sequential_merge_forest(CircuitEngine(s), s, sources)
        oracle = bfs_distances(s, sources)
        for u in s:
            assert fast.depth_of(u) == oracle[u]
            assert slow.depth_of(u) == oracle[u]

    def test_wave_and_circuit_same_distances(self):
        s = random_hole_free(80, seed=45)
        sources = spread_nodes(s, 3)
        circuit = shortest_path_forest(CircuitEngine(s), s, sources)
        wave = bfs_wave_forest(CircuitEngine(s), s, sources)
        for u in s:
            assert circuit.depth_of(u) == wave.depth_of(u)


class TestRoundSeparation:
    def test_circuit_beats_wave_on_stretched_structures(self):
        s = staircase(10, 5)
        nodes = sorted(s.nodes)
        source, dest = nodes[0], max(nodes, key=lambda u: u.y + u.x)
        wave_engine = CircuitEngine(s)
        bfs_wave_forest(wave_engine, s, [source], destinations=[dest])
        spt_engine = CircuitEngine(s)
        shortest_path_tree(spt_engine, s, source, [dest])
        assert spt_engine.rounds.total < wave_engine.rounds.total

    def test_spsp_rounds_do_not_track_diameter(self):
        small = staircase(4, 4)
        large = staircase(16, 4)
        results = {}
        for name, s in (("small", small), ("large", large)):
            nodes = sorted(s.nodes)
            engine = CircuitEngine(s)
            shortest_path_tree(engine, s, nodes[0], [max(nodes, key=lambda u: u.x + u.y)])
            results[name] = (engine.rounds.total, structure_diameter(s))
        small_rounds, small_diam = results["small"]
        large_rounds, large_diam = results["large"]
        assert large_diam >= 3 * small_diam
        assert large_rounds <= small_rounds + 12


class TestSampledWorkloads:
    @pytest.mark.parametrize("seed", range(3))
    def test_full_pipeline_on_sampled_instances(self, seed):
        s = random_hole_free(100, seed=60 + seed)
        sources, dests = sample_sources_destinations(s, 3, 7, seed=seed)
        solution = solve_spf(s, sources, dests)
        assert check_forest(s, sources, dests, solution.forest.parent) == []

    def test_repeated_solves_are_deterministic(self):
        s = random_hole_free(80, seed=70)
        sources, dests = sample_sources_destinations(s, 3, 5, seed=1)
        a = solve_spf(s, sources, dests)
        b = solve_spf(s, sources, dests)
        assert a.forest.parent == b.forest.parent
        assert a.rounds == b.rounds


class TestFailureInjection:
    def test_corrupted_forest_is_caught(self):
        # End-to-end sanity of the safety net: sabotage a correct forest
        # and confirm the checker reports it.
        s = hexagon(2)
        nodes = sorted(s.nodes)
        solution = solve_spf(s, [nodes[0]], nodes)
        parent = dict(solution.forest.parent)
        victim = next(u for u, p in parent.items() if s.degree(u) == 6)
        neighbors = [v for v in s.neighbors(victim) if v != parent[victim]]
        parent[victim] = neighbors[0]
        violations = check_forest(s, [nodes[0]], nodes, parent)
        # Either the rewired edge lengthened a path or broke nothing —
        # but for an interior node of a hexagon SSSP tree at least one
        # neighbor rewiring must be caught; assert the checker flags a
        # wrong depth when distances disagree.
        oracle = bfs_distances(s, [nodes[0]])
        expects_violation = oracle[neighbors[0]] + 1 != oracle[victim]
        assert bool(violations) == expects_violation

    def test_channel_starvation_raises(self):
        # With c = 1 the PASC wiring cannot be built: the simulator must
        # fail loudly, not silently mis-wire.
        from repro.pasc.runner import run_pasc
        from repro.sim.errors import PinConfigurationError
        from repro.workloads import line_structure

        s = line_structure(4)
        engine = CircuitEngine(s, channels=1)
        nodes = sorted(s.nodes)
        run = node_chain(s, nodes)
        with pytest.raises(PinConfigurationError):
            run_pasc(engine, [run])
