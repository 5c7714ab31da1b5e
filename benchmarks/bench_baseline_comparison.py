"""T7 — circuits vs the Ω(diam) wave baseline: the crossover.

The related-work contrast of the paper: a BFS wave pays one round per
hop (the diameter lower bound of the plain amoebot and beeping models),
the reconfigurable circuit algorithm pays polylog.  Staircase structures
stretch the diameter to Θ(n), making the separation visible at small n;
the table reports the crossover point.
"""

from repro.grid.oracle import bfs_distances, structure_diameter
from repro.metrics.records import ResultTable
from repro.sim.engine import CircuitEngine
from repro.baselines import bfs_wave_forest
from repro.spf.spt import shortest_path_tree
from repro.workloads import staircase

from benchmarks.conftest import emit

STEPS = (2, 4, 8, 16, 24)


def compare(steps: int) -> dict:
    structure = staircase(steps, 4)
    nodes = sorted(structure.nodes)
    source = nodes[0]
    dest = max(nodes, key=lambda u: u.x + u.y)

    wave_engine = CircuitEngine(structure)
    bfs_wave_forest(wave_engine, structure, [source], destinations=[dest])

    circuit_engine = CircuitEngine(structure)
    shortest_path_tree(circuit_engine, structure, source, [dest])

    return {
        "n": len(structure),
        "diam": structure_diameter(structure),
        "dist": bfs_distances(structure, [source])[dest],
        "wave": wave_engine.rounds.total,
        "circuit": circuit_engine.rounds.total,
    }


def test_wave_vs_circuit_crossover(benchmark):
    rows = [compare(steps) for steps in STEPS]
    table = ResultTable(
        "T7: SPSP rounds, BFS wave vs circuit algorithm (staircases)",
        ["n", "diam", "wave rounds", "circuit rounds", "speedup"],
    )
    crossover = None
    for row in rows:
        # One wave round per hop plus the termination round.
        assert row["wave"] == row["dist"] + 1, row
        speedup = row["wave"] / row["circuit"]
        if crossover is None and row["circuit"] < row["wave"]:
            crossover = row["n"]
        table.add(row["n"], row["diam"], row["wave"], row["circuit"], speedup)
    emit(
        table,
        claim="wave pays Θ(diam), circuits pay polylog; circuits win beyond small n",
        verdict=f"crossover at n ≈ {crossover}; speedup grows with n",
    )
    assert crossover is not None and crossover <= rows[-2]["n"]
    assert rows[-1]["wave"] / rows[-1]["circuit"] > rows[0]["wave"] / max(
        rows[0]["circuit"], 1
    ), "speedup must grow with the structure"

    benchmark(compare, 8)
