"""Grid-index perf contract (CI perf-smoke).

Two invariants keep the flat-index machinery honest:

* one solve builds the main structure's :class:`GridIndex` exactly once
  (substructures of the forest algorithm carry their own, but nothing
  re-indexes the *same* structure twice);
* churn *derives* indexes — after the initial build, applying edit
  batches never pays a from-scratch O(n) hashing pass again.

Run quick in CI via ``BENCH_QUICK=1`` (shrinks the sweep sizes).
"""

import os

from repro.dynamics import DynamicSPF, generate_churn
from repro.grid.compiled import GRID_STATS
from repro.sim.engine import CircuitEngine
from repro.spf.api import solve_spf
from repro.spf.spt import shortest_path_tree
from repro.workloads import random_hole_free

QUICK = bool(os.environ.get("BENCH_QUICK"))
N_SOLVE = 60 if QUICK else 200
N_CHURN = 40 if QUICK else 120
# Exact index-build counts for the deterministic forest workload below
# (main structure + one per region/merge substructure).  A re-index of
# an unchanged structure shows up as an immediate increase.
FOREST_INDEX_BUILDS = 12 if QUICK else 17


def test_one_index_build_per_structure():
    structure = random_hole_free(N_SOLVE, seed=7)
    nodes = sorted(structure.nodes)
    engine = CircuitEngine(structure)
    GRID_STATS.reset()
    shortest_path_tree(engine, structure, nodes[0], set(structure.nodes))
    assert GRID_STATS.full_builds == 1, (
        f"SPT re-indexed the structure {GRID_STATS.full_builds} times; "
        "GridIndex must be built once and cached"
    )


def test_forest_substructures_index_once_each():
    structure = random_hole_free(N_SOLVE, seed=7)
    nodes = sorted(structure.nodes)
    GRID_STATS.reset()
    solution = solve_spf(structure, nodes[:4], list(structure.nodes))
    assert solution.algorithm == "forest"
    # Regions/merges create substructures; each gets exactly one index.
    # The workload is deterministic, so the count is pinned: any
    # re-index of an unchanged structure raises it immediately.
    assert GRID_STATS.full_builds == FOREST_INDEX_BUILDS, (
        f"forest solve built {GRID_STATS.full_builds} grid indexes, "
        f"expected {FOREST_INDEX_BUILDS}; a structure is being re-indexed"
    )
    assert GRID_STATS.derives == 0


def test_churn_derives_instead_of_rebuilding():
    structure = random_hole_free(N_CHURN, seed=11)
    sources = [structure.westernmost()]
    spf = DynamicSPF(structure, sources)
    script = generate_churn(
        structure, kind="mixed", steps=4, batch_size=2, seed=3,
        protected=sources,
    )
    GRID_STATS.reset()
    spf.apply_script(script)
    assert GRID_STATS.derives >= len(script.batches), (
        "churn batches must derive the grid index incrementally"
    )
    assert GRID_STATS.full_builds == 0, (
        f"churn re-indexed from scratch {GRID_STATS.full_builds} times; "
        "edited structures must derive their basis index"
    )
