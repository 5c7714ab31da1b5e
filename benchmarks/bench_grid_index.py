"""Grid-index perf contract (CI perf-smoke).

Three invariants keep the flat-index machinery honest:

* a structure builds its :class:`GridIndex` exactly once, in its
  constructor, and a solve builds no other: the forest algorithm's
  regions, merged sides and shadow components are id subsets of that
  one index, never structures with an index of their own;
* churn *derives* indexes — after the initial build, applying edit
  batches never pays a from-scratch O(n) hashing pass again;
* a cold ``Session.run`` creates no neighbor ``Node`` at all:
  generation grows on packed int keys and validation reads the index.

Run quick in CI via ``BENCH_QUICK=1`` (shrinks the sweep sizes).
"""

import os

from repro.api import Session, SolveRequest
from repro.dynamics import DynamicSPF, generate_churn
from repro.grid.compiled import GRID_STATS
from repro.grid.coords import Node
from repro.sim.engine import CircuitEngine
from repro.spf.api import solve_spf
from repro.spf.spt import shortest_path_tree
from repro.workloads import random_hole_free

QUICK = bool(os.environ.get("BENCH_QUICK"))
N_SOLVE = 60 if QUICK else 200
N_CHURN = 40 if QUICK else 120
# Exact index-build count for the forest workload below, counted from
# before the structure is built: the structure's own and nothing else.
# Any sub-structure or re-index that builds an index of its own shows
# up as an immediate increase.
FOREST_INDEX_BUILDS = 1


def test_one_index_build_per_structure():
    GRID_STATS.reset()
    structure = random_hole_free(N_SOLVE, seed=7)
    assert GRID_STATS.full_builds == 1, "a structure builds its index once"
    nodes = sorted(structure.nodes)
    engine = CircuitEngine(structure)
    shortest_path_tree(engine, structure, nodes[0], set(structure.nodes))
    assert GRID_STATS.full_builds == 1, (
        f"SPT re-indexed the structure {GRID_STATS.full_builds - 1} times; "
        "GridIndex must be built once, with the structure"
    )


def test_forest_substructures_index_once_each():
    GRID_STATS.reset()
    structure = random_hole_free(N_SOLVE, seed=7)
    nodes = sorted(structure.nodes)
    solution = solve_spf(structure, nodes[:4], list(structure.nodes))
    assert solution.algorithm == "forest"
    # Regions and merges are id subsets of the structure's one index.
    assert GRID_STATS.full_builds == FOREST_INDEX_BUILDS, (
        f"structure + forest solve built {GRID_STATS.full_builds} grid "
        f"indexes, expected {FOREST_INDEX_BUILDS}; a sub-structure or a "
        "re-index built an index of its own"
    )
    assert GRID_STATS.derives == 0


def test_cold_session_run_creates_no_neighbor_nodes(monkeypatch):
    calls = []
    neighbor = Node.neighbor

    def counting(node, direction):
        calls.append(node)
        return neighbor(node, direction)

    monkeypatch.setattr(Node, "neighbor", counting)
    report = Session().run(
        SolveRequest(kind="solve", shape=f"random:{N_SOLVE}:7", k=2, l=4)
    )
    assert report.rounds > 0
    assert not calls, (
        f"a cold solve made {len(calls)} Node.neighbor calls; generation, "
        "validation and the solver run on packed keys and grid-index ids"
    )


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
