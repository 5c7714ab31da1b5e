"""T5 — PASC: two rounds per iteration, O(log m) iterations (Lemma 4).

Chain length swept over three orders of magnitude; the measured
iteration count must track ceil(log2 m) + 1 exactly and rounds must be
exactly twice the iterations.  A tree case runs the merge stage's
distance PASC (Corollary 5) over BFS trees of hexagons: its iterations
track the tree height, not its size.

This bench also guards the layout-reuse-and-compile contract, for
chains and trees alike: one PASC execution must perform exactly one
from-scratch layout build (iteration 0) and at most one component
computation per iteration, every build must lower to flat arrays exactly
once, every PASC layout must be labelled by the parity pass (no
union-find per iteration), and every round must execute on the integer
fast path — a regression to per-iteration rebuilds, to the union-find
or to id-keyed dict rounds fails the assertions below.  CI runs the
bench in quick mode (``BENCH_QUICK=1`` shrinks the sweep) as a perf
smoke.
"""

import math
import os

from repro.api import Session, SolveRequest
from repro.grid.coords import Node
from repro.grid.oracle import bfs_tree
from repro.metrics.records import ResultTable
from repro.pasc.runner import run_pasc
from repro.sim.circuits import LAYOUT_STATS
from repro.sim.engine import CircuitEngine
from repro.workloads import hexagon, line_structure

from benchmarks.conftest import emit
from tests.conftest import node_chain
from tests.node_oracles import node_tree_run

QUICK = bool(os.environ.get("BENCH_QUICK"))
LENGTHS = (4, 16, 256) if QUICK else (4, 16, 64, 256, 1024)
RADII = (2, 6) if QUICK else (2, 6, 12, 18)


def pasc_run(length: int):
    structure = line_structure(length)
    nodes = [Node(i, 0) for i in range(length)]
    engine = CircuitEngine(structure)
    run = node_chain(structure, nodes)
    LAYOUT_STATS.reset()
    result = run_pasc(engine, [run])
    check_layout_reuse(engine, result)
    assert run.node_values() == {u: i for i, u in enumerate(nodes)}
    return result


def tree_pasc_run(radius: int):
    """The merge stage's distance PASC over a BFS tree of ``hexagon(radius)``."""
    structure = hexagon(radius)
    root = structure.westernmost()
    dist, parent = bfs_tree(structure, root)
    del parent[root]
    engine = CircuitEngine(structure)
    run = node_tree_run(structure.grid_index(), root, parent, (0, 1), tag="fd")
    LAYOUT_STATS.reset()
    result = run_pasc(engine, [run], section="forest_distances")
    check_layout_reuse(engine, result)
    assert run.node_values() == dist
    return result, len(dist), max(dist.values())


def check_layout_reuse(engine, result) -> None:
    # Layout-reuse contract: one full build for the initial runs'
    # wiring plus one for the engine-cached global termination layout,
    # then at most one (incremental) component computation per distinct
    # wiring — never a from-scratch rebuild per iteration.
    assert LAYOUT_STATS.full_builds <= 2, (
        f"PASC performed {LAYOUT_STATS.full_builds} from-scratch layout "
        "builds; the layout-reuse contract allows two (runs + termination)"
    )
    assert LAYOUT_STATS.total_builds() <= result.iterations + 1, (
        f"{LAYOUT_STATS.total_builds()} component builds for "
        f"{result.iterations} distinct wirings; layouts are being rebuilt"
    )
    # Compile contract: every build lowers to arrays exactly once, and
    # each iteration runs two rounds (PASC and termination).
    assert LAYOUT_STATS.compiles == LAYOUT_STATS.total_builds(), (
        f"{LAYOUT_STATS.compiles} array compilations for "
        f"{LAYOUT_STATS.total_builds()} builds; layouts are being recompiled"
    )
    # Parity contract: every PASC layout, fresh or derived, is labelled
    # by the parity pass over its rails; only the termination layout
    # reaches the generic union-find.
    union_finds = LAYOUT_STATS.compiles - LAYOUT_STATS.parity_compiles
    assert union_finds <= 1, (
        f"{union_finds} union-find compiles; PASC iterations left the "
        "parity pass"
    )
    assert LAYOUT_STATS.indexed_rounds == 2 * result.iterations, (
        f"{LAYOUT_STATS.indexed_rounds} indexed rounds for "
        f"{result.iterations} iterations; rounds left the integer fast path"
    )
    # hearing_count contract: the O(circuits) size-summing fast path
    # must agree with the O(partition sets) definition on every mask; a
    # singleton id (past the declared sets) hears only itself.
    compiled = engine.global_layout(label="hc-probe").compiled()
    size = len(compiled.comp)
    for beep in ([], [0], list(range(size)), [size + 7, size + 7, 1]):
        heard = compiled.propagate(beep)
        hears, _lone = heard
        brute = sum(hears[c] for c in compiled.comp) + len({i for i in beep if i >= size})
        assert compiled.hearing_count(heard) == brute, (
            "hearing_count diverged from the per-set definition"
        )


def test_pasc_iterations(benchmark):
    table = ResultTable(
        "T5: PASC on a chain of m amoebots",
        ["m", "iterations", "rounds", "ceil(log2 m)+1"],
    )
    for m in LENGTHS:
        result = pasc_run(m)
        bound = math.ceil(math.log2(m)) + 1
        table.add(m, result.iterations, result.rounds, bound)
        assert result.rounds == 2 * result.iterations, "Lemma 4: 2 rounds/iteration"
        assert result.iterations <= bound, "Lemma 4: O(log m) iterations"
    emit(
        table,
        claim="2 rounds per iteration, O(log m) iterations (Lemmas 3-4)",
        verdict="iterations == ceil(log2 m)+1 slack, rounds == 2x iterations",
    )

    benchmark(pasc_run, 256)


def test_tree_pasc_iterations():
    table = ResultTable(
        "T5: tree PASC over a BFS tree of hexagon(R)",
        ["R", "n", "height h", "iterations", "rounds", "ceil(log2 (h+1))+1"],
    )
    for radius in RADII:
        result, n, height = tree_pasc_run(radius)
        # The chain bound of the longest root path (h + 1 amoebots).
        bound = math.ceil(math.log2(height + 1)) + 1
        table.add(radius, n, height, result.iterations, result.rounds, bound)
        assert result.rounds == 2 * result.iterations, "Lemma 4: 2 rounds/iteration"
        assert result.iterations <= bound, "Corollary 5: O(log height) iterations"
    emit(
        table,
        claim="tree PASC costs the chain's rounds on its longest root path (Corollary 5)",
        verdict="iterations within the longest path's chain bound, rounds == 2x iterations",
    )


def test_edge_layouts_declare_only_pinned_sets():
    """Sets only where pins are: every edge-subset and global layout of
    a cold solve declares exactly the sets that own a pin."""
    layouts = []
    builders = {
        name: getattr(CircuitEngine, name)
        for name in ("_build_edge_subset_layout", "_build_global_layout")
    }

    def keeping(build):
        def wrapped(*args):
            layouts.append(build(*args))
            return layouts[-1]

        return wrapped

    try:
        for name, build in builders.items():
            setattr(CircuitEngine, name, keeping(build))
        Session().run(SolveRequest(kind="solve", shape="random:300:1", k=4, l=5))
    finally:
        for name, build in builders.items():
            setattr(CircuitEngine, name, build)
    assert layouts
    for layout in layouts:
        owners = set(layout.pin_assignments().values())
        assert len(layout.compiled().index) == len(owners), (
            f"{len(layout.compiled().index) - len(owners)} pinless partition "
            "sets declared; a set without pins is a singleton circuit"
        )
