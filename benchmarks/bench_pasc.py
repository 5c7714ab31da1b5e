"""T5 — PASC: two rounds per iteration, O(log m) iterations (Lemma 4).

Chain length swept over three orders of magnitude; the measured
iteration count must track ceil(log2 m) + 1 exactly and rounds must be
exactly twice the iterations.

This bench also guards the layout-reuse-and-compile contract: one PASC
execution must perform exactly one from-scratch layout build (iteration
0) and at most one component computation per iteration, every build must
lower to flat arrays exactly once, and every round must execute on the
integer fast path — a regression to per-iteration rebuilds or to
id-keyed dict rounds fails the assertions below.  CI runs the bench in
quick mode (``BENCH_QUICK=1`` shrinks the sweep) as a perf smoke.
"""

import math
import os

from repro.grid.coords import Node
from repro.metrics.records import ResultTable
from repro.pasc.runner import run_pasc
from repro.sim.circuits import LAYOUT_STATS
from repro.sim.engine import CircuitEngine
from repro.workloads import line_structure

from benchmarks.conftest import emit
from tests.conftest import node_chain

QUICK = bool(os.environ.get("BENCH_QUICK"))
LENGTHS = (4, 16, 256) if QUICK else (4, 16, 64, 256, 1024)


def pasc_run(length: int):
    structure = line_structure(length)
    nodes = [Node(i, 0) for i in range(length)]
    engine = CircuitEngine(structure)
    run = node_chain(structure, nodes)
    LAYOUT_STATS.reset()
    result = run_pasc(engine, [run])
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
    assert LAYOUT_STATS.indexed_rounds == 2 * result.iterations, (
        f"{LAYOUT_STATS.indexed_rounds} indexed rounds for "
        f"{result.iterations} iterations; rounds left the integer fast path"
    )
    assert run.node_values() == {u: i for i, u in enumerate(nodes)}
    # hearing_count contract: the O(circuits) size-summing fast path
    # must agree with the O(partition sets) definition on every mask.
    compiled = engine.global_layout(label="hc-probe").compiled()
    for beep in ([], [0], list(range(len(compiled.comp)))):
        hears = compiled.propagate(beep)
        brute = sum(hears[c] for c in compiled.comp)
        assert compiled.hearing_count(hears) == brute, (
            "hearing_count diverged from the per-set definition"
        )
    return result


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
