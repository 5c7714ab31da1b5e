"""T8 — the §5 subroutines: line, merge, propagation in O(log n).

Each subroutine of the divide & conquer algorithm is measured in
isolation over growing structures; all three must stay logarithmic.
"""

from repro.grid.coords import Node
from repro.metrics.records import ResultTable
from repro.sim.engine import CircuitEngine
from repro.spf.line import line_forest
from repro.spf.merge import merge_forests
from repro.spf.propagate import propagate_forest
from repro.spf.spt import shortest_path_tree
from repro.spf.types import Forest
from repro.workloads import line_structure, parallelogram

from benchmarks.conftest import emit

SIZES = (32, 128, 512)


def line_rounds(n: int) -> int:
    structure = line_structure(n)
    nodes = [Node(i, 0) for i in range(n)]
    engine = CircuitEngine(structure)
    line_forest(engine, nodes, [nodes[0], nodes[n // 3], nodes[-1]])
    return engine.rounds.total


def merge_rounds(n: int) -> int:
    width = n // 4
    structure = parallelogram(width, 4)
    nodes = sorted(structure.nodes)
    engine = CircuitEngine(structure)
    f1 = _sssp(engine, structure, nodes[0])
    f2 = _sssp(engine, structure, nodes[-1])
    engine.rounds.reset()
    merge_forests(engine, f1, f2)
    return engine.rounds.total


def propagate_rounds(n: int) -> int:
    width = n // 4
    structure = parallelogram(width, 4)
    row = [Node(i, 0) for i in range(width)]
    engine = CircuitEngine(structure)
    base = line_forest(engine, row, [row[0]])
    engine.rounds.reset()
    propagate_forest(engine, structure, row, base)
    return engine.rounds.total


def _sssp(engine, structure, source) -> Forest:
    return shortest_path_tree(engine, structure, source, structure.nodes).forest


def test_subroutine_rounds(benchmark):
    table = ResultTable(
        "T8: §5 subroutine rounds vs n",
        ["n", "line (5.1)", "merge (5.2)", "propagate (5.3)"],
    )
    rows = []
    for n in SIZES:
        row = (n, line_rounds(n), merge_rounds(n), propagate_rounds(n))
        rows.append(row)
        table.add(*row)
    emit(
        table,
        claim="line, merge, propagation each O(log n) (Lemmas 40/42/50)",
        verdict="all columns grow by a constant per doubling of n",
    )
    doublings = 4  # 32 -> 512
    for column in (1, 2, 3):
        growth = rows[-1][column] - rows[0][column]
        assert growth <= 10 * doublings, f"column {column} is not logarithmic"

    benchmark(line_rounds, 128)
