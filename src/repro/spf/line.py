"""The line algorithm (Section 5.1, Lemma 40).

On a chain of amoebots the closest source of any amoebot is the nearest
source in one of the two directions, so it suffices to run PASC from
every source in both directions up to the next source: every non-source
amoebot reads its distance to the nearest source on its west and on its
east (where they exist) and points its parent at the closer one.  All
``2k`` PASC executions share their rounds: ``O(log n)`` total.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.grid.coords import Node
from repro.pasc.chain import PascRun
from repro.pasc.runner import run_pasc
from repro.sim.engine import CircuitEngine
from repro.spf.types import Forest

#: Channel pairs for the two directions of the line.
_EAST_CHANNELS = (0, 1)
_WEST_CHANNELS = (2, 3)


def line_forest(
    engine: CircuitEngine,
    chain: Sequence[Node],
    sources: Sequence[Node],
    section: str = "line",
) -> Forest:
    """Compute an S-shortest-path forest on a chain of amoebots.

    The ``Node`` boundary of :func:`line_forest_ids`: ``chain`` lists
    the amoebots in order (consecutive entries adjacent); ``sources``
    must all lie on the chain.
    """
    nodes = list(chain)
    grid = engine.structure.grid_index()
    nids = [grid.id_of(u) for u in nodes]
    if None in nids:
        raise ValueError(f"{nodes[nids.index(None)]} is not part of the structure")
    return line_forest_ids(engine, nids, [grid.id_of(s) for s in sources], section)


def line_forest_ids(
    engine: CircuitEngine,
    line_ids: Sequence[int],
    source_ids: Iterable[int],
    section: str = "line",
) -> Forest:
    """The line algorithm on a chain of ids of the engine structure's
    grid index.

    ``line_ids`` lists the amoebots in order (consecutive entries
    adjacent); ``source_ids`` must all lie on the chain.  Ties between
    two equidistant sources break toward the front of the chain
    (deterministic, so neighboring amoebots agree).
    """
    nids = list(line_ids)
    if not nids:
        raise ValueError("chain must be non-empty")
    position = {nid: i for i, nid in enumerate(nids)}
    if len(position) != len(nids):
        raise ValueError("chain visits an amoebot twice")
    source_ids = set(source_ids)
    if not source_ids:
        raise ValueError("need at least one source")
    if not source_ids.issubset(position):
        raise ValueError("sources not on the chain")
    source_positions = sorted(position[s] for s in source_ids)

    # The edge ids toward the next amoebot and their mirrors toward the
    # previous one.
    grid = engine.structure.grid_index()
    nbr = grid.nbr
    east_edges = []
    for u, v in zip(nids, nids[1:]):
        row = nbr[u * 6 : u * 6 + 6]
        if v not in row:
            nodes = grid.nodes
            raise ValueError(f"chain entries {nodes[u]}, {nodes[v]} are not adjacent")
        east_edges.append(u * 6 + row.index(v))
    mate = grid.mate_edges()
    west_edges = [mate[e] for e in east_edges]

    # Segments between consecutive sources (and the chain ends); PASC
    # runs from each source toward the next one in both directions.
    runs: List[PascRun] = []
    east_runs: List[Tuple[int, int, PascRun]] = []  # (segment start, end, run)
    west_runs: List[Tuple[int, int, PascRun]] = []
    for i, pos in enumerate(source_positions):
        east_end = (
            source_positions[i + 1]
            if i + 1 < len(source_positions)
            else len(nids) - 1
        )
        if east_end > pos:
            run = PascRun(
                grid,
                nids[pos : east_end + 1],
                east_edges[pos:east_end],
                _EAST_CHANNELS,
                tag=f"line_e{pos}",
            )
            runs.append(run)
            east_runs.append((pos, east_end, run))
        west_end = source_positions[i - 1] if i > 0 else 0
        if west_end < pos:
            run = PascRun(
                grid,
                nids[west_end : pos + 1][::-1],
                west_edges[west_end:pos][::-1],
                _WEST_CHANNELS,
                tag=f"line_w{pos}",
            )
            runs.append(run)
            west_runs.append((pos, west_end, run))

    if runs:
        run_pasc(engine, runs, section=section)

    # Each amoebot compares its two distances and points at the closer
    # source's direction (a purely local decision), by chain position.
    m = len(nids)
    dist_from_west: List[Optional[int]] = [None] * m
    dist_from_east: List[Optional[int]] = [None] * m
    for pos, end, run in east_runs:
        dist_from_west[pos : end + 1] = run.values()
    for pos, end, run in west_runs:
        dist_from_east[end : pos + 1] = run.values()[::-1]
    engine.charge_local_round()

    parent: Dict[int, int] = {}
    for i, nid in enumerate(nids):
        if nid in source_ids:
            continue
        dw = dist_from_west[i]
        de = dist_from_east[i]
        if dw is not None and (de is None or dw <= de):
            parent[nid] = nids[i - 1]
        elif de is not None:
            parent[nid] = nids[i + 1]
        else:  # pragma: no cover - impossible with a non-empty source set
            raise AssertionError(f"amoebot {nid} saw no source in either direction")
    return Forest(grid, source_ids, parent)
