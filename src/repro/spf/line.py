"""The line algorithm (Section 5.1, Lemma 40).

On a chain of amoebots the closest source of any amoebot is the nearest
source in one of the two directions, so it suffices to run PASC from
every source in both directions up to the next source: every non-source
amoebot reads its distance to the nearest source on its west and on its
east (where they exist) and points its parent at the closer one.  All
``2k`` PASC executions share their rounds: ``O(log n)`` total.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.grid.coords import Node
from repro.pasc.chain import PascChainRun
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

    ``chain`` lists the amoebots in order (consecutive entries adjacent);
    ``sources`` must all lie on the chain.  Ties between two equidistant
    sources break toward the front of the chain (deterministic, so
    neighboring amoebots agree).
    """
    nodes = list(chain)
    if not nodes:
        raise ValueError("chain must be non-empty")
    index = {u: i for i, u in enumerate(nodes)}
    if len(index) != len(nodes):
        raise ValueError("chain visits an amoebot twice")
    for u, v in zip(nodes, nodes[1:]):
        if not u.is_adjacent(v):
            raise ValueError(f"chain entries {u}, {v} are not adjacent")
    source_set: Set[Node] = set(sources)
    if not source_set:
        raise ValueError("need at least one source")
    unknown = source_set.difference(index)
    if unknown:
        raise ValueError(f"sources not on the chain: {sorted(unknown)[:3]}")

    source_positions = sorted(index[s] for s in source_set)

    # The chain in grid-index integers, once: node ids, the edge ids
    # toward the next amoebot and their mirrors toward the previous one.
    grid = engine.structure.grid_index()
    nids = [grid.id_of(u) for u in nodes]
    if None in nids:
        raise ValueError(f"{nodes[nids.index(None)]} is not part of the structure")
    east_edges = [nid * 6 + u.direction_to(v) for nid, u, v in zip(nids, nodes, nodes[1:])]
    mate = grid.mate_edges()
    west_edges = [mate[e] for e in east_edges]

    # Segments between consecutive sources (and the chain ends); PASC
    # runs from each source toward the next one in both directions.
    runs: List[PascChainRun] = []
    east_runs: Dict[int, Tuple[int, PascChainRun]] = {}  # segment start pos -> (end, run)
    west_runs: Dict[int, Tuple[int, PascChainRun]] = {}
    for i, pos in enumerate(source_positions):
        east_end = (
            source_positions[i + 1]
            if i + 1 < len(source_positions)
            else len(nodes) - 1
        )
        if east_end > pos:
            run = PascChainRun(
                grid,
                nids[pos : east_end + 1],
                east_edges[pos:east_end],
                _EAST_CHANNELS,
                tag=f"line_e{pos}",
            )
            runs.append(run)
            east_runs[pos] = (east_end, run)
        west_end = source_positions[i - 1] if i > 0 else 0
        if west_end < pos:
            run = PascChainRun(
                grid,
                nids[west_end : pos + 1][::-1],
                west_edges[west_end:pos][::-1],
                _WEST_CHANNELS,
                tag=f"line_w{pos}",
            )
            runs.append(run)
            west_runs[pos] = (west_end, run)

    if runs:
        run_pasc(engine, runs, section=section)

    # Each amoebot compares its two distances and points at the closer
    # source's direction (a purely local decision).
    dist_from_west: Dict[Node, int] = {}
    dist_from_east: Dict[Node, int] = {}
    for pos, (end, run) in east_runs.items():
        dist_from_west.update(zip(nodes[pos : end + 1], run.values()))
    for pos, (end, run) in west_runs.items():
        dist_from_east.update(zip(nodes[end : pos + 1][::-1], run.values()))
    engine.charge_local_round()

    parent: Dict[Node, Node] = {}
    for i, u in enumerate(nodes):
        if u in source_set:
            continue
        dw = dist_from_west.get(u)
        de = dist_from_east.get(u)
        if dw is not None and (de is None or dw <= de):
            parent[u] = nodes[i - 1]
        elif de is not None:
            parent[u] = nodes[i + 1]
        else:  # pragma: no cover - impossible with a non-empty source set
            raise AssertionError(f"{u} saw no source in either direction")
    return Forest(sources=source_set, parent=parent, members=set(nodes))
