"""Centralized reference versions of the shortest path algorithms."""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Sequence

from repro.grid.compiled import GridIndex
from repro.grid.coords import Node
from repro.grid.structure import AmoebotStructure
from repro.spf.types import Forest


def ref_shortest_path_forest(
    structure: AmoebotStructure,
    sources: Iterable[Node],
    destinations: Iterable[Node] | None = None,
) -> Forest:
    """A multi-source BFS forest, pruned to the destinations.

    Ties (equidistant sources) resolve by BFS queue order from sorted
    sources, which the forest checker explicitly does not compare — any
    closest source is acceptable.
    """
    source_list = sorted(set(sources))
    if not source_list:
        raise ValueError("need at least one source")
    dest_set = (
        set(structure.nodes) if destinations is None else set(destinations)
    )

    parent: Dict[Node, Node] = {}
    dist: Dict[Node, int] = {s: 0 for s in source_list}
    queue = deque(source_list)
    while queue:
        u = queue.popleft()
        for v in structure.neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                parent[v] = u
                queue.append(v)

    return Forest.chains(structure.grid_index(), source_list, parent, dest_set)


def ref_shortest_path_tree(
    structure: AmoebotStructure,
    source: Node,
    destinations: Iterable[Node],
) -> Forest:
    """Single-source reference tree (k = 1 case of the forest)."""
    return ref_shortest_path_forest(structure, [source], destinations)


def ref_line_forest(chain: Sequence[Node], sources: Iterable[Node]) -> Forest:
    """Reference line algorithm: point at the closer source, ties west."""
    nodes = list(chain)
    index = {u: i for i, u in enumerate(nodes)}
    source_positions = sorted(index[s] for s in set(sources))
    if not source_positions:
        raise ValueError("need at least one source")
    parent: Dict[Node, Node] = {}
    for i, u in enumerate(nodes):
        if i in source_positions:
            continue
        west = max((p for p in source_positions if p < i), default=None)
        east = min((p for p in source_positions if p > i), default=None)
        dw = i - west if west is not None else None
        de = east - i if east is not None else None
        if dw is not None and (de is None or dw <= de):
            parent[u] = nodes[i - 1]
        else:
            parent[u] = nodes[i + 1]
    return Forest.from_nodes(GridIndex(nodes), {nodes[p] for p in source_positions}, parent)
