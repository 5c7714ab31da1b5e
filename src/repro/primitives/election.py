"""The election primitive (Section 3.3).

Elects a single node of a non-empty candidate set ``Q`` on a tree with a
known coordinator ``r`` in ``O(1)`` rounds (Lemma 21): the simplified ETT
splits the Euler tour at the marked edges, the root beeps along the first
subpath, and the owner of the first marked edge wins.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.grid.coords import Node
from repro.ett.election import elect_first_marked
from repro.ett.technique import mark_one_outgoing_edge
from repro.primitives.scope import NodeScope, ids_of
from repro.sim.engine import CircuitEngine


def elect(
    engine: CircuitEngine,
    root: Node,
    adjacency: Dict[Node, List[Node]],
    q_nodes: Iterable[Node],
    section: str = "election",
) -> Node:
    """Elect one node of ``q_nodes``; costs one round (Lemma 21).

    The ``Node`` boundary of :func:`elect_unit`.
    """
    index = engine.structure.grid_index()
    candidates = set(ids_of(index, q_nodes, "candidates"))
    if not candidates:
        raise ValueError("election requires a non-empty candidate set")
    scope = NodeScope.from_adjacency(index, adjacency)
    (root_id,) = ids_of(index, [root], "root")
    return index.nodes[elect_unit(engine, scope, root_id, candidates, section)]


def elect_unit(
    engine: CircuitEngine, scope, root: int, candidates: Set[int], section: str
) -> int:
    """Elect one unit of a tree scope among non-empty ``candidates``.

    Candidates outside the scope are rejected.  A one-unit scope elects
    its only unit locally; otherwise the election costs one round.
    """
    unknown = candidates.difference(scope.units)
    if unknown:
        raise ValueError(f"candidates outside the tree: {sorted(unknown)[:3]}")
    if len(scope.units) == 1:
        return next(iter(candidates))
    tour = scope.tour(root)
    marked = mark_one_outgoing_edge(tour, scope.representative_ids(candidates))
    return scope.unit_index[elect_first_marked(engine, tour, marked, section=section)]
