"""The election primitive (Section 3.3).

Elects a single node of a non-empty candidate set ``Q`` on a tree with a
known coordinator ``r`` in ``O(1)`` rounds (Lemma 21): the simplified ETT
splits the Euler tour at the marked edges, the root beeps along the first
subpath, and the owner of the first marked edge wins.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Set

from repro.grid.coords import Node
from repro.ett.election import elect_first_marked
from repro.ett.technique import mark_one_outgoing_edge
from repro.primitives.scope import NodeScope
from repro.sim.engine import CircuitEngine


def elect(
    engine: CircuitEngine,
    root: Node,
    adjacency: Dict[Node, List[Node]],
    q_nodes: Iterable[Node],
    section: str = "election",
) -> Node:
    """Elect one node of ``q_nodes``; costs one round (Lemma 21)."""
    candidates = set(q_nodes)
    if not candidates:
        raise ValueError("election requires a non-empty candidate set")
    scope = NodeScope.from_adjacency(engine.structure.grid_index(), adjacency)
    return elect_unit(engine, scope, root, candidates, section)


def elect_unit(
    engine: CircuitEngine, scope, root: Hashable, candidates: Set, section: str
) -> Hashable:
    """Elect one unit of a tree scope among non-empty ``candidates``.

    Candidates outside the scope are rejected.  A one-unit scope elects
    its only unit locally; otherwise the election costs one round.
    """
    unknown = candidates.difference(scope.unit_adjacency)
    if unknown:
        raise ValueError(f"candidates outside the tree: {sorted(unknown)[:3]}")
    if len(scope.unit_adjacency) == 1:
        return next(iter(candidates))
    tour = scope.tour(root)
    marked = mark_one_outgoing_edge(tour, scope.representative_ids(candidates))
    return scope.unit_at(elect_first_marked(engine, tour, marked, section=section))
