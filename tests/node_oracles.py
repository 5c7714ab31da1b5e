"""Node-keyed constructions the id-native ETT/PASC layer replaced.

The library builds Euler tours, ETT weights and PASC chains in
grid-index integers (:mod:`repro.ett.tour`, :mod:`repro.pasc.chain`)
and runs every beep round on integer set-ids.  These are the historical
``Node``-keyed versions, kept as test oracles: a tour of ``(Node,
Node)`` edges read off rotation-ordered adjacency lists, ``(Node,
occurrence)`` units, ``ChainLink`` wiring, prefix sums keyed by
directed node pairs, and :func:`run_round`, a round addressed by
``(node, label)`` partition-set ids.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.grid.coords import Node
from repro.grid.directions import Direction
from repro.sim.pins import PartitionSetId

DirectedEdge = Tuple[Node, Node]


class ChainLink(NamedTuple):
    """The physical wiring between consecutive chain units."""

    src: Node
    direction: Direction
    primary_channel: int
    secondary_channel: int

    def dst(self) -> Node:
        return self.src.neighbor(self.direction)


@dataclass
class NodeTour:
    root: Node
    edges: List[DirectedEdge]
    units: List[Tuple[Node, str]]
    adjacency: Dict[Node, List[Node]]


def build_euler_tour(root: Node, adjacency: Dict[Node, List[Node]]) -> NodeTour:
    """The Euler tour by the local successor rule over Node adjacency."""
    if root not in adjacency:
        raise ValueError(f"root {root} is not a tree node")
    node_count = len(adjacency)
    edge_count = sum(len(v) for v in adjacency.values()) // 2
    if edge_count != node_count - 1:
        raise ValueError("adjacency does not describe a tree")
    if not adjacency[root]:
        if node_count != 1:
            raise ValueError("isolated root in a multi-node adjacency")
        return NodeTour(root, [], [(root, "0")], {root: []})
    seen: Set[DirectedEdge] = set()
    edges: List[DirectedEdge] = []
    cur: DirectedEdge = (root, adjacency[root][0])
    for _ in range(2 * edge_count):
        if cur in seen:
            raise ValueError("rotation order does not induce a single cycle")
        seen.add(cur)
        edges.append(cur)
        u, v = cur
        neighbors = adjacency[v]
        cur = (v, neighbors[(neighbors.index(u) + 1) % len(neighbors)])
    if cur != edges[0]:
        raise ValueError("tour did not close into a cycle")
    occurrences: Counter = Counter()
    units: List[Tuple[Node, str]] = []
    for u, _ in edges:
        units.append((u, str(occurrences[u])))
        occurrences[u] += 1
    units.append((root, str(occurrences[root])))
    return NodeTour(root, edges, units, adjacency)


def channels_for(direction: int) -> Tuple[int, int]:
    """The ETT channel discipline: E/NE/NW on (0, 1), the rest (2, 3)."""
    return (0, 1) if direction < 3 else (2, 3)


def tour_links(tour: NodeTour) -> List[ChainLink]:
    """Chain links joining consecutive tour instances."""
    links = []
    for u, v in tour.edges:
        d = u.direction_to(v)
        links.append(ChainLink(u, d, *channels_for(d)))
    return links


def chain_links_for_nodes(
    nodes: Sequence[Node], primary_channel: int = 0, secondary_channel: int = 1
) -> List[ChainLink]:
    """Links joining consecutive nodes of a plain amoebot chain."""
    return [
        ChainLink(u, u.direction_to(v), primary_channel, secondary_channel)
        for u, v in zip(nodes, nodes[1:])
    ]


def mark_one_outgoing_edge(tour: NodeTour, members: Iterable[Node]) -> Set[DirectedEdge]:
    """``w_Q``: every member marks the out-edge of its first occurrence."""
    members_set = set(members)
    marked: Set[DirectedEdge] = set()
    claimed: Set[Node] = set()
    for edge in tour.edges:
        if edge[0] in members_set and edge[0] not in claimed:
            marked.add(edge)
            claimed.add(edge[0])
    return marked


def ett_prefix(tour: NodeTour, marked: Set[DirectedEdge]) -> Dict[DirectedEdge, int]:
    """Inclusive prefix sums per directed edge, summed sequentially."""
    sums = accumulate(1 if e in marked else 0 for e in tour.edges)
    return dict(zip(tour.edges, sums))


def run_round(
    engine,
    layout,
    beeps: Iterable[PartitionSetId],
    listen: Optional[Iterable[PartitionSetId]] = None,
) -> Dict[PartitionSetId, bool]:
    """One round addressed by ``(node, label)`` ids, heard bits as a dict.

    Resolves the ids to the layout's integer set-ids and runs
    ``engine.run_round_indexed``; the result maps every listened set
    (every declared set when ``listen`` is None) to whether it heard a
    beep.
    """
    index = layout.compiled().index
    beep_idx = index.indices(beeps, "beep on")
    if listen is None:
        keys: Sequence[PartitionSetId] = index.ids
        listen_idx = None
    else:
        keys = list(listen)
        listen_idx = index.indices(keys, "listen on")
    return dict(zip(keys, engine.run_round_indexed(layout, beep_idx, listen_idx)))
