"""Node-keyed constructions the id-native ETT/PASC layer replaced.

The library builds Euler tours, ETT weights and PASC chains in
grid-index integers (:mod:`repro.ett.tour`, :mod:`repro.pasc.chain`)
and runs every beep round on integer set-ids.  These are the historical
``Node``-keyed versions, kept as test oracles: a tour of ``(Node,
Node)`` edges read off rotation-ordered adjacency lists, ``(Node,
occurrence)`` units, ``ChainLink`` wiring, prefix sums keyed by
directed node pairs, and :func:`run_round`, a round addressed by
``(node, label)`` partition-set ids.

The layout mutators :func:`assign`, :func:`release` and
:func:`reassign` take a ``Node`` and ``Direction`` pins, and
:func:`index_of` / :func:`indices` resolve ``(node, label)`` tuples
through a compiled index's ``ids`` view; the library addresses sets by
grid-index ids (``CircuitLayout.assign_sets``, ``release_sets``,
``set_ids``).

:func:`node_tree_run` builds a tree PASC run from a ``Node`` parent map
(the library's :meth:`PascRun.tree` takes node ids), and
:func:`feasible_parents` is Equation 1 over ``Node`` portals, the
oracle for the shortest path tree's id-native parent choice.

:func:`addable_nodes` is the structure generator's growth rule over a
``Node`` set (the generator grows on packed int keys and reads a ring
mask table), the oracle of its historical re-scan reference.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from repro.grid.coords import Node
from repro.grid.directions import Direction, all_directions_ccw
from repro.sim.errors import PinConfigurationError
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


def assign(layout, node: Node, label: str, pins: Iterable[Tuple[Direction, int]]) -> None:
    """Place ``(direction, channel)`` pins of ``node`` into set ``(node, label)``."""
    nid = layout.structure.grid_index().id_of(node)
    if nid is None:
        raise PinConfigurationError(f"{node} is not part of the structure")
    base = nid * 6
    layout.assign_sets(((nid, label, [(base + d, ch) for d, ch in pins]),))


def release(layout, node: Node, label: str) -> None:
    """Un-declare set ``(node, label)``; ``node`` may have departed."""
    layout.release_sets(((layout.structure.grid_index().slot_of(node), label),))


def reassign(layout, node: Node, label: str, pins: Iterable[Tuple[Direction, int]]) -> None:
    """Replace the pins of set ``(node, label)`` (release, then assign)."""
    release(layout, node, label)
    assign(layout, node, label, pins)


def indices(index, set_ids: Iterable[PartitionSetId], action: str = "address") -> List[int]:
    """Integer ids of ``(node, label)`` sets in a compiled index, in order."""
    pos = {s: i for i, s in enumerate(index.ids)}
    result = []
    for set_id in set_ids:
        i = pos.get(set_id)
        if i is None:
            raise PinConfigurationError(f"cannot {action} undeclared partition set {set_id}")
        result.append(i)
    return result


def index_of(index, set_id: PartitionSetId, action: str = "address") -> int:
    """The integer id of one ``(node, label)`` set in a compiled index."""
    return indices(index, (set_id,), action)[0]


def run_round(
    engine,
    layout,
    beeps: Iterable[PartitionSetId],
    listen: Optional[Iterable[PartitionSetId]] = None,
) -> Dict[PartitionSetId, bool]:
    """One round addressed by ``(node, label)`` ids, heard bits as a dict.

    Resolves the ids to the layout's integer set-ids through
    ``layout.set_ids`` (an undeclared key of a carried label is its
    singleton circuit) and runs ``engine.run_round_indexed``; the
    result maps every listened set (every declared set when ``listen``
    is None) to whether it heard a beep.
    """
    index = layout.compiled().index
    id_of = layout.structure.grid_index().id_of

    def resolve(keys, action):
        return layout.set_ids(((id_of(u), label) for u, label in keys), action)

    beep_idx = resolve(beeps, "beep on")
    if listen is None:
        keys: Sequence[PartitionSetId] = index.ids
        listen_idx = None
    else:
        keys = list(listen)
        listen_idx = resolve(keys, "listen on")
    return dict(zip(keys, engine.run_round_indexed(layout, beep_idx, listen_idx)))


def node_tree_run(index, root: Node, parent: Mapping[Node, Node], channels=(0, 1), tag="pasc"):
    """:meth:`PascRun.tree <repro.pasc.chain.PascRun.tree>` over a ``Node``
    parent map: the ``Node`` checks, then one ``id_of`` per node."""
    from repro.pasc.chain import PascRun

    if root in parent:
        raise ValueError("root must not have a parent")
    for child, par in parent.items():
        if not child.is_adjacent(par):
            raise ValueError(f"tree edge {par}-{child} joins non-neighbors")
    id_of = index.id_of
    for u in (root, *parent):
        if id_of(u) is None:
            raise ValueError(f"{u} is not part of the structure")
    ids = {id_of(child): id_of(par) for child, par in parent.items()}
    return PascRun.tree(index, id_of(root), ids, channels, tag=tag)


def feasible_parents(structure, systems, portal_parents, node: Node) -> List[Node]:
    """All feasible parents of ``node`` per Equation 1 (Section 4).

    The edge to neighbor ``v`` is parallel to exactly one axis, on which
    both endpoints share a portal; ``v`` is feasible iff on the two
    remaining axes the parent of ``node``'s portal is ``v``'s portal.
    ``shortest_path_tree`` picks the first one in neighbor order.
    """
    result = []
    for v in structure.neighbors(node):
        edge_axis = node.direction_to(v).axis
        ok = True
        for axis in edge_axis.others:
            parents = portal_parents[axis]
            pu = systems[axis].portal_of[node]
            pv = systems[axis].portal_of[v]
            if parents.get(pu) != pv:
                ok = False
                break
        if ok:
            result.append(v)
    return result


def _occupied_mask(nodes: Set[Node], candidate: Node) -> List[bool]:
    """Occupancy of the six neighbors of ``candidate``, ccw order."""
    return [candidate.neighbor(d) in nodes for d in all_directions_ccw()]


def is_contiguous_arc(mask: Sequence[bool]) -> bool:
    """Whether the true entries of a cyclic mask form one contiguous run."""
    if not any(mask):
        return False
    if all(mask):
        return True
    # Count cyclic False->True transitions; exactly one means one arc.
    transitions = sum(
        1 for i in range(6) if not mask[i - 1] and mask[i]
    )
    return transitions == 1


def addable_nodes(nodes: Set[Node]) -> Set[Node]:
    """All unoccupied nodes whose addition provably keeps the set hole-free."""
    frontier: Set[Node] = set()
    for u in nodes:
        for v in u.neighbors():
            if v not in nodes:
                frontier.add(v)
    return {v for v in frontier if is_contiguous_arc(_occupied_mask(nodes, v))}
