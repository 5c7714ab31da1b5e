"""Euler tour construction from local rotation orders.

Amoebots do not know the tree globally; each knows its incident tree
edges in counterclockwise order (shared chirality makes the order
consistent).  The successor of directed edge ``(u, v)`` is ``(v, w)``
where ``w`` is the next counterclockwise tree neighbor of ``v`` after
``u`` — a purely local rule.  Following it from any directed edge yields
a single cycle using every directed edge exactly once; splitting the
cycle at the root gives the Euler tour the technique runs PASC over.

Everything here is grid-index integers
(:class:`~repro.grid.compiled.GridIndex`): a tree is a direction
bitmask per node id (bit ``d`` set iff the tree edge toward direction
``d`` exists), the successor rule is one table read per step, and a tour
is the sequence of directed edge ids ``nid * 6 + d``.  The tour's units
are ``(node id, occurrence)`` pairs: unit ``i`` is operated by the
source of edge ``i``, unit ``L`` by the root.  Node views —
:attr:`EulerTour.edges`, :attr:`EulerTour.units`,
:attr:`EulerTour.adjacency` — are built on demand for tests and
observers; :func:`tree_masks` converts a ``Node`` adjacency at the
boundary.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.grid.coords import Node
from repro.grid.directions import OPPOSITE_VALUES as _OPP
from repro.pasc.chain import occurrences

DirectedEdge = Tuple[Node, Node]

#: ``_TURN[mask * 6 + d]``: the direction the tour leaves a node with
#: tree-direction bitmask ``mask`` after arriving over an edge of
#: direction ``d`` — the first tree direction counterclockwise after
#: the one pointing back (``-1`` when ``mask`` is empty).
_TURN: Tuple[int, ...] = tuple(
    next(
        ((_OPP[d] + k) % 6 for k in range(1, 7) if mask >> ((_OPP[d] + k) % 6) & 1),
        -1,
    )
    for mask in range(64)
    for d in range(6)
)
#: ``_LOWEST[mask]``: the first tree direction counterclockwise from E.
_LOWEST: Tuple[int, ...] = tuple(
    next((d for d in range(6) if mask >> d & 1), -1) for mask in range(64)
)
_POPCOUNT: Tuple[int, ...] = tuple(bin(mask).count("1") for mask in range(64))


def adjacency_from_edges(edges: Iterable[Tuple[Node, Node]]) -> Dict[Node, List[Node]]:
    """Adjacency lists in counterclockwise rotation order.

    ``edges`` are undirected tree edges between *adjacent grid nodes*.
    Each node's neighbor list is sorted by edge direction (E, NE, NW, W,
    SW, SE), realizing the common chirality the model assumes.
    """
    adjacency: Dict[Node, List[Node]] = {}
    seen = set()
    for u, v in edges:
        key = (u, v) if (u, v) <= (v, u) else (v, u)
        if key in seen:
            continue
        seen.add(key)
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    for u, neighbors in adjacency.items():
        neighbors.sort(key=lambda v: int(u.direction_to(v)))
    return adjacency


def edge_masks(
    index, edges: Iterable[Tuple[Node, Node]], nodes: Iterable[Node] = ()
) -> Dict[int, int]:
    """Tree masks of undirected edges between adjacent nodes of ``index``.

    ``nodes`` are listed even when no edge touches them (a one-node
    tree's root).
    """
    id_of = index.id_of
    masks: Dict[int, int] = {}
    for u in nodes:
        nid = id_of(u)
        if nid is None:
            raise ValueError(f"tree node {u} is not part of the structure")
        masks[nid] = 0
    for u, v in edges:
        d = u.direction_to(v)
        a = id_of(u)
        b = id_of(v)
        if a is None or b is None:
            raise ValueError(f"tree edge {u}-{v} leaves the structure")
        masks[a] = masks.get(a, 0) | 1 << d
        masks[b] = masks.get(b, 0) | 1 << _OPP[d]
    return masks


def tree_masks(index, adjacency: Mapping[Node, Sequence[Node]]) -> Dict[int, int]:
    """A ``Node`` adjacency as ``{node id: tree-direction bitmask}``.

    The boundary conversion for trees given as node adjacency: every
    neighbor must be an adjacent node of ``index``'s structure, listed
    once by each endpoint.  The rotation order is the direction order,
    so list order does not matter.
    """
    pairs = [(u, v) for u, neighbors in adjacency.items() for v in neighbors]
    masks = edge_masks(index, pairs, adjacency)
    if sum(_POPCOUNT[mask] for mask in masks.values()) != len(pairs):
        raise ValueError("adjacency does not list every tree edge once from each end")
    return masks


def mask_adjacency(index, masks: Mapping[int, int]) -> Dict[Node, List[Node]]:
    """The ``Node`` view of a tree's masks: rotation-ordered adjacency."""
    nodes = index.nodes
    nbr = index.nbr
    return {
        nodes[nid]: [nodes[nbr[nid * 6 + d]] for d in range(6) if mask >> d & 1]
        for nid, mask in masks.items()
    }


class EulerTour:
    """An Euler tour of a tree of amoebots, in grid-index integers.

    Attributes
    ----------
    index:
        The :class:`~repro.grid.compiled.GridIndex` all ids refer to.
    root_id:
        The node id the cycle was split at.
    edge_ids:
        The directed edge ids ``e_0, ..., e_{L-1}`` in tour order
        (``L = 2 (m - 1)`` for a tree of ``m`` nodes).  Unit ``i < L``
        is operated by ``e_i // 6``, unit ``L`` by the root.
    twin:
        ``twin[i]`` is the position of ``e_i``'s reverse edge; ``e_i``
        enters a child for the first time iff ``twin[i] > i``.
    masks:
        The tree: node id -> bitmask of its tree directions.
    """

    __slots__ = ("index", "root_id", "edge_ids", "twin", "masks")

    def __init__(self, index, root_id: int, edge_ids: List[int], twin: List[int], masks):
        self.index = index
        self.root_id = root_id
        self.edge_ids = edge_ids
        self.twin = twin
        self.masks = masks

    @property
    def root(self) -> Node:
        """The root amoebot."""
        return self.index.nodes[self.root_id]

    @property
    def length(self) -> int:
        return len(self.edge_ids)

    def unit_nids(self) -> List[int]:
        """The operating node id of every unit ``0 .. L``."""
        return [e // 6 for e in self.edge_ids] + [self.root_id]

    def first_positions(self) -> List[int]:
        """Tour positions of every node's first out-edge, ascending.

        The root leaves first at position 0; every other node leaves
        first right after the edge that enters it.
        """
        if not self.edge_ids:
            return []
        twin = self.twin
        return [0] + [i + 1 for i in range(len(twin)) if twin[i] > i]

    # ------------------------------------------------------------------
    # Node views (tests and observers; never on the solve path)
    # ------------------------------------------------------------------
    @property
    def edges(self) -> List[DirectedEdge]:
        """The directed edges in tour order, as node pairs."""
        nodes = self.index.nodes
        nbr = self.index.nbr
        return [(nodes[e // 6], nodes[nbr[e]]) for e in self.edge_ids]

    @property
    def units(self) -> List[Tuple[Node, str]]:
        """The units as ``(node, occurrence id)`` pairs."""
        nids = self.unit_nids()
        nodes = self.index.nodes
        return [(nodes[n], str(k)) for n, k in zip(nids, occurrences(nids))]

    @property
    def adjacency(self) -> Dict[Node, List[Node]]:
        """The tree as rotation-ordered ``Node`` adjacency."""
        return mask_adjacency(self.index, self.masks)


def euler_tour(index, root_id: int, masks: Mapping[int, int]) -> EulerTour:
    """The Euler tour of the tree ``masks`` rooted at node id ``root_id``.

    ``masks`` maps every tree node id of ``index`` to the bitmask of its
    tree directions and must be symmetric (as :func:`tree_masks` and
    :class:`~repro.portals.portals.PortalSystem` produce it); that it
    describes a single tree is checked.
    """
    if root_id not in masks:
        node = index.nodes[root_id] if 0 <= root_id < index.n_slots else root_id
        raise ValueError(f"root {node} is not a tree node")
    ends = sum(_POPCOUNT[mask] for mask in masks.values())
    if ends != 2 * (len(masks) - 1):
        raise ValueError("adjacency does not describe a tree")
    if not ends:
        return EulerTour(index, root_id, [], [], masks)
    if not masks[root_id]:
        raise ValueError("isolated root in a multi-node adjacency")
    nbr = index.nbr
    turn = _TURN
    first = root_id * 6 + _LOWEST[masks[root_id]]
    edges = [first]
    e = first
    try:
        for _ in range(ends - 1):
            v = nbr[e]
            e = v * 6 + turn[masks[v] * 6 + e % 6]
            if e == first:
                raise ValueError("rotation order does not induce a single cycle")
            edges.append(e)
        v = nbr[e]
        closed = v * 6 + turn[masks[v] * 6 + e % 6] == first
    except KeyError:
        raise ValueError("tree edge leads to a node outside the tree") from None
    if not closed:
        raise ValueError("tour did not close into a cycle")
    # Pair every edge with its reverse: the tour is a depth-first walk,
    # so an edge returns over the most recent still-open descent.
    mate = index.mate_edges()
    twin = [0] * ends
    open_descents: List[int] = []
    for i, e in enumerate(edges):
        if open_descents and mate[e] == edges[open_descents[-1]]:
            j = open_descents.pop()
            twin[i] = j
            twin[j] = i
        else:
            open_descents.append(i)
    return EulerTour(index, root_id, edges, twin, masks)
