"""Portals, portal graphs, and implicit portal trees.

The local membership rule for the implicit portal tree of axis ``d``
(Definition 12 and the discussion below it, generalized from the x-axis
by rotational symmetry): writing ``R`` for rotation by the axis index
(X: identity, Y: one sixth-turn ccw, Z: two),

* edges in directions ``R(E)`` and ``R(W)`` always belong to the tree
  (they are the portal-internal edges);
* the ``R(NW)`` and ``R(SW)`` edges belong iff the amoebot has no
  ``R(W)`` neighbor (it is the "westernmost" amoebot of its portal);
* the ``R(NE)`` edge belongs iff the amoebot has no ``R(NW)`` neighbor,
  and the ``R(SE)`` edge iff it has no ``R(SW)`` neighbor (then the
  neighbor across that edge is the westernmost contact of its portal).

This selects exactly the "westernmost" edge between each pair of
adjacent portals, so the implicit portal graph is a spanning tree of
:math:`G_X` whose contraction of portals is the portal graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.ett.tour import mask_adjacency
from repro.grid.coords import Node
from repro.grid.directions import OPPOSITE_VALUES as _OPP
from repro.grid.directions import Axis, Direction, counterclockwise
from repro.grid.structure import AmoebotStructure


@dataclass(frozen=True, order=True)
class Portal:
    """A maximal run of amoebots along one axis-parallel grid line.

    Ordered and hashed by ``(axis, first node)``; ``nodes`` is the run in
    positive axis direction, so ``nodes[0]`` is the canonical
    representative (the "westernmost" amoebot after rotation).
    """

    axis: Axis
    nodes: Tuple[Node, ...]

    @property
    def representative(self) -> Node:
        return self.nodes[0]

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: Node) -> bool:
        return node in self._node_set()

    def _node_set(self) -> FrozenSet[Node]:
        # Cached lazily on the instance despite frozen dataclass.
        cached = getattr(self, "_cached_set", None)
        if cached is None:
            cached = frozenset(self.nodes)
            object.__setattr__(self, "_cached_set", cached)
        return cached

    def __hash__(self) -> int:
        # The generated dataclass hash re-hashes the whole node tuple on
        # every dict probe, and portals key several bookkeeping tables
        # (connectors, adjacency); cache it per instance instead.
        cached = getattr(self, "_cached_hash", None)
        if cached is None:
            cached = hash((self.axis, self.nodes))
            object.__setattr__(self, "_cached_hash", cached)
        return cached

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Portal({self.axis.name}, {self.nodes[0]}..{self.nodes[-1]})"


class PortalSystem:
    """All portal-level structure of one axis for one amoebot structure.

    Construction runs over the structure's
    :class:`~repro.grid.compiled.GridIndex`: portal runs, the local
    tree rule, the implicit spanning tree, and the portal adjacency are
    all computed from the flat neighbor array in integer space.  The
    implicit tree stays in it (:attr:`tree_masks`, which Euler tours are
    read off); the :class:`Portal` objects and ``portal_of`` are
    materialized once at the end (one dict insert per node), and the
    ``Node`` views :attr:`implicit_adjacency` and :attr:`connector` are
    built only when asked for.
    """

    def __init__(self, structure: AmoebotStructure, axis: Axis):
        self.structure = structure
        self.axis = axis
        self._rotation = int(axis)  # X: 0, Y: 1, Z: 2 sixth-turns ccw
        self._gi = structure.grid_index()
        self.portal_of: Dict[Node, Portal] = {}
        self.portals: List[Portal] = []
        #: node id -> index into :attr:`portals` (the integer view).
        self.portal_index_of_id: List[int] = []
        #: node id -> position of the node within its portal's run.
        self.portal_offset_of_id: List[int] = []
        self._build_portals()
        self.portal_adjacency: Dict[Portal, List[Portal]] = {}
        #: The implicit portal tree: node id -> bitmask of its tree
        #: directions (the form :func:`~repro.ett.tour.euler_tour` reads).
        self.tree_masks: Dict[int, int] = {}
        self._build_implicit_tree()

    # ------------------------------------------------------------------
    # direction helpers (rotating the x-axis rule onto this axis)
    # ------------------------------------------------------------------
    def rotate(self, direction: Direction) -> Direction:
        """Map an x-axis-rule direction onto this system's axis."""
        return counterclockwise(direction, self._rotation)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_portals(self) -> None:
        gi = self._gi
        nbr = gi.nbr
        nodes = gi.nodes
        pos_dir, neg_dir = self.axis.directions
        pos_d, neg_d = int(pos_dir), int(neg_dir)
        n_slots = gi.n_slots
        portal_index = [-1] * n_slots
        portal_offset = [-1] * n_slots
        runs: List[Tuple[Portal, List[int]]] = []
        # Ids ascend in sorted node order for from-scratch indexes, so
        # first-seen run order matches the historical sorted scan; the
        # final sort makes the order canonical for derived indexes too.
        for start in range(n_slots):
            if portal_index[start] != -1 or nodes[start] is None:
                continue
            head = start
            j = nbr[head * 6 + neg_d]
            while j >= 0:
                head = j
                j = nbr[head * 6 + neg_d]
            line_ids = [head]
            j = nbr[head * 6 + pos_d]
            while j >= 0:
                line_ids.append(j)
                j = nbr[j * 6 + pos_d]
            portal = Portal(self.axis, tuple(nodes[i] for i in line_ids))
            marker = len(runs)
            for offset, i in enumerate(line_ids):
                portal_index[i] = marker
                portal_offset[i] = offset
            runs.append((portal, line_ids))
        order = sorted(range(len(runs)), key=lambda k: runs[k][0])
        rank = [0] * len(runs)
        for new_index, old_index in enumerate(order):
            rank[old_index] = new_index
        self.portals = [runs[k][0] for k in order]
        self.portal_index_of_id = [
            rank[m] if m >= 0 else -1 for m in portal_index
        ]
        self.portal_offset_of_id = portal_offset
        portal_of = self.portal_of
        for portal, line_ids in runs:
            for i in line_ids:
                portal_of[nodes[i]] = portal

    def tree_directions(self, node: Node) -> List[Direction]:
        """Incident implicit-tree edges of ``node``, by the local rule."""
        nid = self._gi.id_of(node)
        if nid is None:
            raise KeyError(f"{node} is not part of the structure")
        mask = self._tree_direction_mask(nid)
        return [Direction(d) for d in range(6) if mask >> d & 1]

    def _tree_direction_mask(self, nid: int) -> int:
        """The local rule over the grid index, as a direction bitmask."""
        nbr = self._gi.nbr
        base = nid * 6
        r = self._rotation
        east = r
        ne = (1 + r) % 6
        nw = (2 + r) % 6
        west = (3 + r) % 6
        sw = (4 + r) % 6
        se = (5 + r) % 6
        mask = 0
        if nbr[base + east] >= 0:
            mask |= 1 << east
        if nbr[base + west] >= 0:
            mask |= 1 << west
        else:
            if nbr[base + nw] >= 0:
                mask |= 1 << nw
            if nbr[base + sw] >= 0:
                mask |= 1 << sw
        if nbr[base + nw] < 0 and nbr[base + ne] >= 0:
            mask |= 1 << ne
        if nbr[base + sw] < 0 and nbr[base + se] >= 0:
            mask |= 1 << se
        return mask

    def _build_implicit_tree(self) -> None:
        gi = self._gi
        nbr = gi.nbr
        nodes = gi.nodes
        n_slots = gi.n_slots
        selected = [
            0 if nodes[nid] is None else self._tree_direction_mask(nid) for nid in range(n_slots)
        ]

        # The rule is asymmetric (selected by one endpoint); an edge
        # belongs to the tree when either endpoint selects it, which the
        # local rule makes consistent on hole-free structures.
        portal_index = self.portal_index_of_id
        masks = self.tree_masks
        adjacency_ids: Dict[int, Set[int]] = {}
        edge_count = 0
        live = 0
        for nid in range(n_slots):
            if nodes[nid] is None:
                continue
            live += 1
            base = nid * 6
            mask = selected[nid]
            for d in range(6):
                j = nbr[base + d]
                if j < 0 or not (mask >> d & 1 or selected[j] >> _OPP[d] & 1):
                    continue
                mask |= 1 << d
                if nid < j:
                    edge_count += 1
                    pu = portal_index[nid]
                    pv = portal_index[j]
                    if pu != pv:
                        adjacency_ids.setdefault(pu, set()).add(pv)
                        adjacency_ids.setdefault(pv, set()).add(pu)
            masks[nid] = mask

        expected = live - 1
        if edge_count != expected:
            raise AssertionError(
                f"implicit portal tree of axis {self.axis.name} has "
                f"{edge_count} edges, expected {expected}; structure may "
                "have holes"
            )

        portals = self.portals
        self.portal_adjacency = {
            portals[k]: [portals[m] for m in sorted(members)]
            for k, members in adjacency_ids.items()
        }
        for p in portals:
            self.portal_adjacency.setdefault(p, [])

    @cached_property
    def connector(self) -> Dict[Tuple[Portal, Portal], Tuple[Node, Node]]:
        """``(p, q) -> (u, v)``: the implicit-tree edge from portal ``p``
        to its neighbor portal ``q`` (built on first use)."""
        nodes = self._gi.nodes
        nbr = self._gi.nbr
        portals = self.portals
        portal_index = self.portal_index_of_id
        connector: Dict[Tuple[Portal, Portal], Tuple[Node, Node]] = {}
        for nid, mask in self.tree_masks.items():
            for d in range(6):
                if mask >> d & 1:
                    j = nbr[nid * 6 + d]
                    if portal_index[nid] != portal_index[j]:
                        key = (portals[portal_index[nid]], portals[portal_index[j]])
                        connector[key] = (nodes[nid], nodes[j])
        return connector

    @property
    def implicit_adjacency(self) -> Dict[Node, List[Node]]:
        """The implicit portal tree as rotation-ordered ``Node`` adjacency
        (a view for tests and figures)."""
        return mask_adjacency(self._gi, self.tree_masks)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def portal_count(self) -> int:
        """Number of portals of this axis."""
        return len(self.portals)

    def portals_containing(self, nodes: Iterable[Node]) -> Set[Portal]:
        """The set of portals containing any of ``nodes``."""
        return {self.portal_of[u] for u in nodes}

    def portal_graph_distances(self, start: Portal) -> Dict[Portal, int]:
        """BFS distances in the portal graph (oracle for Lemma 11 tests)."""
        dist = {start: 0}
        queue = deque([start])
        while queue:
            p = queue.popleft()
            for q in self.portal_adjacency[p]:
                if q not in dist:
                    dist[q] = dist[p] + 1
                    queue.append(q)
        return dist

    def is_portal_graph_tree(self) -> bool:
        """Lemma 9: the portal graph of a hole-free structure is a tree."""
        edge_count = sum(len(v) for v in self.portal_adjacency.values()) // 2
        return edge_count == len(self.portals) - 1

    def parent_relation(
        self, root_portal: Portal
    ) -> Dict[Portal, Optional[Portal]]:
        """Parents in the portal tree rooted at ``root_portal`` (oracle)."""
        parent: Dict[Portal, Optional[Portal]] = {root_portal: None}
        queue = deque([root_portal])
        while queue:
            p = queue.popleft()
            for q in self.portal_adjacency[p]:
                if q not in parent:
                    parent[q] = p
                    queue.append(q)
        return parent


def portal_sides(
    structure: AmoebotStructure, portal: Portal
) -> Tuple[Set[Node], Set[Node]]:
    """Split the structure at a portal into its two sides (§5.3 inputs).

    Returns ``(A, B)`` where ``B`` is the union of the connected
    components of ``X \\ P`` that touch ``P`` from the rotated-north
    side at their point of contact and ``A`` is everything else
    *including the portal*.  ``A ∪ P`` and ``B`` are exactly the
    member/complement pair :func:`repro.spf.propagate.propagate_forest`
    expects (every ``A``-to-``B`` path crosses ``P``, Lemma 13).
    """
    system_rotation = int(portal.axis)
    north_dirs = {
        counterclockwise(Direction.NW, system_rotation),
        counterclockwise(Direction.NE, system_rotation),
    }
    portal_set = set(portal.nodes)
    remaining = set(structure.nodes) - portal_set
    a_side: Set[Node] = set(portal_set)
    b_side: Set[Node] = set()
    while remaining:
        start = next(iter(remaining))
        component = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in structure.neighbors(u):
                if v in remaining and v not in component:
                    component.add(v)
                    stack.append(v)
        remaining -= component
        touches_north = any(
            p.neighbor(d) in component
            for p in portal_set
            for d in north_dirs
            if structure.has_neighbor(p, d)
        )
        if touches_north:
            b_side |= component
        else:
            a_side |= component
    return a_side, b_side


def portal_distance_identity(
    structure: AmoebotStructure,
    systems: Dict[Axis, PortalSystem],
    u: Node,
    v: Node,
    dist_uv: int,
) -> bool:
    """Check Lemma 11 for one node pair: ``2 dist = dist_x+dist_y+dist_z``."""
    total = 0
    for axis, system in systems.items():
        start = system.portal_of[u]
        distances = system.portal_graph_distances(start)
        total += distances[system.portal_of[v]]
    return total == 2 * dist_uv
