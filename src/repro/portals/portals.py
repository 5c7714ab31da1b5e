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
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.ett.tour import mask_adjacency
from repro.grid.coords import Node
from repro.grid.directions import OPPOSITE_VALUES as _OPP
from repro.grid.directions import Axis, Direction, counterclockwise
from repro.grid.structure import AmoebotStructure


class PortalSystem:
    """All portal-level structure of one axis for a set of amoebots.

    ``structure`` is the structure the engine runs on, and ``members``
    a connected, hole-free subset of the ids of its
    :class:`~repro.grid.compiled.GridIndex` (default: every live id).
    A region, a merged side or a shadow component of the forest
    algorithm is such a subset: amoebots of the one structure that
    keep a membership flag, not a structure with ids of its own.

    Construction runs over the index's flat neighbor array, over the
    members only, and a neighbor outside ``members`` counts as absent:
    portal runs, the local tree rule, the implicit spanning tree and
    the portal adjacency are all computed in integer space, and stay
    in it.  A portal is its number, its index into :attr:`runs`;
    portals are numbered in the order of their first ``Node``.  The
    implicit tree is :attr:`tree_masks`, which Euler tours are read
    off.  The ``Node`` views :attr:`portal_of`, :meth:`portal_nodes`
    and :attr:`implicit_adjacency` are for tests and figures.
    """

    def __init__(
        self,
        structure: AmoebotStructure,
        axis: Axis,
        members: Optional[Iterable[int]] = None,
    ):
        self.structure = structure
        self.axis = axis
        self._rotation = int(axis)  # X: 0, Y: 1, Z: 2 sixth-turns ccw
        self._gi = structure.grid_index()
        #: The member ids, ascending.
        self.ids: List[int] = (
            list(self._gi.live_ids()) if members is None else sorted(members)
        )
        #: ``inside[j]`` is 1 iff ``j`` is a member.  One spare trailing
        #: byte stays 0, so ``inside[nbr[e]]`` also reads 0 for an
        #: absent neighbor (``-1``): it is the whole membership test of
        #: a neighbor-table read.
        self.inside = bytearray(self._gi.n_slots + 1)
        for nid in self.ids:
            self.inside[nid] = 1
        #: The member ids of each portal, in positive axis direction:
        #: ``runs[k][0]`` is portal ``k``'s representative (the
        #: "westernmost" amoebot after rotation).
        self.runs: List[List[int]] = []
        #: node id -> its portal's number (-1 off the members).
        self.portal_index_of_id: List[int] = []
        #: node id -> position of the node within its portal's run.
        self.portal_offset_of_id: List[int] = []
        self._build_portals()
        #: portal number -> its neighbor portals' numbers, ascending.
        self.portal_adjacency: List[List[int]] = []
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
        inside = self.inside
        pos_dir, neg_dir = self.axis.directions
        pos_d, neg_d = int(pos_dir), int(neg_dir)
        portal_offset = [-1] * gi.n_slots
        runs: List[List[int]] = []
        for start in self.ids:
            if portal_offset[start] != -1:
                continue
            head = start
            j = nbr[head * 6 + neg_d]
            while inside[j]:
                head = j
                j = nbr[head * 6 + neg_d]
            line_ids = [head]
            j = nbr[head * 6 + pos_d]
            while inside[j]:
                line_ids.append(j)
                j = nbr[j * 6 + pos_d]
            for offset, i in enumerate(line_ids):
                portal_offset[i] = offset
            runs.append(line_ids)
        # Portals are numbered by their first node, whatever the ids' order.
        runs.sort(key=lambda run: nodes[run[0]])
        portal_index = [-1] * gi.n_slots
        for k, line_ids in enumerate(runs):
            for i in line_ids:
                portal_index[i] = k
        self.runs = runs
        self.portal_index_of_id = portal_index
        self.portal_offset_of_id = portal_offset

    @cached_property
    def portal_of(self) -> Dict[Node, int]:
        """``Node`` -> its portal's number (a view for tests and figures)."""
        nodes = self._gi.nodes
        return {nodes[i]: k for k, run in enumerate(self.runs) for i in run}

    def portal_nodes(self, k: int) -> Tuple[Node, ...]:
        """Portal ``k``'s nodes in positive axis direction (a view for
        tests and figures)."""
        nodes = self._gi.nodes
        return tuple(nodes[i] for i in self.runs[k])

    def tree_directions(self, node: Node) -> List[Direction]:
        """Incident implicit-tree edges of ``node``, by the local rule."""
        nid = self._gi.id_of(node)
        if nid is None or not self.inside[nid]:
            raise KeyError(f"{node} is not part of the structure")
        mask = self._tree_direction_mask(nid)
        return [Direction(d) for d in range(6) if mask >> d & 1]

    def _tree_direction_mask(self, nid: int) -> int:
        """The local rule over the members, as a direction bitmask."""
        nbr = self._gi.nbr
        inside = self.inside
        base = nid * 6
        r = self._rotation
        east = r
        ne = (1 + r) % 6
        nw = (2 + r) % 6
        west = (3 + r) % 6
        sw = (4 + r) % 6
        se = (5 + r) % 6
        mask = 0
        if inside[nbr[base + east]]:
            mask |= 1 << east
        if inside[nbr[base + west]]:
            mask |= 1 << west
        else:
            if inside[nbr[base + nw]]:
                mask |= 1 << nw
            if inside[nbr[base + sw]]:
                mask |= 1 << sw
        if not inside[nbr[base + nw]] and inside[nbr[base + ne]]:
            mask |= 1 << ne
        if not inside[nbr[base + sw]] and inside[nbr[base + se]]:
            mask |= 1 << se
        return mask

    def _build_implicit_tree(self) -> None:
        nbr = self._gi.nbr
        inside = self.inside
        ids = self.ids
        selected = {nid: self._tree_direction_mask(nid) for nid in ids}

        # The rule is asymmetric (selected by one endpoint); an edge
        # belongs to the tree when either endpoint selects it, which the
        # local rule makes consistent on hole-free structures.
        portal_index = self.portal_index_of_id
        masks = self.tree_masks
        adjacency_ids: Dict[int, Set[int]] = {}
        edge_count = 0
        for nid in ids:
            base = nid * 6
            mask = selected[nid]
            for d in range(6):
                j = nbr[base + d]
                if not inside[j] or not (mask >> d & 1 or selected[j] >> _OPP[d] & 1):
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

        expected = len(ids) - 1
        if edge_count != expected:
            raise AssertionError(
                f"implicit portal tree of axis {self.axis.name} has "
                f"{edge_count} edges, expected {expected}; structure may "
                "have holes"
            )

        self.portal_adjacency = [
            sorted(adjacency_ids.get(k, ())) for k in range(len(self.runs))
        ]

    @cached_property
    def connector(self) -> Dict[Tuple[int, int], Tuple[int, int]]:
        """``(p, q) -> (u, v)``: the implicit-tree edge from portal ``p``
        to its neighbor portal ``q``, as node ids (built on first use)."""
        nbr = self._gi.nbr
        portal_index = self.portal_index_of_id
        connector: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for nid, mask in self.tree_masks.items():
            for d in range(6):
                if mask >> d & 1:
                    j = nbr[nid * 6 + d]
                    if portal_index[nid] != portal_index[j]:
                        connector[(portal_index[nid], portal_index[j])] = (nid, j)
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
        return len(self.runs)

    def portal_graph_distances(self, start: int) -> Dict[int, int]:
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
        edge_count = sum(map(len, self.portal_adjacency)) // 2
        return edge_count == len(self.runs) - 1

    def parent_relation(self, root_portal: int) -> Dict[int, Optional[int]]:
        """Parents in the portal tree rooted at ``root_portal`` (oracle)."""
        parent: Dict[int, Optional[int]] = {root_portal: None}
        queue = deque([root_portal])
        while queue:
            p = queue.popleft()
            for q in self.portal_adjacency[p]:
                if q not in parent:
                    parent[q] = p
                    queue.append(q)
        return parent


def portal_sides(system: PortalSystem, portal: int) -> Tuple[Set[Node], Set[Node]]:
    """Split the system's structure at a portal into its two sides (§5.3 inputs).

    Returns ``(A, B)`` where ``B`` is the union of the connected
    components of ``X \\ P`` that touch ``P`` from the rotated-north
    side at their point of contact and ``A`` is everything else
    *including the portal*.  ``A ∪ P`` and ``B`` are exactly the
    member/complement pair :func:`repro.spf.propagate.propagate_forest`
    expects (every ``A``-to-``B`` path crosses ``P``, Lemma 13).
    """
    structure = system.structure
    north_dirs = {system.rotate(Direction.NW), system.rotate(Direction.NE)}
    portal_set = set(system.portal_nodes(portal))
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
