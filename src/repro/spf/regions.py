"""Region decomposition for the divide & conquer algorithm (§5.4.1).

The structure is split along the source-bearing portals ``Q' = Q ∪ A_Q``
of one chosen axis:

1. every portal ``P ∈ Q'`` is duplicated into a north copy and a south
   copy, taking along the portal-tree edges on its side (``P`` itself
   belongs to both sides);
2. within each side, ``P`` marks its connector amoebot toward every
   adjacent ``V_Q``-portal, unmarks the westernmost mark, and splits
   into *subportals* at the remaining marks (marked amoebots belong to
   both neighboring subportals); each incident portal-tree edge is
   assigned to the subportal interval containing its connector, with
   boundary (marked) connectors assigned eastward.

Regions are the connected components of the resulting split portal
graph; each intersects one or two ``Q'`` (sub)portals (Lemma 52).  The
bookkeeping lives in the driver — every amoebot could maintain its
region memberships with O(1) local flags — while all round costs of the
construction are the primitives charged by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.grid.coords import Node
from repro.grid.directions import Direction
from repro.portals.portals import Portal, PortalSystem
from repro.spf.types import Forest


@dataclass(frozen=True, eq=False)
class SubPortal:
    """One (sub)portal vertex of the split portal graph.

    Vertices are created exactly once per decomposition (``eq=False``):
    identity comparison and hashing keep the split-graph adjacency and
    the region bookkeeping free of portal-length tuple hashing.
    """

    portal: Portal
    side: Optional[str]  # "N"/"S" for Q' portals, None for ordinary ones
    index: int  # interval index within the side
    start: int  # first node index within the portal (inclusive)
    end: int  # last node index (inclusive)

    @property
    def nodes(self) -> Tuple[Node, ...]:
        """The amoebots of this (sub)portal interval."""
        return self.portal.nodes[self.start : self.end + 1]

    @property
    def is_boundary(self) -> bool:
        """Whether this vertex is a piece of a Q' portal."""
        return self.side is not None


@dataclass
class Region:
    """A region: a connected set of (sub)portals with its node set."""

    vertices: List[SubPortal]
    nodes: Set[Node] = field(default_factory=set)
    forest: Optional[Forest] = None

    def __post_init__(self) -> None:
        if not self.nodes:
            for v in self.vertices:
                self.nodes.update(v.nodes)

    def boundary_vertices(self) -> List[SubPortal]:
        """The region's Q'-(sub)portal vertices."""
        return [v for v in self.vertices if v.is_boundary]

    def boundary_portals(self) -> Set[Portal]:
        """The distinct Q' portals the region touches."""
        return {v.portal for v in self.boundary_vertices()}


def _is_north_side(system: PortalSystem, u: Node, v: Node) -> bool:
    """Whether connector edge u->v leaves on the rotated-north side."""
    d = u.direction_to(v)
    return d in (system.rotate(Direction.NW), system.rotate(Direction.NE))


class RegionDecomposition:
    """The split portal graph, its regions, and the merge bookkeeping."""

    def __init__(
        self,
        system: PortalSystem,
        q_prime: Set[Portal],
        vq: Set[Portal],
    ):
        self.system = system
        self.q_prime = set(q_prime)
        self.vq = set(vq)
        #: subportal vertices per portal: {portal: {side: [SubPortal...]}}
        self.vertices_of: Dict[Portal, Dict[Optional[str], List[SubPortal]]] = {}
        #: marks per Q' portal and side: node indices splitting the side
        self.marks: Dict[Tuple[Portal, str], List[int]] = {}
        self.regions: List[Region] = []
        self._region_of_vertex: Dict[SubPortal, int] = {}
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _side_of(self, p1: Portal, p2: Portal) -> str:
        """Side ("N"/"S") of adjacent portal ``p2`` as seen from ``p1``."""
        u, v = self.system.connector[(p1, p2)]
        return "N" if _is_north_side(self.system, u, v) else "S"

    def _node_index(self, portal: Portal, node: Node) -> int:
        nid = self.system.structure.grid_index().id_of(node)
        if nid is not None and self.system.portal_offset_of_id[nid] >= 0:
            return self.system.portal_offset_of_id[nid]
        return portal.nodes.index(node)

    def _build(self) -> None:
        # 1. subportal vertices.
        for portal in self.system.portals:
            if portal not in self.q_prime:
                self.vertices_of[portal] = {
                    None: [SubPortal(portal, None, 0, 0, len(portal.nodes) - 1)]
                }
                continue
            sides: Dict[Optional[str], List[SubPortal]] = {}
            for side in ("N", "S"):
                vq_connectors = []
                for p2 in self.system.portal_adjacency[portal]:
                    if p2 in self.vq and self._side_of(portal, p2) == side:
                        u, _v = self.system.connector[(portal, p2)]
                        vq_connectors.append(self._node_index(portal, u))
                vq_connectors.sort()
                # Unmark the westernmost connector; split at the rest.
                marks = vq_connectors[1:]
                self.marks[(portal, side)] = marks
                boundaries = [0] + marks + [len(portal.nodes) - 1]
                intervals: List[SubPortal] = []
                if marks:
                    for i in range(len(marks) + 1):
                        start = boundaries[0] if i == 0 else marks[i - 1]
                        end = (
                            marks[i] if i < len(marks) else len(portal.nodes) - 1
                        )
                        intervals.append(SubPortal(portal, side, i, start, end))
                else:
                    intervals.append(
                        SubPortal(portal, side, 0, 0, len(portal.nodes) - 1)
                    )
                sides[side] = intervals
            self.vertices_of[portal] = sides

    def _vertex_for_edge(self, p1: Portal, p2: Portal) -> SubPortal:
        """The (sub)portal vertex of ``p1`` owning the edge to ``p2``."""
        sides = self.vertices_of[p1]
        if p1 not in self.q_prime:
            return sides[None][0]
        side = self._side_of(p1, p2)
        u, _v = self.system.connector[(p1, p2)]
        idx = self._node_index(p1, u)
        intervals = sides[side]
        marks = self.marks[(p1, side)]
        # Boundary (marked) connectors are assigned eastward: the
        # interval that *starts* at the mark.
        for i, interval in enumerate(intervals):
            if i > 0 and idx == interval.start:
                return interval
            if interval.start <= idx <= interval.end:
                if idx == interval.end and idx in marks:
                    continue  # belongs to the next (eastward) interval
                return interval
        raise AssertionError("connector index outside all intervals")

    def build_regions(self) -> List[Region]:
        """Connected components of the split portal graph."""
        adjacency: Dict[SubPortal, List[SubPortal]] = {}
        for portal, sides in self.vertices_of.items():
            for vertex_list in sides.values():
                for vertex in vertex_list:
                    adjacency.setdefault(vertex, [])
        for p1 in self.system.portals:
            for p2 in self.system.portal_adjacency[p1]:
                if p1 >= p2:
                    continue
                v1 = self._vertex_for_edge(p1, p2)
                v2 = self._vertex_for_edge(p2, p1)
                adjacency[v1].append(v2)
                adjacency[v2].append(v1)

        seen: Set[SubPortal] = set()
        self.regions = []
        for start in adjacency:
            if start in seen:
                continue
            component = [start]
            seen.add(start)
            stack = [start]
            while stack:
                v = stack.pop()
                for w in adjacency[v]:
                    if w not in seen:
                        seen.add(w)
                        component.append(w)
                        stack.append(w)
            region = Region(vertices=component)
            boundary = region.boundary_portals()
            if len(boundary) > 2:
                raise AssertionError(
                    f"region intersects {len(boundary)} Q' portals; "
                    "Lemma 52 violated"
                )
            index = len(self.regions)
            self.regions.append(region)
            for v in component:
                self._region_of_vertex[v] = index
        return self.regions

    # ------------------------------------------------------------------
    # merge bookkeeping
    # ------------------------------------------------------------------
    def region_of_vertex(self, vertex: SubPortal) -> Region:
        """Current region owning a (sub)portal vertex."""
        return self.regions[self._region_of_vertex[vertex]]

    def side_vertices(self, portal: Portal, side: str) -> List[SubPortal]:
        """The subportal intervals of one side, west to east."""
        if portal not in self.q_prime:
            raise KeyError("only Q' portals have sides")
        return list(self.vertices_of[portal][side])

    def replace_regions(self, old: List[Region], merged: Region) -> None:
        """Install a merged region in place of the given ones."""
        old_ids = {id(r) for r in old}
        index = len(self.regions)
        self.regions.append(merged)
        for vertex, region_index in list(self._region_of_vertex.items()):
            if id(self.regions[region_index]) in old_ids:
                self._region_of_vertex[vertex] = index
