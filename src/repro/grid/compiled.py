"""Flat integer index over an amoebot structure's triangular grid.

A :class:`GridIndex` hashes every node of an
:class:`~repro.grid.structure.AmoebotStructure` exactly once into a
dense integer id and materializes the adjacency of the induced subgraph
as flat arrays:

* ``nbr[id * 6 + d]`` — the id of the occupied neighbor in direction
  ``d`` (:class:`~repro.grid.directions.Direction` value order), or
  ``-1``;
* ``deg[id]`` — the number of occupied neighbors;
* ``boundary[id]`` — 1 iff the node has at least one unoccupied
  neighbor (it lies on the structure's boundary).

Everything downstream that used to flood-fill ``Set[Node]`` or key
dicts by coordinate tuples — layout construction and validation, pin
mates, portal and implicit-tree building, region splitting — runs over
these arrays instead, so coordinates are hashed once per structure
rather than once per touch.

Indices follow a structure through edits: deriving from a basis index
(:meth:`GridIndex.derive`, used by
:meth:`AmoebotStructure.from_validated`) patches only the six-cell
neighborhoods of the edited nodes and keeps every surviving node's id
stable, which is what lets frozen circuit layouts carry their integer
pin tables across structure versions
(:meth:`~repro.sim.circuits.CircuitLayout.derive_for`).  Removed nodes
leave tombstone slots (``nodes[id] is None``) so ids never shift;
ids of departed nodes remain resolvable through :meth:`slot_of` until
their owner is re-added.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Tuple

from repro.grid.coords import Node
from repro.grid.directions import DIRECTION_OFFSETS, OPPOSITE_VALUES as _OPP, Direction
from repro.obs.trace import trace_span

#: Direction offsets in direction-value order (E, NE, NW, W, SW, SE).
_OFFSETS: Tuple[Tuple[int, int], ...] = tuple(
    DIRECTION_OFFSETS[Direction(d)] for d in range(6)
)

class GridIndexStats:
    """Counters for grid-index construction (probe for tests/CI).

    ``full_builds`` counts from-scratch index constructions (one O(n)
    hashing pass each); ``derives`` counts incremental patches across
    structure edits, which touch only the edited neighborhoods.  The
    perf-smoke contract asserts that churn never re-indexes a whole
    structure: after the initial build, batches must only ``derive``.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero all counters (tests do this before probing a run)."""
        self.full_builds = 0
        self.derives = 0

    def to_dict(self) -> dict:
        """All counters as a JSON-ready mapping (``/stats`` payload)."""
        return dict(vars(self))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"GridIndexStats(full={self.full_builds}, derives={self.derives})"


#: Process-wide grid-index counters; purely observational.
GRID_STATS = GridIndexStats()


def _build_tables(ordered: List[Node]) -> Tuple[array, bytearray, bytearray]:
    """Neighbor/degree/boundary tables by one hashing pass.

    ``ordered`` must already be sorted; ids are list positions.
    """
    pos: Dict[Node, int] = {u: i for i, u in enumerate(ordered)}
    nbr = array("i", [-1] * (6 * len(ordered)))
    deg = bytearray(len(ordered))
    boundary = bytearray(len(ordered))
    get = pos.get
    base = 0
    for u in ordered:
        x, y = u.x, u.y
        d = 0
        count = 0
        for dx, dy in _OFFSETS:
            j = get(Node(x + dx, y + dy))
            if j is not None:
                nbr[base + d] = j
                count += 1
            d += 1
        deg[base // 6] = count
        boundary[base // 6] = 1 if count < 6 else 0
        base += 6
    return nbr, deg, boundary


class GridIndex:
    """Dense integer ids and flat adjacency arrays for one structure.

    Ids are assigned in sorted node order for from-scratch builds, so
    two independently built indexes of the same node set agree id for
    id (layout fingerprints and cache keys built over ids are therefore
    deterministic).  Derived indexes keep surviving ids stable and
    append slots for added nodes instead.
    """

    __slots__ = (
        "nodes",
        "n_slots",
        "nbr",
        "deg",
        "boundary",
        "root",
        "canonical",
        "_pos",
        "_retired",
        "_mate_e",
        "_live",
    )

    def __init__(self, nodes: Iterable[Node]):
        node_list = list(set(nodes))
        if not node_list:
            raise ValueError("grid index requires at least one node")
        with trace_span("grid_tables", n=len(node_list)):
            ordered = sorted(node_list)
            nbr, deg, boundary = _build_tables(ordered)
        self.nodes: List[Optional[Node]] = list(ordered)
        self.n_slots = len(ordered)
        self._live = len(ordered)
        self._pos: Dict[Node, int] = {u: i for i, u in enumerate(ordered)}
        #: Ids of recently removed nodes (resolvable until re-added).
        self._retired: Dict[Node, int] = {}
        self.nbr = nbr
        self.deg = deg
        self.boundary = boundary
        #: Identity token shared along a derive chain; integer ids are
        #: only comparable between indexes with the same root.
        self.root: object = self
        #: From-scratch indexes assign ids in sorted node order, so two
        #: indexes of equal node sets agree id for id; derived indexes
        #: (stable ids + appended slots) do not have this property.
        #: Cache keys built over ids may be shared across structures
        #: only when this is true.
        self.canonical = True
        self._mate_e: Optional[array] = None
        GRID_STATS.full_builds += 1

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of live (non-tombstone) nodes."""
        return self._live

    def id_of(self, node: Node) -> Optional[int]:
        """The id of a live ``node``, or ``None``."""
        return self._pos.get(node)

    def slot_of(self, node: Node) -> Optional[int]:
        """Like :meth:`id_of`, but also resolves recently removed nodes.

        Layout patching across structure edits releases the partition
        sets of departed amoebots *after* the new index exists; their
        ids stay resolvable here until the node is re-added.
        """
        i = self._pos.get(node)
        if i is None:
            i = self._retired.get(node)
        return i

    def node_at(self, i: int) -> Node:
        """The node with id ``i`` (raises for tombstones)."""
        node = self.nodes[i]
        if node is None:
            raise KeyError(f"grid-index slot {i} is a tombstone")
        return node

    def live_ids(self) -> Iterable[int]:
        """All live ids (ascending)."""
        nodes = self.nodes
        return (i for i in range(self.n_slots) if nodes[i] is not None)

    def neighbor_id(self, i: int, direction: int) -> int:
        """Id of the occupied neighbor of ``i`` toward ``direction`` (-1 if none)."""
        return self.nbr[i * 6 + direction]

    def edge_between(self, i: int, j: int) -> int:
        """Edge id ``i * 6 + d`` of the edge from ``i`` to neighbor ``j``.

        Raises :class:`KeyError` when the two are not adjacent.
        """
        nbr = self.nbr
        base = i * 6
        for d in range(6):
            if nbr[base + d] == j and j >= 0:
                return base + d
        raise KeyError(f"grid-index ids {i} and {j} are not adjacent")

    def occupied_direction_values(self, i: int) -> List[int]:
        """Direction *values* toward occupied neighbors, ascending (= ccw from E)."""
        nbr = self.nbr
        base = i * 6
        return [d for d in range(6) if nbr[base + d] >= 0]

    # ------------------------------------------------------------------
    # derived tables
    # ------------------------------------------------------------------
    def mate_edges(self) -> array:
        """``mate_e[i * 6 + d]`` = the mirror edge slot ``j * 6 + opp(d)``.

        The table turns pin-mate resolution into one array read:
        a pin encoded as ``(i * 6 + d) * c + ch`` has its mate at
        ``(mate_e[i * 6 + d]) * c + ch``.  Entries of absent edges are
        ``-1``.  Built lazily (one pass over ``nbr``) and invalidated
        by :meth:`derive`.
        """
        mate = self._mate_e
        if mate is None:
            nbr = self.nbr
            mate = array("i", [-1] * len(nbr))
            for e in range(len(nbr)):
                j = nbr[e]
                if j >= 0:
                    mate[e] = j * 6 + _OPP[e % 6]
            self._mate_e = mate
        return mate

    # ------------------------------------------------------------------
    # incremental patching across structure edits
    # ------------------------------------------------------------------
    def derive(
        self,
        added: Iterable[Node],
        removed: Iterable[Node],
    ) -> "GridIndex":
        """A new index for the edited node set, patching only the edits.

        Surviving nodes keep their ids; removed nodes become tombstones
        (still resolvable via :meth:`slot_of`); added nodes get fresh
        ids appended at the end.  All array updates touch only the
        six-cell neighborhoods of the edited nodes — churn never pays
        the O(n) hashing pass of a from-scratch build again.

        Slots are append-only on purpose: reusing a tombstone would
        recycle pin encodings that layouts carried over from earlier
        versions of the chain.  The cost is that ``n_slots`` (and the
        per-derive array copies) grow with *cumulative* adds, not live
        size — fine for the bounded edit scripts the dynamics layer
        runs; a very long-lived chain can re-anchor by building a
        fresh canonical index (``GridIndex(structure.nodes)``) at a
        point where no live layout still references the old ids (e.g.
        a full re-solve).
        """
        clone = GridIndex.__new__(GridIndex)
        clone.nodes = list(self.nodes)
        clone.n_slots = self.n_slots
        clone._live = self._live
        clone._pos = dict(self._pos)
        clone._retired = dict(self._retired)
        clone.nbr = array("i", self.nbr)
        clone.deg = bytearray(self.deg)
        clone.boundary = bytearray(self.boundary)
        clone.root = self.root
        clone.canonical = False
        clone._mate_e = None
        GRID_STATS.derives += 1

        nbr = clone.nbr
        deg = clone.deg
        boundary = clone.boundary
        pos = clone._pos

        for u in removed:
            i = pos.pop(u, None)
            if i is None:
                raise KeyError(f"cannot remove {u}: not in the index")
            base = i * 6
            for d in range(6):
                j = nbr[base + d]
                if j >= 0:
                    nbr[j * 6 + _OPP[d]] = -1
                    deg[j] -= 1
                    boundary[j] = 1
                nbr[base + d] = -1
            deg[i] = 0
            boundary[i] = 0
            clone.nodes[i] = None
            clone._retired[u] = i
            clone._live -= 1

        get = pos.get
        for u in added:
            if u in pos:
                raise KeyError(f"cannot add {u}: already in the index")
            i = clone.n_slots
            clone.n_slots += 1
            clone.nodes.append(u)
            clone._retired.pop(u, None)
            pos[u] = i
            nbr.extend((-1, -1, -1, -1, -1, -1))
            deg.append(0)
            boundary.append(0)
            base = i * 6
            count = 0
            x, y = u.x, u.y
            for d in range(6):
                dx, dy = _OFFSETS[d]
                j = get(Node(x + dx, y + dy))
                if j is not None:
                    nbr[base + d] = j
                    nbr[j * 6 + _OPP[d]] = i
                    deg[j] += 1
                    boundary[j] = 1 if deg[j] < 6 else 0
                    count += 1
            deg[i] = count
            boundary[i] = 1 if count < 6 else 0
            clone._live += 1
        return clone
