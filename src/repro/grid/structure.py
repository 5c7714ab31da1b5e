"""Finite amoebot structures: connected node sets on the triangular grid.

An :class:`AmoebotStructure` is the set ``X`` of occupied nodes.  It offers
adjacency queries on the induced subgraph :math:`G_X` and validates the
paper's standing assumptions (connectivity; optionally hole-freeness)
once, on the grid index it builds with the structure.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.grid.compiled import GridIndex
from repro.grid.coords import Node
from repro.grid.directions import Axis, Direction, all_directions_ccw


class StructureError(ValueError):
    """Raised when a node set violates the model's standing assumptions."""


class AmoebotStructure:
    """A connected set of occupied triangular-grid nodes.

    Parameters
    ----------
    nodes:
        The occupied nodes.  Duplicates are ignored.
    require_hole_free:
        If true (the default), reject structures with holes: the paper's
        algorithms assume :math:`G_{V_\\Delta \\setminus X}` is connected
        (Section 1.1).  Pass ``False`` for tests that exercise hole
        detection itself.
    """

    def __init__(self, nodes: Iterable[Node], require_hole_free: bool = True):
        node_set = frozenset(nodes)
        if not node_set:
            raise StructureError("amoebot structure must be non-empty")
        self._nodes: FrozenSet[Node] = node_set
        self._neighbor_cache: Dict[Node, Tuple[Node, ...]] = {}
        self._grid_index = GridIndex(node_set)
        components, holes = self._grid_index.topology()
        if components != 1:
            raise StructureError("amoebot structure must be connected")
        if require_hole_free and holes:
            raise StructureError("amoebot structure must be hole-free")
        self._holes: Optional[int] = holes

    @classmethod
    def from_validated(
        cls,
        nodes: Iterable[Node],
        basis: Optional["AmoebotStructure"] = None,
        dirty: Iterable[Node] = (),
    ) -> "AmoebotStructure":
        """Trusted constructor: skip the connectivity and hole re-scan.

        The dynamics editor validates edits *incrementally* (one O(1)
        neighborhood check per operation, see
        :class:`repro.dynamics.edits.StructureEditor`), so rebuilding a
        structure after a validated edit batch must not pay the O(n)
        validation of ``__init__`` again; it is this constructor's
        caller.  (The sub-structures of a solve are id subsets of the
        engine structure's grid index, not structures.)  Callers assert
        that ``nodes`` is non-empty, connected, and hole-free.

        Given the previous structure as ``basis`` and the edited nodes
        as ``dirty``, the basis's :meth:`grid_index` is *derived* —
        patched only around the edited cells, with every surviving
        node's integer id kept stable — instead of rebuilt; without a
        basis (or if ``dirty`` missed an edit) the index is built from
        scratch.
        """
        self = cls.__new__(cls)
        node_set = frozenset(nodes)
        if not node_set:
            raise StructureError("amoebot structure must be non-empty")
        self._nodes = node_set
        self._neighbor_cache = {}
        self._holes = None
        index = None
        if basis is not None:
            dirty_nodes = tuple(dirty)
            basis_nodes = basis._nodes
            added = [u for u in dirty_nodes if u in node_set and u not in basis_nodes]
            removed = [u for u in dirty_nodes if u in basis_nodes and u not in node_set]
            derived = basis._grid_index.derive(added, removed)
            if len(derived) == len(node_set):
                index = derived
        self._grid_index = index if index is not None else GridIndex(node_set)
        return self

    # ------------------------------------------------------------------
    # flat integer index
    # ------------------------------------------------------------------
    def grid_index(self) -> GridIndex:
        """The structure's :class:`~repro.grid.compiled.GridIndex`.

        Built with the structure (every node hashed exactly once into a
        dense id), and the constructor's validation reads it; structures
        produced by :meth:`from_validated` with a ``basis`` inherit a
        derived index with stable ids instead.  Layout construction,
        portal building, and region splitting all run over its flat
        arrays.
        """
        return self._grid_index

    def hole_count(self) -> int:
        """The number of holes, counted once on the grid index.

        The constructor counts them while validating; a trusted
        structure (:meth:`from_validated`) counts on first call.
        """
        holes = self._holes
        if holes is None:
            holes = self._holes = self._grid_index.topology()[1]
        return holes

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> FrozenSet[Node]:
        """The occupied node set ``X``."""
        return self._nodes

    def __contains__(self, node: Node) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AmoebotStructure):
            return NotImplemented
        return self._nodes == other._nodes

    def __hash__(self) -> int:
        return hash(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"AmoebotStructure(n={len(self._nodes)})"

    # ------------------------------------------------------------------
    # adjacency in the induced subgraph G_X
    # ------------------------------------------------------------------
    def neighbors(self, node: Node) -> Tuple[Node, ...]:
        """Occupied neighbors of ``node`` in counterclockwise order.

        Read off the grid index and cached per node.
        """
        cached = self._neighbor_cache.get(node)
        if cached is None:
            index = self._grid_index
            i = index.id_of(node)
            if i is None:
                raise KeyError(f"{node} is not part of the structure")
            nodes = index.nodes
            cached = tuple(nodes[j] for j in index.nbr[6 * i:6 * i + 6] if j >= 0)
            self._neighbor_cache[node] = cached
        return cached

    def degree(self, node: Node) -> int:
        """Number of occupied neighbors."""
        return len(self.neighbors(node))

    def has_neighbor(self, node: Node, direction: Direction) -> bool:
        """Whether the adjacent node in ``direction`` is occupied."""
        i = self._grid_index.id_of(node)
        if i is None:
            return node.neighbor(direction) in self._nodes
        return self._grid_index.nbr[6 * i + direction] >= 0

    def occupied_directions(self, node: Node) -> List[Direction]:
        """Directions toward occupied neighbors, counterclockwise order."""
        return [d for d in all_directions_ccw() if self.has_neighbor(node, d)]

    def edges(self) -> List[Tuple[Node, Node]]:
        """All undirected edges of :math:`G_X` (each listed once)."""
        result: List[Tuple[Node, Node]] = []
        for u in self._nodes:
            for d in (Direction.E, Direction.NE, Direction.NW):
                v = u.neighbor(d)
                if v in self._nodes:
                    result.append((u, v))
        return result

    def edge_count(self) -> int:
        """Number of undirected edges of :math:`G_X`."""
        return len(self.edges())

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def bounding_box(self) -> Tuple[int, int, int, int]:
        """Return ``(min_x, max_x, min_y, max_y)`` of the node set."""
        xs = [u.x for u in self._nodes]
        ys = [u.y for u in self._nodes]
        return (min(xs), max(xs), min(ys), max(ys))

    def westernmost(self, nodes: Optional[Iterable[Node]] = None) -> Node:
        """The unique westernmost node of ``nodes`` (default: all).

        Ties on ``x + y/2`` (the Cartesian horizontal) are broken by the
        axial coordinates, making the choice deterministic — amoebots can
        agree on it because they share a compass.
        """
        pool = self._nodes if nodes is None else list(nodes)
        return min(pool, key=lambda u: (2 * u.x + u.y, u.y, u.x))

    def northernmost(self, nodes: Optional[Iterable[Node]] = None) -> Node:
        """The deterministic northernmost node of ``nodes`` (default: all)."""
        pool = self._nodes if nodes is None else list(nodes)
        return max(pool, key=lambda u: (u.y, -u.x))

    def line_through(self, node: Node, axis: Axis) -> List[Node]:
        """Maximal occupied contiguous line through ``node`` along ``axis``.

        This is exactly the *portal* of ``node`` for ``axis``
        (Definition 7 adapted to triangular grids).  Nodes are returned in
        order along the positive axis direction.
        """
        pos, neg = axis.directions
        line = [node]
        cur = node.neighbor(neg)
        while cur in self._nodes:
            line.append(cur)
            cur = cur.neighbor(neg)
        line.reverse()
        cur = node.neighbor(pos)
        while cur in self._nodes:
            line.append(cur)
            cur = cur.neighbor(pos)
        return line
