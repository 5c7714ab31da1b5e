"""Axial coordinates on the triangular grid.

A :class:`Node` is an immutable pair of axial coordinates.  The triangular
grid is the adjacency structure of a hexagonal lattice: each node has six
neighbors.  :func:`grid_distance` is the closed-form distance in the
*infinite* grid; shortest-path distance inside a finite amoebot structure
(the induced subgraph :math:`G_X`) is generally larger and computed by the
BFS oracle in :mod:`repro.grid.oracle`.

``Node`` is a :class:`typing.NamedTuple`, so hashing, equality, ordering
and construction run in C.  Invariant: its hash is ``hash((x, y))``, the
hash of its field tuple.  Set and dict iteration order over nodes — and
with it every tie-break, round count and pinned forest — depends on that
hash, so it must not change.  A node compares equal to the plain tuple
of its coordinates: ``Node(1, 2) == (1, 2)``.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Tuple

from repro.grid.directions import (
    Axis,
    Direction,
    DIRECTION_OFFSETS,
    all_directions_ccw,
    direction_between,
)


class Node(NamedTuple):
    """A node of the infinite triangular grid in axial coordinates.

    Hash, equality and order are those of the tuple ``(x, y)``.
    """

    x: int
    y: int

    def neighbor(self, direction: Direction) -> "Node":
        """The adjacent node one step in ``direction``."""
        dx, dy = DIRECTION_OFFSETS[direction]
        return Node(self.x + dx, self.y + dy)

    def neighbors(self) -> List["Node"]:
        """All six adjacent nodes, in counterclockwise order from East."""
        return [self.neighbor(d) for d in all_directions_ccw()]

    def direction_to(self, other: "Node") -> Direction:
        """Direction of the edge from ``self`` to an adjacent ``other``."""
        return direction_between((self.x, self.y), (other.x, other.y))

    def is_adjacent(self, other: "Node") -> bool:
        """Whether ``other`` is one of the six grid neighbors."""
        delta = (other.x - self.x, other.y - self.y)
        return delta in _OFFSETS

    def axis_coordinate(self, axis: Axis) -> int:
        """Coordinate that is *constant* along lines parallel to ``axis``.

        Two nodes lie on the same maximal ``axis``-parallel grid line iff
        their ``axis_coordinate`` agrees.  This is what identifies the
        portal a node belongs to (Section 2.3):

        * X lines (E/W) have constant ``y``,
        * Y lines (NE/SW) have constant ``x``,
        * Z lines (NW/SE) have constant ``x + y``.
        """
        if axis is Axis.X:
            return self.y
        if axis is Axis.Y:
            return self.x
        return self.x + self.y

    def cartesian(self) -> Tuple[float, float]:
        """Cartesian embedding (for visualization)."""
        return (self.x + self.y / 2.0, self.y * math.sqrt(3.0) / 2.0)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Node({self.x}, {self.y})"


_OFFSETS = frozenset(DIRECTION_OFFSETS.values())


def grid_distance(u: Node, v: Node) -> int:
    """Distance between two nodes in the *infinite* triangular grid.

    With axial coordinates this is the standard hexagonal distance
    ``(|dx| + |dy| + |dx + dy|) / 2``.
    """
    dx = v.x - u.x
    dy = v.y - u.y
    return (abs(dx) + abs(dy) + abs(dx + dy)) // 2


def parallelogram_nodes(width: int, height: int, origin: Node = Node(0, 0)) -> List[Node]:
    """Nodes of a ``width x height`` parallelogram anchored at ``origin``.

    Convenience used by workload generators and tests.
    """
    if width < 1 or height < 1:
        raise ValueError("parallelogram dimensions must be positive")
    return [
        Node(origin.x + i, origin.y + j)
        for j in range(height)
        for i in range(width)
    ]
