"""Directions and axes of the triangular grid.

We use axial coordinates: node ``(x, y)`` lies at Cartesian position
``(x + y/2, y * sqrt(3)/2)``.  The six unit directions, in counterclockwise
order starting from East, are::

    E  = ( 1,  0)      NE = ( 0,  1)      NW = (-1,  1)
    W  = (-1,  0)      SW = ( 0, -1)      SE = ( 1, -1)

Every edge of the grid is parallel to exactly one of three axes:

* :attr:`Axis.X` — the E/W axis,
* :attr:`Axis.Y` — the NE/SW axis,
* :attr:`Axis.Z` — the NW/SE axis.

This matches Figure 2e of the paper (x horizontal, y and z the two
diagonals).  All amoebots share this labeling because the model assumes a
common compass orientation and chirality (Section 1.1).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Tuple


class Direction(enum.IntEnum):
    """The six edge directions of the triangular grid, counterclockwise."""

    E = 0
    NE = 1
    NW = 2
    W = 3
    SW = 4
    SE = 5

    @property
    def offset(self) -> Tuple[int, int]:
        """Axial coordinate offset of one step in this direction."""
        return DIRECTION_OFFSETS[self]

    @property
    def axis(self) -> "Axis":
        """The axis this direction is parallel to."""
        return _DIRECTION_AXIS[self]


class Axis(enum.IntEnum):
    """The three edge axes of the triangular grid (Figure 2e)."""

    X = 0
    Y = 1
    Z = 2

    @property
    def directions(self) -> Tuple[Direction, Direction]:
        """The two directions parallel to this axis (positive first)."""
        return AXIS_DIRECTIONS[self]

    @property
    def others(self) -> Tuple["Axis", "Axis"]:
        """The two other axes."""
        return tuple(a for a in Axis if a is not self)  # type: ignore[return-value]


DIRECTION_OFFSETS: Dict[Direction, Tuple[int, int]] = {
    Direction.E: (1, 0),
    Direction.NE: (0, 1),
    Direction.NW: (-1, 1),
    Direction.W: (-1, 0),
    Direction.SW: (0, -1),
    Direction.SE: (1, -1),
}

AXIS_DIRECTIONS: Dict[Axis, Tuple[Direction, Direction]] = {
    Axis.X: (Direction.E, Direction.W),
    Axis.Y: (Direction.NE, Direction.SW),
    Axis.Z: (Direction.NW, Direction.SE),
}

_DIRECTION_AXIS: Dict[Direction, Axis] = {
    Direction.E: Axis.X,
    Direction.W: Axis.X,
    Direction.NE: Axis.Y,
    Direction.SW: Axis.Y,
    Direction.NW: Axis.Z,
    Direction.SE: Axis.Z,
}

_OFFSET_DIRECTION: Dict[Tuple[int, int], Direction] = {
    off: d for d, off in DIRECTION_OFFSETS.items()
}


#: Rotation tables: enum construction (``Direction(i)``) is surprisingly
#: expensive and these helpers sit on the simulator's hottest paths.
_ROTATED: List[Direction] = [Direction(i % 6) for i in range(12)]

#: ``OPPOSITE_VALUES[d]`` is the *value* of the direction opposite to
#: value ``d`` — the int-space twin of :func:`opposite` for the flat
#: grid-index/layout loops that avoid enum construction entirely.
OPPOSITE_VALUES: Tuple[int, ...] = (3, 4, 5, 0, 1, 2)

#: ``RING_ARCS[mask]`` is the number of maximal runs of set bits in a
#: cyclic six-cell ring mask (bit ``d`` = the neighbor in direction
#: value ``d``); the full ring is one arc.  Occupied arcs of a ring are
#: ``RING_ARCS[mask]``, empty arcs ``RING_ARCS[mask ^ 63]``.
RING_ARCS: Tuple[int, ...] = tuple(
    1 if mask == 63 else sum(
        1 for d in range(6) if mask >> d & 1 and not mask >> (d - 1) % 6 & 1
    )
    for mask in range(64)
)


def opposite(direction: Direction) -> Direction:
    """Return the direction pointing the opposite way."""
    return _ROTATED[direction + 3]


def counterclockwise(direction: Direction, steps: int = 1) -> Direction:
    """Rotate a direction counterclockwise by ``steps`` sixths of a turn."""
    return _ROTATED[(direction + steps) % 6]


def clockwise(direction: Direction, steps: int = 1) -> Direction:
    """Rotate a direction clockwise by ``steps`` sixths of a turn."""
    return _ROTATED[(direction - steps) % 6]


def direction_between(src: Tuple[int, int], dst: Tuple[int, int]) -> Direction:
    """Direction of the grid edge from ``src`` to an adjacent ``dst``.

    Raises :class:`ValueError` if the nodes are not adjacent.
    """
    delta = (dst[0] - src[0], dst[1] - src[1])
    try:
        return _OFFSET_DIRECTION[delta]
    except KeyError:
        raise ValueError(f"nodes {src} and {dst} are not adjacent") from None


_CCW_ORDERS: Dict[Direction, Tuple[Direction, ...]] = {
    d: tuple(_ROTATED[(d + i) % 6] for i in range(6)) for d in Direction
}


def all_directions_ccw(start: Direction = Direction.E) -> List[Direction]:
    """All six directions in counterclockwise order starting at ``start``."""
    return list(_CCW_ORDERS[start])
