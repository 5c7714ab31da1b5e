"""Deterministic structure shapes.

Each generator returns a hole-free :class:`~repro.grid.AmoebotStructure`.
The shapes cover the geometries that stress different parts of the
algorithms:

* lines — the base case of the forest algorithm (Section 5.1);
* parallelograms and hexagons — dense convex structures with short
  portals in all three axes;
* triangles — degenerate portals of quickly varying length;
* combs — many short portals hanging off a spine (deep portal trees);
* staircases — long winding geodesics (large diameter at small n);
* lollipops — a dense blob attached to a long handle (asymmetric
  eccentricities, the classic bad case for wave algorithms).
"""

from __future__ import annotations

from typing import List

from repro.grid.coords import Node
from repro.grid.structure import AmoebotStructure


def line_structure(length: int, origin: Node = Node(0, 0)) -> AmoebotStructure:
    """A straight E/W line of ``length`` amoebots."""
    if length < 1:
        raise ValueError("length must be positive")
    return AmoebotStructure(Node(origin.x + i, origin.y) for i in range(length))


def parallelogram(width: int, height: int, origin: Node = Node(0, 0)) -> AmoebotStructure:
    """A ``width x height`` parallelogram (rows stacked along +y)."""
    if width < 1 or height < 1:
        raise ValueError("dimensions must be positive")
    return AmoebotStructure(
        Node(origin.x + i, origin.y + j) for j in range(height) for i in range(width)
    )


def triangle(side: int, origin: Node = Node(0, 0)) -> AmoebotStructure:
    """An upward triangle with ``side`` amoebots on its bottom row."""
    if side < 1:
        raise ValueError("side must be positive")
    nodes: List[Node] = []
    for j in range(side):
        for i in range(side - j):
            nodes.append(Node(origin.x + i, origin.y + j))
    return AmoebotStructure(nodes)


def hexagon(radius: int, origin: Node = Node(0, 0)) -> AmoebotStructure:
    """A regular hexagon of the given radius (radius 0 is a single node).

    Contains :math:`3r^2 + 3r + 1` amoebots.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    return AmoebotStructure(_hexagon_nodes(radius, origin))


def _hexagon_nodes(radius: int, origin: Node = Node(0, 0)) -> List[Node]:
    return [
        Node(origin.x + x, origin.y + y)
        for x in range(-radius, radius + 1)
        for y in range(max(-radius, -x - radius), min(radius, -x + radius) + 1)
    ]


def comb(teeth: int, tooth_length: int, spacing: int = 2) -> AmoebotStructure:
    """A comb: an E/W spine with ``teeth`` vertical teeth of given length.

    Teeth grow northward (+y direction along the Y axis) every ``spacing``
    spine positions.  Combs create portal trees of large degree.
    """
    if teeth < 1 or tooth_length < 0 or spacing < 1:
        raise ValueError("invalid comb parameters")
    spine_length = (teeth - 1) * spacing + 1
    nodes = [Node(i, 0) for i in range(spine_length)]
    for t in range(teeth):
        base_x = t * spacing
        for j in range(1, tooth_length + 1):
            # Step NE then keep x constant: a Y-axis tooth.
            nodes.append(Node(base_x, j))
    return AmoebotStructure(nodes)


def staircase(steps: int, step_size: int = 2) -> AmoebotStructure:
    """A staircase of ``steps`` E-then-NE runs of ``step_size`` amoebots.

    Produces diameter :math:`\\Theta(n)` with thin portals, the worst case
    for wave baselines and a stress test for visibility regions.
    """
    if steps < 1 or step_size < 1:
        raise ValueError("invalid staircase parameters")
    nodes = [Node(0, 0)]
    cur = Node(0, 0)
    for s in range(steps):
        for _ in range(step_size):
            cur = Node(cur.x + 1, cur.y)
            nodes.append(cur)
        if s < steps - 1:
            for _ in range(step_size):
                cur = Node(cur.x, cur.y + 1)
                nodes.append(cur)
    return AmoebotStructure(nodes)


def lollipop(blob_radius: int, handle_length: int) -> AmoebotStructure:
    """A hexagon blob with an E/W handle attached to its eastern vertex."""
    if blob_radius < 0 or handle_length < 0:
        raise ValueError("invalid lollipop parameters")
    # Copied from a frozenset of the blob, which fixes the set's iteration
    # order, and with it every tie-break downstream.
    nodes = set(frozenset(_hexagon_nodes(blob_radius)))
    for i in range(1, handle_length + 1):
        nodes.add(Node(blob_radius + i, 0))
    return AmoebotStructure(nodes)
