"""Hole detection for amoebot structures.

The paper assumes the structure ``X`` has no holes: the complement
:math:`V_\\Delta \\setminus X` induces a connected subgraph of the infinite
grid (Section 1.1).  For a finite ``X`` this is decidable by flood-filling
the complement inside a bounding box padded by one ring: every unoccupied
node inside the box must reach the outer ring.

:func:`find_holes` reports the holes.  A structure counts its own on its
grid index instead (:meth:`~repro.grid.compiled.GridIndex.topology`);
the tests hold that count to this flood fill.
"""

from __future__ import annotations

from collections import deque
from typing import FrozenSet, Iterable, List, Set

from repro.grid.coords import Node


def _complement_components(nodes: FrozenSet[Node]) -> List[Set[Node]]:
    """Connected components of the complement within a padded bounding box.

    The component touching the box border represents the infinite outer
    face; all other components are holes.
    """
    xs = [u.x for u in nodes]
    ys = [u.y for u in nodes]
    min_x, max_x = min(xs) - 1, max(xs) + 1
    min_y, max_y = min(ys) - 1, max(ys) + 1

    def in_box(u: Node) -> bool:
        return min_x <= u.x <= max_x and min_y <= u.y <= max_y

    def on_border(u: Node) -> bool:
        return u.x in (min_x, max_x) or u.y in (min_y, max_y)

    unvisited: Set[Node] = {
        Node(x, y)
        for x in range(min_x, max_x + 1)
        for y in range(min_y, max_y + 1)
        if Node(x, y) not in nodes
    }
    components: List[Set[Node]] = []
    while unvisited:
        start = unvisited.pop()
        component = {start}
        touches_border = on_border(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in u.neighbors():
                if v in unvisited and in_box(v):
                    unvisited.discard(v)
                    component.add(v)
                    if on_border(v):
                        touches_border = True
                    queue.append(v)
        if not touches_border:
            components.append(component)
    return components


def find_holes(nodes: Iterable[Node]) -> List[Set[Node]]:
    """Return the holes of a node set, each as a set of unoccupied nodes.

    A *hole* is a finite connected component of the complement
    :math:`V_\\Delta \\setminus X`.
    """
    node_set = frozenset(nodes)
    if not node_set:
        return []
    return _complement_components(node_set)


def has_holes(nodes: Iterable[Node]) -> bool:
    """Whether the node set has at least one hole."""
    return bool(find_holes(nodes))
