"""Tree scopes: what the Section 3 primitives need to know about a tree.

Every primitive of this package runs on the Euler tour of a tree of
amoebots, but decides about *units*: the tree's nodes themselves
(Section 3.4), or the portals of an implicit portal tree (Section 3.5,
:class:`repro.portals.primitives.PortalScope`).  A scope supplies

* ``units`` and ``unit_adjacency`` — the tree the decisions are about;
* ``adjacency`` — the amoebot tree the tour runs on, in rotation order;
* :meth:`tour`, :meth:`representatives` (the amoebots that beep and
  listen for units) and :meth:`unit_of` (the unit a winning amoebot
  belongs to);
* :meth:`diff` — the prefix-sum difference between adjacent units;
* :meth:`nodes_of` and :meth:`restrict` — a component's amoebots and its
  own scope;
* :meth:`announce_winner` — the round that tells a unit it was elected.

:class:`NodeScope` is the scope whose units are the nodes.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Set

from repro.ett.technique import ETTResult
from repro.ett.tour import EulerTour, build_euler_tour
from repro.grid.coords import Node
from repro.sim.engine import CircuitEngine


class NodeScope:
    """A tree of amoebots whose units are its nodes."""

    def __init__(self, adjacency: Dict[Node, List[Node]]):
        self.adjacency = adjacency
        self.units = adjacency
        self.unit_adjacency = adjacency

    def tour(self, root: Node) -> EulerTour:
        """Euler tour of the tree, rooted at ``root``."""
        return build_euler_tour(root, self.adjacency)

    def representatives(self, units: Iterable[Node]) -> Iterable[Node]:
        """Every node acts for itself."""
        return units

    def unit_of(self, node: Node) -> Node:
        """Every node is its own unit."""
        return node

    def diff(self, ett: ETTResult) -> Callable[[Node, Node], int]:
        """``prefixsum(u, v) - prefixsum(v, u)`` for tree neighbors."""
        return ett.diff

    def nodes_of(self, component: Set[Node]) -> Set[Node]:
        """A component's nodes are its units."""
        return component

    def restrict(self, component: Set[Node]) -> "NodeScope":
        """The scope of a connected subset of the nodes."""
        adjacency = self.adjacency
        return NodeScope({u: [v for v in adjacency[u] if v in component] for u in component})

    def announce_winner(self, engine: CircuitEngine) -> None:
        """A winning node already knows it won: no round."""


def split_components(
    adjacency: Dict[Hashable, List[Hashable]], removed: Hashable
) -> List[Set[Hashable]]:
    """Connected components of a tree minus one of its units."""
    components: List[Set[Hashable]] = []
    seen: Set[Hashable] = {removed}
    for start in adjacency[removed]:
        if start in seen:
            continue
        component = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if v not in component and v != removed:
                    component.add(v)
                    stack.append(v)
        seen |= component
        components.append(component)
    return components
