"""Tree scopes: what the Section 3 primitives need to know about a tree.

Every primitive of this package runs on the Euler tour of a tree of
amoebots, but decides about *units*: the tree's nodes themselves
(Section 3.4), or the portals of an implicit portal tree (Section 3.5,
:class:`repro.portals.primitives.PortalScope`).  A scope supplies

* ``index`` and ``masks`` — the amoebot tree the tour runs on, as
  tree-direction bitmasks per node id of the engine structure's grid
  index (see :mod:`repro.ett.tour`), and :meth:`tour`;
* ``unit_index`` and ``unit_objects`` — node id -> unit number and unit
  number -> unit, which is all the decoders of
  :mod:`repro.primitives.root_prune` and
  :mod:`repro.primitives.centroid` read: a prefix difference across a
  tour edge whose endpoints lie in different units is the units'
  difference (for portals by Lemma 32);
* ``units`` and ``unit_adjacency`` — the tree the decisions are about,
  as unit objects;
* :meth:`representative_ids` (the amoebots that beep and listen for
  units) and :meth:`unit_at` (the unit a winning amoebot belongs to);
* :meth:`node_ids_of` and :meth:`restrict` — a component's amoebots and
  its own scope;
* :meth:`announce_winner` — the round that tells a unit it was elected,
  returning the units that learned it.

:class:`NodeScope` is the scope whose units are the nodes; its unit
number is the node id.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, Set

from repro.ett.tour import EulerTour, euler_tour, mask_adjacency, tree_masks
from repro.grid.coords import Node
from repro.sim.engine import CircuitEngine


class NodeScope:
    """A tree of amoebots whose units are its nodes."""

    def __init__(self, index, masks: Dict[int, int]):
        self.index = index
        self.masks = masks
        self.unit_index: Sequence[int] = range(index.n_slots)
        self.unit_objects: Sequence[Node] = index.nodes
        self._unit_adjacency: Dict[Node, List[Node]] = {}

    @classmethod
    def from_adjacency(cls, index, adjacency: Mapping[Node, Sequence[Node]]) -> "NodeScope":
        """The scope of a ``Node``-adjacency tree (boundary conversion)."""
        return cls(index, tree_masks(index, adjacency))

    @property
    def units(self) -> List[Node]:
        nodes = self.index.nodes
        return [nodes[nid] for nid in self.masks]

    @property
    def unit_adjacency(self) -> Dict[Node, List[Node]]:
        """The tree as rotation-ordered ``Node`` adjacency (built once)."""
        if not self._unit_adjacency:
            self._unit_adjacency = mask_adjacency(self.index, self.masks)
        return self._unit_adjacency

    def tour(self, root: Node) -> EulerTour:
        """Euler tour of the tree, rooted at ``root``."""
        root_id = self.index.id_of(root)
        if root_id is None:
            raise ValueError(f"root {root} is not a tree node")
        return euler_tour(self.index, root_id, self.masks)

    def representative_ids(self, units: Iterable[Node]) -> List[int]:
        """Every node acts for itself."""
        masks = self.masks
        id_of = self.index.id_of
        ids = [id_of(u) for u in units]
        if None in ids or not masks.keys() >= set(ids):
            raise ValueError("units outside the tree")
        return ids

    def unit_at(self, nid: int) -> Node:
        """Every node is its own unit."""
        return self.index.nodes[nid]

    def node_ids_of(self, component: Iterable[Node]) -> Set[int]:
        """A component's node ids."""
        return set(self.representative_ids(component))

    def restrict(self, component: Set[Node]) -> "NodeScope":
        """The scope of a connected subset of the nodes."""
        masks = restrict_masks(self.index, self.masks, self.node_ids_of(component))
        return NodeScope(self.index, masks)

    def announce_winner(self, engine: CircuitEngine, winner_ids: Iterable[int]) -> Set[Node]:
        """A winning node already knows it won: no round."""
        nodes = self.index.nodes
        return {nodes[nid] for nid in winner_ids}


def restrict_masks(index, masks: Mapping[int, int], ids: Set[int]) -> Dict[int, int]:
    """The tree ``masks`` restricted to the node ids ``ids``."""
    nbr = index.nbr
    restricted: Dict[int, int] = {}
    for nid in ids:
        mask = masks[nid]
        base = nid * 6
        for d in range(6):
            if mask >> d & 1 and nbr[base + d] not in ids:
                mask &= ~(1 << d)
        restricted[nid] = mask
    return restricted


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
