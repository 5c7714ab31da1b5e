"""Tree scopes: what the Section 3 primitives need to know about a tree.

Every primitive of this package runs on the Euler tour of a tree of
amoebots, but decides about *units*: the tree's nodes themselves
(Section 3.4), or the portals of an implicit portal tree (Section 3.5,
:class:`repro.portals.primitives.PortalScope`).  A unit is an ``int``:
a node id in :class:`NodeScope`, a portal's number in ``PortalScope``.
Only the scope knows which.  A scope supplies

* ``index`` and ``masks`` — the amoebot tree the tour runs on, as
  tree-direction bitmasks per node id of the engine structure's grid
  index (see :mod:`repro.ett.tour`), and :meth:`tour`;
* ``unit_index`` — node id -> unit, which is all the decoders of
  :mod:`repro.primitives.root_prune` and
  :mod:`repro.primitives.centroid` read: a prefix difference across a
  tour edge whose endpoints lie in different units is the units'
  difference (for portals by Lemma 32);
* ``units`` and ``unit_adjacency`` — the tree the decisions are about;
* :meth:`representative_ids` — the amoebots that beep and listen for
  units;
* :meth:`node_ids_of` and :meth:`restrict` — a component's amoebots and
  its own scope;
* :meth:`announce_winner` — the round that tells a unit it was elected,
  returning the units that learned it.

The decoders return units; the ``Node``-level wrappers of this package
(:func:`~repro.primitives.root_prune.root_and_prune` and its siblings)
convert at their boundary with :func:`ids_of` and ``index.nodes``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, Set

from repro.ett.tour import EulerTour, euler_tour, tree_masks
from repro.grid.coords import Node
from repro.sim.engine import CircuitEngine


class NodeScope:
    """A tree of amoebots whose units are its node ids."""

    def __init__(self, index, masks: Dict[int, int]):
        self.index = index
        self.masks = masks
        self.unit_index: Sequence[int] = range(index.n_slots)
        self._unit_adjacency: Dict[int, List[int]] = {}

    @classmethod
    def from_adjacency(cls, index, adjacency: Mapping[Node, Sequence[Node]]) -> "NodeScope":
        """The scope of a ``Node``-adjacency tree (boundary conversion)."""
        return cls(index, tree_masks(index, adjacency))

    @property
    def units(self):
        """The tree's node ids."""
        return self.masks.keys()

    @property
    def unit_adjacency(self) -> Dict[int, List[int]]:
        """The tree as rotation-ordered id adjacency (built once)."""
        if not self._unit_adjacency:
            nbr = self.index.nbr
            self._unit_adjacency = {
                nid: [nbr[nid * 6 + d] for d in range(6) if mask >> d & 1]
                for nid, mask in self.masks.items()
            }
        return self._unit_adjacency

    def tour(self, root: int) -> EulerTour:
        """Euler tour of the tree, rooted at node id ``root``."""
        return euler_tour(self.index, root, self.masks)

    def representative_ids(self, units: Iterable[int]) -> List[int]:
        """Every node acts for itself."""
        ids = list(units)
        if not self.masks.keys() >= set(ids):
            raise ValueError("units outside the tree")
        return ids

    def node_ids_of(self, component: Iterable[int]) -> Set[int]:
        """A component's node ids."""
        return set(self.representative_ids(component))

    def restrict(self, component: Set[int]) -> "NodeScope":
        """The scope of a connected subset of the nodes."""
        masks = restrict_masks(self.index, self.masks, self.node_ids_of(component))
        return NodeScope(self.index, masks)

    def announce_winner(self, engine: CircuitEngine, winner_ids: Iterable[int]) -> Set[int]:
        """A winning node already knows it won: no round."""
        return set(winner_ids)


def ids_of(index, nodes: Iterable[Node], what: str = "nodes") -> List[int]:
    """The ids of ``nodes`` in ``index``, or :class:`ValueError` naming
    the first one off it (the ``Node`` boundary of the wrappers)."""
    nodes = list(nodes)
    id_of = index.id_of
    ids = [id_of(u) for u in nodes]
    if None in ids:
        raise ValueError(f"{what} outside the tree: {nodes[ids.index(None)]}")
    return ids


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
