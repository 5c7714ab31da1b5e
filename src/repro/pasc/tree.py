"""PASC on rooted trees (Corollary 5).

The chain construction is applied simultaneously on every root-to-leaf
path: each amoebot keeps a single primary/secondary pair, joins the pins
of its parent edge straight, and wires *all* child edges straight or
crossed according to one shared active flag.  Every path from the root
then behaves exactly like a chain, so each amoebot reads the bits of its
depth.  Two external links per tree edge suffice, as the proof of
Corollary 5 notes.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.grid.coords import Node
from repro.sim.circuits import CircuitLayout
from repro.sim.errors import PinConfigurationError
from repro.sim.pins import PartitionSetId


class PascTreeRun:
    """One PASC execution over a rooted amoebot tree.

    Parameters
    ----------
    root:
        The tree root (distance 0).
    parent:
        Mapping of every non-root tree node to its parent.  Parent and
        child must be adjacent amoebots.
    tag:
        Label prefix for partition sets.
    primary_channel / secondary_channel:
        The two channels used on every tree edge.

    After the run, :meth:`values` maps every tree node to its depth.
    """

    def __init__(
        self,
        root: Node,
        parent: Mapping[Node, Node],
        tag: str = "pasct",
        primary_channel: int = 0,
        secondary_channel: int = 1,
    ):
        self.root = root
        self.parent: Dict[Node, Node] = dict(parent)
        if root in self.parent:
            raise ValueError("root must not have a parent")
        self.tag = tag
        self._p_label = f"{tag}:p"
        self._s_label = f"{tag}:s"
        self.pch = primary_channel
        self.sch = secondary_channel
        self.nodes: List[Node] = [root] + sorted(self.parent)
        self.children: Dict[Node, List[Node]] = {u: [] for u in self.nodes}
        for child, par in self.parent.items():
            if par not in self.children:
                raise ValueError(f"parent {par} of {child} is not a tree node")
            if not child.is_adjacent(par):
                raise ValueError(f"tree edge {par}-{child} joins non-neighbors")
            self.children[par].append(child)
        self._check_acyclic()
        self._active: Dict[Node, bool] = {u: True for u in self.nodes}
        self._value: Dict[Node, int] = {u: 0 for u in self.nodes}
        self._iteration = 0
        #: Positions (in :attr:`nodes`) of the nodes whose activity
        #: flipped in the last absorb_bits(); only these re-cross their
        #: child links in the next iteration's layout.
        self._flipped: List[int] = []
        # Static part of the wiring fingerprint, as bytes rather than
        # node tuples: cached layouts keep their keys alive, and bytes
        # are neither hashed per node nor walked by the garbage collector.
        coordinates = array("q", (c for u in self.nodes for c in u))
        coordinates.extend(c for u in self.nodes[1:] for c in self.parent[u])
        self._wiring_base = ("tree", self.tag, self.pch, self.sch, coordinates.tobytes())
        # Grid-index view, computed once per index (_index_view()):
        # node ids, parent edge ids (-1 at the root) and child edge ids.
        self._index = None
        self._nids: List[int] = []
        self._parent_edges: List[int] = []
        self._child_edges: List[List[int]] = []
        # The nodes' partition-set slots in the current layout.
        self._p_slots: List[int] = []
        self._s_slots: List[int] = []

    def _check_acyclic(self) -> None:
        seen = {self.root}
        stack = [self.root]
        while stack:
            u = stack.pop()
            for c in self.children[u]:
                if c in seen:
                    raise ValueError("parent mapping contains a cycle")
                seen.add(c)
                stack.append(c)
        if len(seen) != len(self.nodes):
            raise ValueError("parent mapping is not a single tree")

    # ------------------------------------------------------------------
    # labels
    # ------------------------------------------------------------------
    def primary_set(self, node: Node) -> PartitionSetId:
        """Partition-set id of ``node``'s primary wire."""
        return (node, self._p_label)

    def secondary_set(self, node: Node) -> PartitionSetId:
        """Partition-set id of ``node``'s secondary wire."""
        return (node, self._s_label)

    # ------------------------------------------------------------------
    # runner protocol (same shape as PascChainRun)
    # ------------------------------------------------------------------
    def is_done(self) -> bool:
        """No amoebot is active: all further bits are zero."""
        return not any(self._active.values())

    def _index_view(self, layout: CircuitLayout) -> List[int]:
        """Node ids, parent and child edge ids in ``layout``'s index."""
        index = layout.structure.grid_index()
        if self._index is not index:
            id_of = index.id_of
            nids = [id_of(u) for u in self.nodes]
            if None in nids:
                node = self.nodes[nids.index(None)]
                raise PinConfigurationError(f"{node} is not part of the structure")
            position = {u: k for k, u in enumerate(self.nodes)}
            mate_edges = index.mate_edges()
            parent_edges = [-1] * len(nids)
            child_edges: List[List[int]] = [[] for _ in nids]
            for k, u in enumerate(self.nodes):
                for child in self.children[u]:
                    c = position[child]
                    edge = index.edge_between(nids[c], nids[k])
                    parent_edges[c] = edge
                    child_edges[k].append(mate_edges[edge])
            self._nids = nids
            self._parent_edges = parent_edges
            self._child_edges = child_edges
            self._index = index
        return self._nids

    def contribute_layout(self, layout: CircuitLayout) -> None:
        """Wire this iteration's primary/secondary circuits: the parent
        edge straight, every child edge straight or, while the node is
        active, crossed."""
        slots = layout.assign_sets(self._node_sets(layout))
        self._p_slots = slots[0::2]
        self._s_slots = slots[1::2]
        self._flipped = []

    def _node_sets(self, layout: CircuitLayout):
        """Every node's primary and secondary set with its pins, in node
        order.  Streamed: a batch built up front survives long enough for
        the garbage collector to promote it, and a full collection then
        walks it."""
        nids = self._index_view(layout)
        pch, sch = self.pch, self.sch
        p_label, s_label = self._p_label, self._s_label
        active = self._active
        for k, u in enumerate(self.nodes):
            p_pins: List[Tuple[int, int]] = []
            s_pins: List[Tuple[int, int]] = []
            edge = self._parent_edges[k]
            if edge >= 0:
                p_pins.append((edge, pch))
                s_pins.append((edge, sch))
            crossed = active[u]
            for edge in self._child_edges[k]:
                if crossed:
                    p_pins.append((edge, sch))
                    s_pins.append((edge, pch))
                else:
                    p_pins.append((edge, pch))
                    s_pins.append((edge, sch))
            yield nids[k], p_label, p_pins
            yield nids[k], s_label, s_pins

    def bind_layout(self, layout: CircuitLayout) -> None:
        """Adopt an equal wiring built elsewhere (a layout-cache hit):
        resolve this run's partition-set slots in ``layout``."""
        nids = self._index_view(layout)
        self._p_slots = layout.set_ids((nid, self._p_label) for nid in nids)
        self._s_slots = layout.set_ids((nid, self._s_label) for nid in nids)
        self._flipped = []

    def rewire_layout(self, layout: CircuitLayout) -> None:
        """Reassign only the nodes whose activity (and hence child-link
        crossing) changed since the last contribute/rewire."""
        pch, sch = self.pch, self.sch
        for k in self._flipped:
            child_edges = self._child_edges[k]
            if not child_edges:
                continue  # leaves own no child links; their wiring is static
            # Un-crossing swaps the channels of the same physical pins of
            # every child link between the two sets: one pin exchange.
            pins = []
            for edge in child_edges:
                pins.append((edge, pch))
                pins.append((edge, sch))
            layout.exchange_slots(self._p_slots[k], self._s_slots[k], pins)
        self._flipped = []

    def listen_slots(self) -> List[int]:
        """Set-ids absorb_bits() reads: every node's secondary set."""
        return self._s_slots

    def wiring_key(self) -> Tuple:
        """Hashable snapshot determining this run's current wiring."""
        active = self._active
        return (self._wiring_base, bytes(active[u] for u in self.nodes))

    def beep_slots(self) -> List[int]:
        """The root beeps on its primary set."""
        return self._p_slots[:1]

    def absorb_bits(self, bits: Sequence[bool]) -> None:
        """Absorb a flat bit list aligned with :meth:`listen_slots` order.

        ``bits[i]`` is the bit of ``self.nodes[i]`` (the listen order);
        the compiled fast path of :func:`~repro.pasc.runner.run_pasc`
        reads bits positionally instead of through id-keyed dicts.
        """
        bit_index = self._iteration
        flipped: List[int] = []
        for k, (u, heard_secondary) in enumerate(zip(self.nodes, bits)):
            if heard_secondary:
                self._value[u] |= 1 << bit_index
            if self._active[u] and not heard_secondary:
                self._active[u] = False
                flipped.append(k)
        self._flipped = flipped
        self._iteration += 1

    def active_ids(self) -> List[int]:
        """Node ids, in the last layout's index, of the amoebots still
        active (they beep in the termination round)."""
        active = self._active
        return [nid for nid, u in zip(self._nids, self.nodes) if active[u]]

    @property
    def iterations(self) -> int:
        return self._iteration

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def values(self) -> Dict[Node, int]:
        """Depth (= distance to the root within the tree) per node."""
        return dict(self._value)
