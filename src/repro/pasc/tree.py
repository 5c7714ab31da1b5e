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

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.grid.coords import Node
from repro.grid.directions import Direction
from repro.sim.circuits import CircuitLayout
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
        #: Nodes whose activity flipped in the last absorb_bits(); only these
        #: re-cross their child links in the next iteration's layout.
        self._flipped: List[Node] = []
        self._wiring_base = (
            "tree", self.tag, self.root,
            tuple(sorted(self.parent.items())), self.pch, self.sch,
        )

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

    def _node_wiring(
        self, u: Node
    ) -> Tuple[List[Tuple[Direction, int]], List[Tuple[Direction, int]]]:
        """Primary/secondary pin lists of ``u`` for its current activity."""
        p_pins: List[Tuple[Direction, int]] = []
        s_pins: List[Tuple[Direction, int]] = []
        par = self.parent.get(u)
        if par is not None:
            d = u.direction_to(par)
            p_pins.append((d, self.pch))
            s_pins.append((d, self.sch))
        for child in self.children[u]:
            d = u.direction_to(child)
            if self._active[u]:
                p_pins.append((d, self.sch))
                s_pins.append((d, self.pch))
            else:
                p_pins.append((d, self.pch))
                s_pins.append((d, self.sch))
        return p_pins, s_pins

    def contribute_layout(self, layout: CircuitLayout) -> None:
        """Wire this iteration's primary/secondary circuits."""
        for u in self.nodes:
            p_pins, s_pins = self._node_wiring(u)
            layout.assign(u, self._p_label, p_pins)
            layout.assign(u, self._s_label, s_pins)
        self._flipped = []

    def rewire_layout(self, layout: CircuitLayout) -> None:
        """Reassign only the nodes whose activity (and hence child-link
        crossing) changed since the last contribute/rewire."""
        for u in self._flipped:
            children = self.children[u]
            if not children:
                continue  # leaves own no child links; their wiring is static
            # Un-crossing swaps the channels of the same physical pins of
            # every child link between the two sets: one pin exchange.
            pins = []
            for child in children:
                d = u.direction_to(child)
                pins.append((d, self.pch))
                pins.append((d, self.sch))
            layout.exchange_pins(u, self._p_label, self._s_label, pins)
        self._flipped = []

    def listen_sets(self) -> List[PartitionSetId]:
        """The partition sets absorb_bits() reads: every node's secondary set."""
        return [self.secondary_set(u) for u in self.nodes]

    def wiring_key(self) -> Tuple:
        """Hashable snapshot determining this run's current wiring."""
        return (self._wiring_base, tuple(self._active[u] for u in self.nodes))

    def beeps(self) -> List[PartitionSetId]:
        """The root beeps on its primary set."""
        return [self.primary_set(self.root)]

    def absorb_bits(self, bits: Sequence[bool]) -> None:
        """Absorb a flat bit list aligned with :meth:`listen_sets` order.

        ``bits[i]`` is the bit of ``self.nodes[i]`` (the listen order);
        the compiled fast path of :func:`~repro.pasc.runner.run_pasc`
        reads bits positionally instead of through id-keyed dicts.
        """
        bit_index = self._iteration
        flipped: List[Node] = []
        for u, heard_secondary in zip(self.nodes, bits):
            if heard_secondary:
                self._value[u] |= 1 << bit_index
            if self._active[u] and not heard_secondary:
                self._active[u] = False
                flipped.append(u)
        self._flipped = flipped
        self._iteration += 1

    def active_nodes(self) -> List[Node]:
        """Amoebots still active (beep in the termination round)."""
        return [u for u, a in self._active.items() if a]

    @property
    def iterations(self) -> int:
        return self._iteration

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def values(self) -> Dict[Node, int]:
        """Depth (= distance to the root within the tree) per node."""
        return dict(self._value)
