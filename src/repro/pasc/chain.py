"""PASC on chains of units.

A *unit* is one PASC instance operated by an amoebot.  On plain chains
every amoebot operates a single unit; in the Euler tour technique an
amoebot operates one unit per occurrence on the tour (at most its degree,
hence at most six).  Consecutive units always sit on neighboring amoebots
and are joined by a :class:`ChainLink` naming the physical edge and the
two channels carrying the primary and secondary wires.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.grid.coords import Node
from repro.grid.directions import Direction
from repro.sim.circuits import CircuitLayout
from repro.sim.errors import PinConfigurationError
from repro.sim.pins import PartitionSetId

#: A unit is identified by its operating amoebot and a local occurrence id.
Unit = Tuple[Node, str]


class ChainLink(NamedTuple):
    """The physical wiring between consecutive chain units.

    The link occupies channels ``primary_channel`` and
    ``secondary_channel`` of the edge leaving ``src`` in ``direction``.

    A :class:`typing.NamedTuple`: hash, equality and order are those of
    the field tuple and run in C.  Invariant: the hash is the
    field-tuple hash, which keeps wiring keys and layout-cache iteration
    stable.  A link compares equal to the plain tuple of its fields.
    """

    src: Node
    direction: Direction
    primary_channel: int
    secondary_channel: int

    def dst(self) -> Node:
        """The amoebot at the far end of the link."""
        return self.src.neighbor(self.direction)


def chain_links_for_nodes(
    nodes: Sequence[Node],
    primary_channel: int = 0,
    secondary_channel: int = 1,
) -> List[ChainLink]:
    """Links joining consecutive nodes of a plain amoebot chain."""
    links = []
    for u, v in zip(nodes, nodes[1:]):
        links.append(ChainLink(u, u.direction_to(v), primary_channel, secondary_channel))
    return links


class PascChainRun:
    """One PASC execution over a chain of units.

    Parameters
    ----------
    units:
        The chain ``(u_0, ..., u_{m-1})`` as (amoebot, occurrence-id)
        pairs.  Occurrence ids keep partition-set labels of multiple
        units at the same amoebot distinct; plain chains may use ``""``.
    links:
        ``links[i]`` wires unit ``i`` to unit ``i+1``; exactly
        ``len(units) - 1`` entries.
    weights:
        0/1 participation weights per unit; default all 1 (plain PASC).
    tag:
        Label prefix isolating this run's partition sets from others
        sharing the same layout.

    After :func:`~repro.pasc.runner.run_pasc` completes, ``values()``
    maps every unit to its *exclusive* weighted prefix count
    :math:`\\sum_{j<i} w(u_j)` and ``inclusive_values()`` to the
    inclusive sum.  (Amoebots read these bit by bit; the accumulated
    integers live in the driver, which is an observer convenience — the
    per-amoebot state is the O(1) dataclass the construction requires.)
    """

    def __init__(
        self,
        units: Sequence[Unit],
        links: Sequence[ChainLink],
        weights: Optional[Sequence[int]] = None,
        tag: str = "pasc",
    ):
        if not units:
            raise ValueError("chain must contain at least one unit")
        if len(links) != len(units) - 1:
            raise ValueError("need exactly one link between consecutive units")
        for (node, _), link in zip(units, links):
            if link.src != node:
                raise ValueError(f"link {link} does not start at its unit {node}")
        for (node, _), link in zip(units[1:], links):
            if link.dst() != node:
                raise ValueError(f"link {link} does not end at its unit {node}")
        if weights is None:
            weights = [1] * len(units)
        if len(weights) != len(units):
            raise ValueError("one weight per unit required")
        if any(w not in (0, 1) for w in weights):
            raise ValueError("weights must be 0 or 1")
        self.units = list(units)
        self.links = list(links)
        self.weights = list(weights)
        self.tag = tag
        # Partition-set labels, fixed for the run.
        self._p_labels = [self._label(uid, "p") for _, uid in self.units]
        self._s_labels = [self._label(uid, "s") for _, uid in self.units]
        # Algorithm state (one O(1) record per unit).
        self._active = [w == 1 for w in self.weights]
        self._value = [0] * len(units)
        self._iteration = 0
        #: Units whose activity flipped in the last absorb_bits(); exactly
        #: these change their outgoing-link wiring for the next
        #: iteration (the layout-reuse contract's "touched region").
        self._flipped: List[int] = []
        seen = set()
        for unit in self.units:
            if unit in seen:
                raise ValueError(f"duplicate unit {unit}")
            seen.add(unit)
        # Static part of the wiring fingerprint; the dynamic part is the
        # per-unit activity snapshot (see wiring_key()).
        self._wiring_base = (
            "chain", self.tag, tuple(self.units), tuple(self.links),
        )
        # Grid-index view, computed once per index (_index_view()):
        # the units' node ids and the links' edge ids.
        self._index = None
        self._nids: List[int] = []
        self._out_edges: List[int] = []
        # The units' partition-set slots in the current layout.
        self._p_slots: List[int] = []
        self._s_slots: List[int] = []

    # ------------------------------------------------------------------
    # labels
    # ------------------------------------------------------------------
    def _label(self, uid: str, which: str) -> str:
        return f"{self.tag}:{uid}:{which}" if uid else f"{self.tag}:{which}"

    def primary_set(self, index: int) -> PartitionSetId:
        """Partition-set id of unit ``index``'s primary wire."""
        return (self.units[index][0], self._p_labels[index])

    def secondary_set(self, index: int) -> PartitionSetId:
        """Partition-set id of unit ``index``'s secondary wire."""
        return (self.units[index][0], self._s_labels[index])

    # ------------------------------------------------------------------
    # runner protocol
    # ------------------------------------------------------------------
    def is_done(self) -> bool:
        """No participant is active: all further bits are zero."""
        return not any(self._active)

    def _index_view(self, layout: CircuitLayout) -> Tuple[List[int], List[int]]:
        """The units' node ids and the links' edge ids in ``layout``'s index."""
        index = layout.structure.grid_index()
        if self._index is not index:
            id_of = index.id_of
            nids = [id_of(node) for node, _ in self.units]
            if None in nids:
                node = self.units[nids.index(None)][0]
                raise PinConfigurationError(f"{node} is not part of the structure")
            self._nids = nids
            self._out_edges = [
                nid * 6 + link.direction for nid, link in zip(nids, self.links)
            ]
            self._index = index
        return self._nids, self._out_edges

    def contribute_layout(self, layout: CircuitLayout) -> None:
        """Wire this iteration's primary/secondary circuits into ``layout``.

        Unit ``i`` owns the wiring of its *outgoing* link ``links[i]``:
        straight when passive, crossed when active.  Incoming links are
        always joined straight to the unit's own sets.
        """
        slots = layout.assign_sets(self._unit_sets(layout))
        self._p_slots = slots[0::2]
        self._s_slots = slots[1::2]
        self._flipped = []

    def _unit_sets(self, layout: CircuitLayout):
        """Every unit's primary and secondary set with its pins, in unit
        order.  Streamed: a batch built up front survives long enough for
        the garbage collector to promote it, and a full collection then
        walks it."""
        nids, out_edges = self._index_view(layout)
        mate_edges = layout.structure.grid_index().mate_edges()
        p_labels, s_labels = self._p_labels, self._s_labels
        active = self._active
        incoming_p = incoming_s = ()
        for i, link in enumerate(self.links):
            edge = out_edges[i]
            pch, sch = link.primary_channel, link.secondary_channel
            if active[i]:
                # Crossed: the primary set drives the secondary wire.
                yield nids[i], p_labels[i], incoming_p + ((edge, sch),)
                yield nids[i], s_labels[i], incoming_s + ((edge, pch),)
            else:
                yield nids[i], p_labels[i], incoming_p + ((edge, pch),)
                yield nids[i], s_labels[i], incoming_s + ((edge, sch),)
            back = mate_edges[edge]
            incoming_p = ((back, pch),)
            incoming_s = ((back, sch),)
        last = len(self.links)
        yield nids[last], p_labels[last], incoming_p
        yield nids[last], s_labels[last], incoming_s

    def bind_layout(self, layout: CircuitLayout) -> None:
        """Adopt an equal wiring built elsewhere (a layout-cache hit):
        resolve this run's partition-set slots in ``layout``."""
        nids, _ = self._index_view(layout)
        self._p_slots = layout.set_ids(zip(nids, self._p_labels))
        self._s_slots = layout.set_ids(zip(nids, self._s_labels))
        self._flipped = []

    def rewire_layout(self, layout: CircuitLayout) -> None:
        """Reassign only the units whose wiring changed since the last
        contribute/rewire (a derived layout recomputes just their circuits)."""
        last = len(self.links)
        for i in self._flipped:
            if i >= last:
                continue  # the last unit has no outgoing link to re-cross
            link = self.links[i]
            edge = self._out_edges[i]
            # Un-crossing swaps the channels of the same physical pins
            # between the primary and secondary set: one pin exchange.
            layout.exchange_slots(
                self._p_slots[i],
                self._s_slots[i],
                ((edge, link.primary_channel), (edge, link.secondary_channel)),
            )
        self._flipped = []

    def listen_slots(self) -> List[int]:
        """Set-ids absorb_bits() reads: every unit's secondary set."""
        return self._s_slots

    def wiring_key(self) -> Tuple:
        """Hashable snapshot determining this run's current wiring."""
        return (self._wiring_base, tuple(self._active))

    def beep_slots(self) -> List[int]:
        """The chain's first unit beeps on its primary set."""
        return self._p_slots[:1]

    def absorb_bits(self, bits: Sequence[bool]) -> None:
        """Absorb a flat bit list aligned with :meth:`listen_slots` order.

        The compiled fast path of :func:`~repro.pasc.runner.run_pasc`
        hands each run its slice of the round's bit list; unit ``i``'s
        bit is simply ``bits[i]`` — no dict lookups, no tuple hashing.
        """
        bit_index = self._iteration
        flipped: List[int] = []
        value = self._value
        active = self._active
        for i, heard_secondary in enumerate(bits):
            if heard_secondary:
                value[i] |= 1 << bit_index
            if active[i] and not heard_secondary:
                # Active participants whose bit is 0 drop out; exactly the
                # units with bits 0..t all 1 stay active, preserving the
                # parity invariant for the next iteration.
                active[i] = False
                flipped.append(i)
        self._flipped = flipped
        self._iteration += 1

    def active_nodes(self) -> List[Node]:
        """Amoebots of the still-active units (they beep in the
        termination round; an amoebot may appear once per unit)."""
        return [node for (node, _), a in zip(self.units, self._active) if a]

    @property
    def iterations(self) -> int:
        return self._iteration

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def values(self) -> Dict[Unit, int]:
        """Exclusive weighted prefix count per unit."""
        return dict(zip(self.units, self._value))

    def inclusive_values(self) -> Dict[Unit, int]:
        """Inclusive weighted prefix sum per unit (adds own weight)."""
        return {
            unit: value + weight
            for unit, value, weight in zip(self.units, self._value, self.weights)
        }

    def node_values(self) -> Dict[Node, int]:
        """Exclusive counts keyed by amoebot (plain single-unit chains)."""
        result: Dict[Node, int] = {}
        for (node, _), value in zip(self.units, self._value):
            if node in result:
                raise ValueError(
                    "node_values() requires at most one unit per amoebot"
                )
            result[node] = value
        return result
