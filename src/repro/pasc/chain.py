"""PASC on chains of units.

A *unit* is one PASC instance operated by an amoebot.  On plain chains
every amoebot operates a single unit; in the Euler tour technique an
amoebot operates one unit per occurrence on the tour (at most its degree,
hence at most six).  Consecutive units always sit on neighboring amoebots
and are joined by a *link*: the physical edge between them, carrying the
primary and secondary wires on a pair of channels.

A chain lives in grid-index integers
(:class:`~repro.grid.compiled.GridIndex`): its units are ``(node id,
occurrence)`` pairs — the occurrence is how many earlier units of the
chain the same amoebot operates — and link ``i`` is the edge id
``nid * 6 + d`` leaving unit ``i``'s amoebot toward unit ``i + 1``'s,
checked against :attr:`GridIndex.nbr
<repro.grid.compiled.GridIndex.nbr>`.  The chain's layout is written by
one :meth:`~repro.sim.circuits.CircuitLayout.assign_chain` call and its
wiring key is made of ints and bytes.  ``Node`` appears only in the
views :meth:`PascChainRun.node_values`, :meth:`PascChainRun.primary_set`
and :meth:`PascChainRun.secondary_set`.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.grid.coords import Node
from repro.sim.circuits import CircuitLayout
from repro.sim.errors import PinConfigurationError
from repro.sim.pins import PartitionSetId

#: A unit is identified by its operating amoebot's id and its occurrence.
Unit = Tuple[int, int]
#: A link's ``(primary, secondary)`` channel pair.
ChannelPair = Tuple[int, int]


def occurrences(nids: Sequence[int]) -> List[int]:
    """Per unit, how many earlier units the same amoebot operates."""
    seen: Dict[int, int] = {}
    result: List[int] = []
    for nid in nids:
        k = seen.get(nid, 0)
        result.append(k)
        seen[nid] = k + 1
    return result


class PascChainRun:
    """One PASC execution over a chain of units.

    Parameters
    ----------
    index:
        The grid index the ids refer to: that of the structure the
        engine runs on.
    nids:
        The operating node id of every unit ``u_0, ..., u_{m-1}``.
    out_edges:
        ``out_edges[i]`` is the edge id from unit ``i``'s amoebot to
        unit ``i + 1``'s; exactly ``m - 1`` entries.
    channels:
        The ``(primary, secondary)`` channel pair of every link, or six
        pairs indexed by the link's direction.
    weights:
        0/1 participation weights per unit; default all 1 (plain PASC).
    tag:
        Label prefix isolating this run's partition sets from others
        sharing the same layout.

    After :func:`~repro.pasc.runner.run_pasc` completes, ``values()``
    lists every unit's *exclusive* weighted prefix count
    :math:`\\sum_{j<i} w(u_j)` and ``inclusive_values()`` the inclusive
    sum.  (Amoebots read these bit by bit; the accumulated integers live
    in the simulator, which is an observer convenience — the per-amoebot
    state is the O(1) dataclass the construction requires.)
    """

    def __init__(
        self,
        index,
        nids: Sequence[int],
        out_edges: Sequence[int],
        channels: Union[ChannelPair, Sequence[ChannelPair]] = (0, 1),
        weights: Optional[Sequence[int]] = None,
        tag: str = "pasc",
    ):
        nids = list(nids)
        out_edges = list(out_edges)
        if not nids:
            raise ValueError("chain must contain at least one unit")
        if len(out_edges) != len(nids) - 1:
            raise ValueError("need exactly one link between consecutive units")
        # Links end only at live ids, so checking the ends of the id range
        # and the first unit covers every unit once the links check out.
        if min(nids) < 0 or max(nids) >= index.n_slots or index.nodes[nids[0]] is None:
            raise ValueError("chain units must be live node ids of the index")
        nbr = index.nbr
        if [e // 6 for e in out_edges] != nids[:-1]:
            i = next(i for i, e in enumerate(out_edges) if e // 6 != nids[i])
            raise ValueError(f"link {i} does not start at its unit {index.nodes[nids[i]]}")
        if [nbr[e] for e in out_edges] != nids[1:]:
            i = next(i for i, e in enumerate(out_edges) if nbr[e] != nids[i + 1])
            raise ValueError(f"link {i} does not end at its unit {index.nodes[nids[i + 1]]}")
        if len(channels) == 2 and isinstance(channels[0], int):
            channels = (tuple(channels),) * 6
        self.channels: Tuple[ChannelPair, ...] = tuple(tuple(pair) for pair in channels)
        if len(self.channels) != 6:
            raise ValueError("give one channel pair, or one per direction")
        if weights is None:
            weights = [1] * len(nids)
        if len(weights) != len(nids):
            raise ValueError("one weight per unit required")
        if any(w not in (0, 1) for w in weights):
            raise ValueError("weights must be 0 or 1")
        self.index = index
        self.nids = nids
        self.out_edges = out_edges
        self.weights = list(weights)
        self.tag = tag
        self._occurrences = occurrences(nids)
        #: Partition-set labels per occurrence, fixed for the run.
        self._labels = [(f"{tag}:{k}:p", f"{tag}:{k}:s") for k in range(max(self._occurrences) + 1)]
        # Algorithm state (one O(1) record per unit).
        self._active = bytearray(self.weights)
        self._value = [0] * len(nids)
        self._iteration = 0
        #: Units whose activity flipped in the last absorb_bits(); exactly
        #: these change their outgoing-link wiring for the next
        #: iteration (the layout-reuse contract's "touched region").
        self._flipped: List[int] = []
        # Static part of the wiring fingerprint: ints and bytes only
        # (unit ids follow from the links and the last unit).  Ids of a
        # derived index are not canonical, so they carry its identity.
        self._wiring_base = (
            "chain",
            tag,
            self.channels,
            None if index.canonical else id(index.root),
            nids[-1],
            array("i", out_edges).tobytes(),
        )
        # The units' partition-set slots in the current layout.
        self._p_slots: List[int] = []
        self._s_slots: List[int] = []

    # ------------------------------------------------------------------
    # units and labels
    # ------------------------------------------------------------------
    @property
    def units(self) -> List[Unit]:
        """The units as ``(node id, occurrence)`` pairs."""
        return list(zip(self.nids, self._occurrences))

    def primary_set(self, index: int) -> PartitionSetId:
        """Partition-set id of unit ``index``'s primary wire (Node view)."""
        nid = self.nids[index]
        return (self.index.nodes[nid], self._labels[self._occurrences[index]][0])

    def secondary_set(self, index: int) -> PartitionSetId:
        """Partition-set id of unit ``index``'s secondary wire (Node view)."""
        nid = self.nids[index]
        return (self.index.nodes[nid], self._labels[self._occurrences[index]][1])

    # ------------------------------------------------------------------
    # runner protocol
    # ------------------------------------------------------------------
    def is_done(self) -> bool:
        """No participant is active: all further bits are zero."""
        return not any(self._active)

    def _check_index(self, layout: CircuitLayout) -> None:
        index = layout.structure.grid_index()
        if index is not self.index and not (
            index.canonical and self.index.canonical and index.nodes == self.index.nodes
        ):
            raise PinConfigurationError(
                "chain ids belong to another structure's grid index than the layout's"
            )

    def contribute_layout(self, layout: CircuitLayout) -> None:
        """Wire this iteration's primary/secondary circuits into ``layout``.

        Unit ``i`` owns the wiring of its *outgoing* link
        ``out_edges[i]``: straight when passive, crossed when active.
        Incoming links are always joined straight to the unit's own sets.
        """
        self._check_index(layout)
        self._p_slots, self._s_slots = layout.assign_chain(
            self.nids,
            self.out_edges,
            self.channels,
            self._active,
            self._labels,
            self._occurrences,
        )
        self._flipped = []

    def bind_layout(self, layout: CircuitLayout) -> None:
        """Adopt an equal wiring built elsewhere (a layout-cache hit):
        resolve this run's partition-set slots in ``layout``.

        An equal wiring key means the layout was built by
        :meth:`contribute_layout` of an equal chain, which declares the
        sets in unit order (primary, secondary); resolving the first and
        the last set checks that and fixes every slot in between.
        """
        self._check_index(layout)
        labels, occurrence = self._labels, self._occurrences
        first, last = layout.set_ids(
            (
                (self.nids[0], labels[occurrence[0]][0]),
                (self.nids[-1], labels[occurrence[-1]][1]),
            )
        )
        end = first + 2 * len(self.nids)
        if last != end - 1:
            raise PinConfigurationError("the cached layout declares this chain's sets out of order")
        self._p_slots = list(range(first, end, 2))
        self._s_slots = list(range(first + 1, end, 2))
        self._flipped = []

    def rewire_layout(self, layout: CircuitLayout) -> None:
        """Reassign only the units whose wiring changed since the last
        contribute/rewire (a derived layout recomputes just their circuits)."""
        last = len(self.out_edges)
        for i in self._flipped:
            if i >= last:
                continue  # the last unit has no outgoing link to re-cross
            edge = self.out_edges[i]
            pch, sch = self.channels[edge % 6]
            # Un-crossing swaps the channels of the same physical pins
            # between the primary and secondary set: one pin exchange.
            layout.exchange_slots(self._p_slots[i], self._s_slots[i], ((edge, pch), (edge, sch)))
        self._flipped = []

    def listen_slots(self) -> List[int]:
        """Set-ids absorb_bits() reads: every unit's secondary set."""
        return self._s_slots

    def wiring_key(self) -> Tuple:
        """Hashable snapshot determining this run's current wiring."""
        return (self._wiring_base, bytes(self._active))

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
                active[i] = 0
                flipped.append(i)
        self._flipped = flipped
        self._iteration += 1

    def active_ids(self) -> List[int]:
        """Node ids of the still-active units (they beep in the
        termination round; an amoebot may appear once per unit)."""
        return [nid for nid, a in zip(self.nids, self._active) if a]

    @property
    def iterations(self) -> int:
        return self._iteration

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def values(self) -> List[int]:
        """Exclusive weighted prefix count per unit, in unit order."""
        return list(self._value)

    def inclusive_values(self) -> List[int]:
        """Inclusive weighted prefix sum per unit (adds own weight)."""
        return [value + weight for value, weight in zip(self._value, self.weights)]

    def node_values(self) -> Dict[Node, int]:
        """Exclusive counts keyed by amoebot (plain single-unit chains)."""
        if len(set(self.nids)) != len(self.nids):
            raise ValueError("node_values() requires at most one unit per amoebot")
        nodes = self.index.nodes
        return {nodes[nid]: value for nid, value in zip(self.nids, self._value)}
