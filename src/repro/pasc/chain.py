"""PASC's chain construction, on chains and on trees of units.

A *unit* is one PASC instance operated by an amoebot.  On plain chains
and trees every amoebot operates a single unit; in the Euler tour
technique an amoebot operates one unit per occurrence on the tour (at
most its degree, hence at most six).  Every unit but the root hangs from
a *parent* unit on a neighboring amoebot and is joined to it by a
*link*: the physical edge between them, carrying the primary and
secondary wires on a pair of channels.  A chain is the tree in which
unit ``i``'s parent is unit ``i - 1``.

Corollary 5 makes tree PASC the chain construction applied on every
root-to-leaf path: each unit joins its parent link straight and crosses
its child links while it is active, so every path from the root behaves
exactly like a chain, and each unit reads the bits of its weighted depth.
Two external links per tree edge suffice, as the proof notes.

Units live in grid-index integers
(:class:`~repro.grid.compiled.GridIndex`): a unit is a ``(node id,
occurrence)`` pair — the occurrence is how many earlier units the same
amoebot operates — listed root first and every parent before its
children, and its parent link is the edge id ``nid * 6 + d`` leaving the
parent's amoebot toward the unit's, checked against :attr:`GridIndex.nbr
<repro.grid.compiled.GridIndex.nbr>`.  A run's layout is written by one
:meth:`~repro.sim.circuits.CircuitLayout.assign_pasc` call and its wiring
key is made of ints and bytes; :meth:`PascRun.tree` builds a run from an
id parent map.  ``Node`` appears only in the views
:meth:`PascRun.node_values`, :meth:`PascRun.primary_set` and
:meth:`PascRun.secondary_set`.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

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


class PascRun:
    """One PASC execution over a rooted tree of units.

    Parameters
    ----------
    index:
        The grid index the ids refer to: that of the structure the
        engine runs on.
    nids:
        The operating node id of every unit ``u_0, ..., u_{m-1}``;
        ``u_0`` is the root.
    links:
        ``links[j - 1]`` is the edge id of unit ``j``'s parent link,
        leaving its parent's amoebot toward unit ``j``'s; exactly
        ``m - 1`` entries.
    channels:
        The ``(primary, secondary)`` channel pair of every link, or six
        pairs indexed by the link's direction.
    weights:
        0/1 participation weights per unit; default all 1 (plain PASC).
    tag:
        Label prefix isolating this run's partition sets from others
        sharing the same layout.
    parents:
        ``parents[j - 1]`` is unit ``j``'s parent, an earlier unit;
        default ``j - 1``: the units form a chain.

    After :func:`~repro.pasc.runner.run_pasc` completes, ``values()``
    lists every unit's *exclusive* weighted count of its proper
    ancestors, :math:`\\sum_{j<i} w(u_j)` on a chain, and
    ``inclusive_values()`` adds the unit's own weight.  (Amoebots read
    these bit by bit; the accumulated integers live in the simulator,
    which is an observer convenience — the per-amoebot state is the O(1)
    record the construction requires.)
    """

    def __init__(
        self,
        index,
        nids: Sequence[int],
        links: Sequence[int],
        channels: Union[ChannelPair, Sequence[ChannelPair]] = (0, 1),
        weights: Optional[Sequence[int]] = None,
        tag: str = "pasc",
        parents: Optional[Sequence[int]] = None,
    ):
        nids = list(nids)
        links = list(links)
        if not nids:
            raise ValueError("a PASC run must contain at least one unit")
        if len(links) != len(nids) - 1:
            raise ValueError("need exactly one link per unit but the root")
        if parents is None:
            parents = range(len(links))
            parents_key = None
        else:
            parents = list(parents)
            if len(parents) != len(links):
                raise ValueError("need exactly one parent per unit but the root")
            for j, p in enumerate(parents, 1):
                if not 0 <= p < j:
                    raise ValueError(f"the parent {p} of unit {j} is not an earlier unit")
            parents_key = array("i", parents).tobytes()
        # Links end only at live ids, so checking the ends of the id range
        # and the root covers every unit once the links check out.
        if min(nids) < 0 or max(nids) >= index.n_slots or index.nodes[nids[0]] is None:
            raise ValueError("units must be live node ids of the index")
        nbr = index.nbr
        starts = [nids[p] for p in parents]
        if [e // 6 for e in links] != starts:
            k = next(k for k, e in enumerate(links) if e // 6 != starts[k])
            raise ValueError(f"link {k} does not start at its unit {index.nodes[starts[k]]}")
        if [nbr[e] for e in links] != nids[1:]:
            k = next(k for k, e in enumerate(links) if nbr[e] != nids[k + 1])
            raise ValueError(f"link {k} does not end at its unit {index.nodes[nids[k + 1]]}")
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
        self.links = links
        self.parents = parents
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
        #: these change their child-link wiring for the next iteration.
        self._flipped: List[int] = []
        #: Unit -> edge ids of its child links; a chain's are implied
        #: (unit ``i``'s only child link is ``links[i]``).
        self._child_links: Optional[Dict[int, List[int]]] = None
        if parents_key is not None:
            self._child_links = {}
            for p, e in zip(parents, links):
                self._child_links.setdefault(p, []).append(e)
        # Static part of the wiring fingerprint: ints and bytes only
        # (unit ids follow from the root, the links and the parents; a
        # chain's parents are implied, which keeps cached keys small).
        # Ids of a derived index are not canonical, so they carry its
        # identity.
        self._wiring_base = (
            "pasc",
            tag,
            self.channels,
            None if index.canonical else id(index.root),
            nids[0],
            array("i", links).tobytes(),
            parents_key,
        )
        # The units' partition-set slots in the current layout.
        self._p_slots: List[int] = []
        self._s_slots: List[int] = []

    @classmethod
    def tree(
        cls,
        index,
        root: int,
        parent: Mapping[int, int],
        channels: ChannelPair = (0, 1),
        tag: str = "pasc",
    ) -> "PascRun":
        """Tree PASC (Corollary 5) over an id parent map: afterwards every
        unit's value is its depth below the node id ``root``.

        Lists the units root first and breadth-first.  Raises
        :class:`ValueError` for a root with a parent, a tree edge joining
        non-neighbors, and a map that is not one tree below ``root`` (a
        cycle or a disconnected part).
        """
        if root in parent:
            raise ValueError("root must not have a parent")
        children: Dict[int, List[int]] = {}
        for child, par in parent.items():
            children.setdefault(par, []).append(child)
        nids = [root]
        parents: List[int] = []
        for k, u in enumerate(nids):  # grows while walked: breadth-first
            for child in children.get(u, ()):
                nids.append(child)
                parents.append(k)
        if len(nids) != len(parent) + 1:
            raise ValueError("parent mapping is not a single tree below the root")
        nbr = index.nbr
        links = []
        for p, u in zip(parents, nids[1:]):
            base = nids[p] * 6
            try:
                links.append(base + nbr[base : base + 6].index(u))
            except ValueError:
                raise ValueError(f"tree edge {nids[p]}-{u} joins non-neighbors") from None
        return cls(index, nids, links, channels, tag=tag, parents=parents)

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
    # what run_pasc calls
    # ------------------------------------------------------------------
    def _check_index(self, layout: CircuitLayout) -> None:
        index = layout.structure.grid_index()
        if index is not self.index and not (
            index.canonical and self.index.canonical and index.nodes == self.index.nodes
        ):
            raise PinConfigurationError(
                "unit ids belong to another structure's grid index than the layout's"
            )

    def contribute_layout(self, layout: CircuitLayout) -> None:
        """Wire this iteration's primary/secondary circuits into ``layout``.

        Every unit joins its parent link straight and its child links
        straight when passive, crossed when active.
        """
        self._check_index(layout)
        self._p_slots, self._s_slots = layout.assign_pasc(
            self.nids,
            self.links,
            self.parents,
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
        :meth:`contribute_layout` of an equal run, which declares the
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
            raise PinConfigurationError("the cached layout declares this run's sets out of order")
        self._p_slots = list(range(first, end, 2))
        self._s_slots = list(range(first + 1, end, 2))
        self._flipped = []

    def rewire_layout(self, layout: CircuitLayout) -> None:
        """Reassign only the units whose wiring changed since the last
        contribute/rewire, on a layout derived from the last one.

        A flipped unit un-crosses all its child links; a chain unit has
        at most one.
        """
        child_links = self._child_links
        links = self.links
        channels = self.channels
        for i in self._flipped:
            edges = links[i : i + 1] if child_links is None else child_links.get(i)
            if not edges:
                continue  # leaves own no child links; their wiring is static
            # Un-crossing swaps the channels of the same physical pins
            # between the primary and secondary set: one pin exchange.
            pins = [(e, ch) for e in edges for ch in channels[e % 6]]
            layout.exchange_slots(self._p_slots[i], self._s_slots[i], pins)
        self._flipped = []

    def listen_slots(self) -> List[int]:
        """Set-ids absorb_bits() reads: every unit's secondary set."""
        return self._s_slots

    def wiring_key(self) -> Tuple:
        """Hashable snapshot determining this run's current wiring."""
        return (self._wiring_base, bytes(self._active))

    def beep_slots(self) -> List[int]:
        """The root beeps on its primary set."""
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
        """Exclusive weighted count per unit, in unit order."""
        return list(self._value)

    def inclusive_values(self) -> List[int]:
        """Inclusive weighted count per unit (adds own weight)."""
        return [value + weight for value, weight in zip(self._value, self.weights)]

    def node_values(self) -> Dict[Node, int]:
        """Exclusive counts keyed by amoebot (one unit per amoebot)."""
        if len(set(self.nids)) != len(self.nids):
            raise ValueError("node_values() requires at most one unit per amoebot")
        nodes = self.index.nodes
        return {nodes[nid]: value for nid, value in zip(self.nids, self._value)}
