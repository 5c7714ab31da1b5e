"""Flat-array lowering of frozen circuit layouts.

A frozen :class:`~repro.sim.circuits.CircuitLayout` is *compiled* into a
:class:`CompiledLayout`: partition sets become dense integer indices
(:class:`PartitionSetIndex`), and the circuits become a flat
component-label array plus a CSR-style component -> member index.  A
synchronous round is then a handful of array passes — mark the beeping
components in a byte mask, read the mask back for the listened sets —
with zero per-round dict construction and zero tuple hashing.

The same move keeps the matching inner loop of slowmatch-style
implementations out of object-graph traversal: hash each object exactly
once into an index, then run the hot loop over flat integers.  Since
the grid-index refactor the layouts themselves keep their pin tables in
integer space, so the standard lowering (:func:`compile_wiring_ids`)
never hashes a tuple at all — pin mates resolve through the grid
index's mirror-edge table.

There are two ways to label circuits, and both give the same labels:
the generic lowering runs a union-find over the wired links, and a
layout made only of PASC runs labels its two rails per run in one pass
over its links (:func:`compile_pasc`).  Every pass is a pure-Python
loop over flat integers; there is one kernel set.  Component labels
are assigned in ascending order of each circuit's minimal member
index, so round counts, forests, and every pinned total depend only on
the wiring.  The link adjacency (:attr:`CompiledLayout.adj`) is built
only when read, from the frozen pin table.

Compiled layouts are immutable and cached on their layout; deriving a
layout with an unchanged partition-set universe re-uses the base
layout's :class:`PartitionSetIndex` *object*, so integer set-ids held by
callers (PASC runs, election listeners) stay valid across the whole
derive chain of an algorithm's round loop.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.sim.pins import PartitionSetId

#: A partition set's key is ``label id << KEY_SHIFT | node id``.
KEY_SHIFT = 32
NID_MASK = (1 << KEY_SHIFT) - 1

#: A PASC run as a layout records it: first slot, unit count, and the
#: getters of the owners of its link pins, parent side and child side.
PascRecord = Tuple[int, int, Optional[Callable], Optional[Callable]]

#: What a layout's link adjacency is read from: its frozen pin table
#: (encoded pin -> slot), the pin budget, and the grid index's
#: mirror-edge table.
Wiring = Tuple[Mapping[int, int], int, Sequence[int]]


class PartitionSetIndex:
    """Stable dense integer ids for a layout's partition sets.

    Every structure downstream of it (adjacency, components, beep
    masks) is integer-indexed.  Instances are shared across derived
    layouts whose set universe did not change, which is what makes the
    integer ids *stable*: resolve a listen set once
    (:meth:`CircuitLayout.set_ids
    <repro.sim.circuits.CircuitLayout.set_ids>`), reuse the id every
    round.

    Set ``i`` is the layout's key ``keys[i]`` over the grid index
    ``grid`` (whose node ids the keys carry) and the label table
    ``labels``.  :meth:`node_id` reads a set's amoebot off its key; the
    ``(node, label)`` tuples of :attr:`ids`, the view observability and
    schedulers read, are built on first use, so a layout whose callers
    address sets by slot never creates them.
    """

    __slots__ = ("_ids", "_keys", "_labels", "grid")

    def __init__(self, keys: Sequence[int], grid, labels: Sequence[str]):
        self._ids: Optional[List[PartitionSetId]] = None
        self._keys = keys
        self._labels = labels
        self.grid = grid

    @property
    def ids(self) -> List[PartitionSetId]:
        """The partition sets in id order, built on first use."""
        ids = self._ids
        if ids is None:
            nodes = self.grid.nodes
            labels = self._labels
            ids = self._ids = [
                (nodes[key & NID_MASK], labels[key >> KEY_SHIFT]) for key in self._keys
            ]
        return ids

    def node_id(self, i: int) -> int:
        """The grid-index id of the amoebot that owns set ``i``."""
        return self._keys[i] & NID_MASK

    def __len__(self) -> int:
        return len(self._keys)


class CompiledLayout:
    """A frozen layout lowered to flat integer arrays.

    Attributes
    ----------
    index:
        Partition set <-> integer id mapping.
    comp:
        Dense circuit label per set id (``0 .. n_components - 1``).
    n_components:
        Number of circuits; every label in that range is non-empty.
    """

    __slots__ = (
        "index",
        "comp",
        "n_components",
        "_wiring",
        "_adj",
        "_starts",
        "_members",
        "_comp_sizes",
    )

    def __init__(
        self,
        index: PartitionSetIndex,
        comp: List[int],
        n_components: int,
        wiring: Wiring,
    ):
        self.index = index
        self.comp = comp
        self.n_components = n_components
        self._wiring = wiring
        self._adj: Optional[List[List[int]]] = None
        self._starts: Optional[List[int]] = None
        self._members: Optional[List[int]] = None
        self._comp_sizes: Optional[List[int]] = None

    @property
    def adj(self) -> List[List[int]]:
        """``adj[i]`` lists the integer ids of the sets wired to set ``i``
        by external links (one entry per wired link endpoint).

        Built on first read from the frozen pin table, by the loop the
        generic lowering runs, so the rows do not depend on how the
        circuits were labelled.
        """
        adj = self._adj
        if adj is None:
            adj = self._adj = _adjacency(len(self.index), *self._wiring)
        return adj

    def members_csr(self):
        """Component -> member set-ids as ``(starts, members)`` arrays.

        ``members[starts[c] : starts[c + 1]]`` are the set ids of circuit
        ``c``, ascending.  Built lazily by one counting pass and cached.
        """
        if self._starts is None:
            comp = self.comp
            starts = [0] * (self.n_components + 1)
            for c in comp:
                starts[c + 1] += 1
            for c in range(1, len(starts)):
                starts[c] += starts[c - 1]
            members = [0] * len(comp)
            cursor = list(starts[: self.n_components])
            for i, c in enumerate(comp):
                members[cursor[c]] = i
                cursor[c] += 1
            self._starts = starts
            self._members = members
        assert self._members is not None
        return self._starts, self._members

    # ------------------------------------------------------------------
    # round execution
    # ------------------------------------------------------------------
    def propagate(self, beep_indices: Iterable[int]) -> bytearray:
        """Byte mask over circuits: 1 where some ``beep_indices`` set beeped."""
        hears = bytearray(self.n_components)
        comp = self.comp
        for i in beep_indices:
            hears[comp[i]] = 1
        return hears

    def read(self, hears: bytearray, listen_indices: Optional[Sequence[int]] = None) -> List[bool]:
        """Per-set beep bits for ``listen_indices`` (all sets if ``None``)."""
        comp = self.comp
        if listen_indices is None:
            return [hears[c] != 0 for c in comp]
        return [hears[comp[i]] != 0 for i in listen_indices]

    def execute(
        self,
        beep_indices: Iterable[int],
        listen_indices: Optional[Sequence[int]] = None,
    ) -> List[bool]:
        """One full round in integer space: propagate, then read."""
        return self.read(self.propagate(beep_indices), listen_indices)

    def component_sizes(self) -> List[int]:
        """Member count per circuit, precomputed once per compilation."""
        sizes = self._comp_sizes
        if sizes is None:
            if self._starts is not None:
                starts = self._starts
                sizes = [starts[c + 1] - starts[c] for c in range(self.n_components)]
            else:
                sizes = [0] * self.n_components
                for c in self.comp:
                    sizes[c] += 1
            self._comp_sizes = sizes
        return sizes

    def hearing_count(self, hears: bytearray) -> int:
        """How many partition sets hear a beep under mask ``hears``.

        Sums the precomputed circuit sizes over the beeping circuits
        only — O(circuits) per call rather than O(partition sets),
        which matters to the tracer, the only per-round consumer.
        """
        sizes = self.component_sizes()
        total = 0
        for c in range(self.n_components):
            if hears[c]:
                total += sizes[c]
        return total


# ----------------------------------------------------------------------
# lowering
# ----------------------------------------------------------------------


def compile_wiring_ids(
    index: PartitionSetIndex,
    pin_slot: Mapping[int, int],
    channels: int,
    mate_edges: Sequence[int],
) -> CompiledLayout:
    """Lower an integer-keyed wiring to a :class:`CompiledLayout`.

    ``pin_slot`` maps encoded pins ``(node_id * 6 + direction) *
    channels + channel`` to dense partition-set slots; ``mate_edges``
    is the grid index's mirror-edge table
    (:meth:`~repro.grid.compiled.GridIndex.mate_edges`).  The whole
    lowering — mate resolution, adjacency, union-find — runs over flat
    integers: nothing is hashed except the C-level int dict probes.
    The adjacency is dropped afterwards; :attr:`CompiledLayout.adj`
    rebuilds it on demand.
    """
    comp, n_components = _connected_components(
        _adjacency(len(index), pin_slot, channels, mate_edges)
    )
    return CompiledLayout(index, comp, n_components, (pin_slot, channels, mate_edges))


def _adjacency(
    size: int, pin_slot: Mapping[int, int], channels: int, mate_edges: Sequence[int]
) -> List[List[int]]:
    """Per set, the sets at the far end of its wired pins."""
    adj: List[List[int]] = [[] for _ in range(size)]
    get = pin_slot.get
    c = channels
    for pin, slot in pin_slot.items():
        e = pin // c
        mate_slot = get(pin + (mate_edges[e] - e) * c)
        if mate_slot is not None:
            adj[slot].append(mate_slot)
    return adj


def compile_pasc(
    index: PartitionSetIndex,
    pin_slot: Mapping[int, int],
    channels: int,
    mate_edges: Sequence[int],
    runs: Sequence[PascRecord],
) -> Optional[CompiledLayout]:
    """Label the circuits of a layout made of PASC runs in one pass.

    ``runs`` lists each run as :meth:`CircuitLayout.assign_pasc
    <repro.sim.circuits.CircuitLayout.assign_pasc>` recorded it: unit
    ``i`` owns slots ``first + 2i`` (primary) and ``first + 2i + 1``
    (secondary), and two getters read the owners of the parent-side
    and of the child-side pins of every unit's parent link, both
    channels, in unit order.  Under Corollary 5 wiring a run has
    exactly two circuits, its rails: the root's primary set gets label
    ``2r`` and its secondary set ``2r + 1``.  Then, in unit order (every
    parent before its children), the set owning each child-side pin
    takes the label of the set owning the parent-side pin.  Ownership
    is read from the pin table at both ends, so the labels follow the
    wiring, not the algorithm's state.

    Returns ``None`` — the caller runs :func:`compile_wiring_ids`
    instead — unless the pins make each run exactly two trees over its
    own links: the runs cover the slots in order, there is no pin
    besides the link pins, and every set of run ``r`` ends up labelled
    ``2r`` or ``2r + 1``.  That last check also catches a set reached
    twice (another one is then never reached and stays unlabelled), a
    set labelled before its parent set was, and a link leaving its
    run's slot range.  The labels then equal the union-find's: each
    circuit's minimal member is its run's root set.
    """
    size = len(index)
    comp = [-1] * size
    end = 0
    n_pins = 0
    label = 0
    try:
        for first, count, parent_owners, child_owners in runs:
            if first != end:
                return None
            end = first + 2 * count
            comp[first] = label
            comp[first + 1] = label + 1
            label += 2
            if count > 1:
                for p, q in zip(parent_owners(pin_slot), child_owners(pin_slot)):
                    comp[q] = comp[p]
                n_pins += 4 * (count - 1)
    except (KeyError, IndexError):  # a link pin unowned, or a slot past the end
        return None
    if end != size or n_pins != len(pin_slot):
        return None
    for rail, (first, count, _, _) in enumerate(runs):
        sets = comp[first : first + 2 * count]
        if sets.count(2 * rail) + sets.count(2 * rail + 1) != 2 * count:
            return None
    return CompiledLayout(index, comp, label, (pin_slot, channels, mate_edges))


def _connected_components(adj: List[List[int]]) -> Tuple[List[int], int]:
    """Dense component labels of the integer adjacency table.

    Union-find with path halving and union by size, entirely over flat
    integer arrays.  Labels are assigned in ascending order of each
    component's minimal member index (the first member encountered by
    the ascending scan).
    """
    size = len(adj)
    parent = list(range(size))
    rank = [1] * size
    for i in range(size):
        for j in adj[i]:
            a, b = i, j
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a == b:
                continue
            if rank[a] < rank[b]:
                a, b = b, a
            parent[b] = a
            rank[a] += rank[b]
    comp = [-1] * size
    n_components = 0
    for i in range(size):
        root = i
        while parent[root] != root:
            parent[root] = parent[parent[root]]
            root = parent[root]
        label = comp[root]
        if label < 0:
            label = n_components
            n_components += 1
            comp[root] = label
        comp[i] = label
    return comp, n_components


__all__ = [
    "CompiledLayout",
    "PartitionSetIndex",
    "compile_pasc",
    "compile_wiring_ids",
]
