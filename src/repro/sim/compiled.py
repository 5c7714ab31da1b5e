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
once into an index, then run the hot loop over flat integers.  The
layouts keep one integer pin table (encoded pin -> set), the only
record of which set owns which pin, so the standard lowering
(:func:`compile_wiring_ids`) never hashes a tuple at all — pin mates
resolve through the grid index's mirror-edge table.

**Singleton circuits.**  A partition set without pins is a circuit of
its own, so an edge-subset layout declares none.  A beep or listen on
an undeclared ``(node id, label)`` key of a label an edge subset wired
is addressed by the *singleton id* ``len(index) + key`` (see
:meth:`CircuitLayout.set_ids
<repro.sim.circuits.CircuitLayout.set_ids>`): every id at or past
``len(index)`` hears exactly its own beep.  Singleton ids are computed,
never stored, so resolving one leaves a frozen (possibly cached and
shared) layout untouched; :attr:`CompiledLayout.n_singletons` counts
the undeclared keys, so traces still count those sets and circuits.

There are two ways to label circuits, and both give the same labels:
the generic lowering runs a union-find over the links it reads off the
pin table, and a layout made only of PASC runs labels its two rails per
run in one pass over its links (:func:`compile_pasc`).  Every pass is a
pure-Python loop over flat integers; there is one kernel set.
Component labels are assigned in ascending order of each circuit's
minimal member index, so round counts, forests, and every pinned total
depend only on the wiring.

Compiled layouts are immutable and cached on their layout; deriving a
layout with an unchanged partition-set universe re-uses the base
layout's :class:`PartitionSetIndex` *object*, so integer set-ids held by
callers (PASC runs, election listeners) stay valid across the whole
derive chain of an algorithm's round loop.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.sim.pins import PartitionSetId

#: A partition set's key is ``label id << KEY_SHIFT | node id``.
KEY_SHIFT = 32
NID_MASK = (1 << KEY_SHIFT) - 1

#: A PASC run as a layout records it: first slot, unit count, and the
#: getters of the owners of its link pins, parent side and child side.
PascRecord = Tuple[int, int, Optional[Callable], Optional[Callable]]

#: What a round's beeps reach (:meth:`CompiledLayout.propagate`): a
#: byte mask over circuits and the singleton ids that beeped.
Heard = Tuple[bytearray, Set[int]]

#: What a layout's links are read from: its frozen pin table
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
    ``labels``.  :meth:`node_id` reads a set's amoebot off its key (a
    singleton id carries its key past ``len(index)``); the
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
        keys = self._keys
        size = len(keys)
        return (keys[i] if i < size else i - size) & NID_MASK

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
    n_singletons:
        Number of undeclared keys of the edge-subset labels on live
        amoebots: sets without pins, each a circuit of its own that is
        not in ``comp``.
    """

    __slots__ = (
        "index",
        "comp",
        "n_components",
        "n_singletons",
        "_wiring",
        "_starts",
        "_members",
        "_comp_sizes",
        "_degrees",
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
        self.n_singletons = 0
        self._wiring = wiring
        self._starts: Optional[List[int]] = None
        self._members: Optional[List[int]] = None
        self._comp_sizes: Optional[List[int]] = None
        self._degrees: Optional[Dict[int, int]] = None

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

    def link_degrees(self) -> Dict[int, int]:
        """Per amoebot (grid-index id), its wired pins whose mate pin is
        wired too; amoebots without such a pin are left out.

        One pass over the frozen pin table, on first call: the number of
        external links that end at the amoebot's partition sets.
        """
        degrees = self._degrees
        if degrees is None:
            pin_slot, c, mate_edges = self._wiring
            degrees = self._degrees = {}
            get = degrees.get
            for pin in pin_slot:
                e = pin // c
                if pin + (mate_edges[e] - e) * c in pin_slot:
                    nid = e // 6
                    degrees[nid] = get(nid, 0) + 1
        return degrees

    # ------------------------------------------------------------------
    # round execution
    # ------------------------------------------------------------------
    def propagate(self, beep_indices: Iterable[int]) -> Heard:
        """What a round's beeps reach: a byte mask over circuits, 1 where
        some ``beep_indices`` set beeped, and the singleton ids that
        beeped (each hears only itself)."""
        hears = bytearray(self.n_components)
        lone: Set[int] = set()
        comp = self.comp
        size = len(comp)
        for i in beep_indices:
            if i < size:
                hears[comp[i]] = 1
            else:
                lone.add(i)
        return hears, lone

    def read(self, heard: Heard, listen_indices: Optional[Sequence[int]] = None) -> List[bool]:
        """Per-set beep bits for ``listen_indices`` (all declared sets if
        ``None``); a singleton id hears iff it beeped."""
        hears, lone = heard
        comp = self.comp
        if listen_indices is None:
            return [hears[c] != 0 for c in comp]
        size = len(comp)
        return [hears[comp[i]] != 0 if i < size else i in lone for i in listen_indices]

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

    def hearing_count(self, heard: Heard) -> int:
        """How many partition sets hear a beep in ``heard``.

        Sums the precomputed circuit sizes over the beeping circuits
        only — O(circuits) per call rather than O(partition sets),
        which matters to the tracer, the only per-round consumer — plus
        one per singleton that beeped.
        """
        hears, lone = heard
        sizes = self.component_sizes()
        total = len(lone)
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
    (:meth:`~repro.grid.compiled.GridIndex.mate_edges`).  The circuits
    are the union-find components of the links read off the pin table,
    one per pin whose mate pin is wired.  The whole lowering runs over
    flat integers: nothing is hashed except the C-level int dict probes.
    """
    comp, n_components = _components(len(index), _links(pin_slot, channels, mate_edges))
    return CompiledLayout(index, comp, n_components, (pin_slot, channels, mate_edges))


def _links(
    pin_slot: Mapping[int, int], channels: int, mate_edges: Sequence[int]
) -> Iterable[Tuple[int, int]]:
    """The slot pairs of the wired links, each link once."""
    get = pin_slot.get
    c = channels
    for pin, slot in pin_slot.items():
        e = pin // c
        mate = pin + (mate_edges[e] - e) * c
        if pin < mate:
            mate_slot = get(mate)
            if mate_slot is not None:
                yield slot, mate_slot


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


def _components(size: int, links: Iterable[Tuple[int, int]]) -> Tuple[List[int], int]:
    """Dense component labels of ``size`` sets joined by ``links``.

    Union-find with path halving and union by size, entirely over flat
    integer arrays.  Labels are assigned in ascending order of each
    component's minimal member index (the first member encountered by
    the ascending scan), so they do not depend on the link order.
    """
    parent = list(range(size))
    rank = [1] * size
    for a, b in links:
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
