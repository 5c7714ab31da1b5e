"""Flat-array lowering of frozen circuit layouts.

A frozen :class:`~repro.sim.circuits.CircuitLayout` is *compiled* into a
:class:`CompiledLayout`: partition sets become dense integer indices
(:class:`PartitionSetIndex`), the wired external links become an integer
adjacency table, and the circuits become a flat component-label array
plus a CSR-style component -> member index.  A synchronous round is then
a handful of array passes — mark the beeping components in a byte mask,
read the mask back for the listened sets — with zero per-round dict
construction and zero tuple hashing.

The same move keeps the matching inner loop of slowmatch-style
implementations out of object-graph traversal: hash each object exactly
once into an index, then run the hot loop over flat integers.  Since
the grid-index refactor the layouts themselves keep their pin tables in
integer space, so the standard lowering (:func:`compile_wiring_ids`)
never hashes a tuple at all — pin mates resolve through the grid
index's mirror-edge table.

Every pass is a pure-Python loop over flat integers; there is one
kernel set.  Component labels are assigned in ascending order of each
circuit's minimal member index, so round counts, forests, and every
pinned total depend only on the wiring.

Compiled layouts are immutable and cached on their layout; deriving a
layout with an unchanged partition-set universe re-uses the base
layout's :class:`PartitionSetIndex` *object*, so integer set-ids held by
callers (PASC runs, election listeners) stay valid across the whole
derive chain of an algorithm's round loop.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.sim.errors import PinConfigurationError
from repro.sim.pins import PartitionSetId


class PartitionSetIndex:
    """Stable dense integer ids for a layout's partition sets.

    The index is the only place partition-set tuples are hashed; every
    structure downstream of it (adjacency, components, beep masks) is
    integer-indexed.  Instances are shared across derived layouts whose
    set universe did not change, which is what makes the integer ids
    *stable*: resolve a listen set once, reuse the index every round.

    The index is lazy: ``materialize`` produces the ``(node, label)``
    tuples on first use of :attr:`ids`, so a layout whose callers
    address sets by slot never creates them.
    """

    __slots__ = ("_ids", "_size", "_materialize", "_pos_cache")

    def __init__(self, size: int, materialize: Callable[[], List[PartitionSetId]]):
        self._ids: Optional[List[PartitionSetId]] = None
        self._size = size
        self._materialize = materialize
        self._pos_cache: Optional[Dict[PartitionSetId, int]] = None

    @property
    def ids(self) -> List[PartitionSetId]:
        """The partition sets in id order, built on first use."""
        ids = self._ids
        if ids is None:
            ids = self._ids = self._materialize()
        return ids

    @property
    def _pos(self) -> Dict[PartitionSetId, int]:
        """Tuple -> integer id table, built lazily on first resolution.

        The integer build path never consults it — layouts carry dense
        ids natively — so the one hashing pass over the id tuples is
        only paid by callers that actually resolve tuples (algorithm
        setup code, tests).
        """
        pos = self._pos_cache
        if pos is None:
            pos = self._pos_cache = {s: i for i, s in enumerate(self.ids)}
        return pos

    def __len__(self) -> int:
        return self._size

    def __contains__(self, set_id: PartitionSetId) -> bool:
        return set_id in self._pos

    def get(self, set_id: PartitionSetId) -> Optional[int]:
        """The integer id of ``set_id``, or ``None`` if undeclared."""
        return self._pos.get(set_id)

    def index_of(self, set_id: PartitionSetId, action: str = "address") -> int:
        """The integer id of ``set_id``; raises for undeclared sets.

        ``action`` names the operation for the error message, keeping
        the engine's historical ``cannot beep on`` / ``cannot listen
        on`` wording intact.
        """
        index = self._pos.get(set_id)
        if index is None:
            raise PinConfigurationError(f"cannot {action} undeclared partition set {set_id}")
        return index

    def indices(self, set_ids: Iterable[PartitionSetId], action: str = "address") -> List[int]:
        """Resolve many partition sets at once (order-preserving)."""
        pos = self._pos
        result: List[int] = []
        for set_id in set_ids:
            index = pos.get(set_id)
            if index is None:
                raise PinConfigurationError(f"cannot {action} undeclared partition set {set_id}")
            result.append(index)
        return result


class CompiledLayout:
    """A frozen layout lowered to flat integer arrays.

    Attributes
    ----------
    index:
        Partition set <-> integer id mapping.
    adj:
        ``adj[i]`` lists the integer ids of the sets wired to set ``i``
        by external links (one entry per wired link endpoint).
    comp:
        Dense circuit label per set id (``0 .. n_components - 1``).
    n_components:
        Number of circuits; every label in that range is non-empty.
    """

    __slots__ = (
        "index",
        "adj",
        "comp",
        "n_components",
        "_starts",
        "_members",
        "_comp_sizes",
    )

    def __init__(
        self,
        index: PartitionSetIndex,
        adj: List[List[int]],
        comp: List[int],
        n_components: int,
    ):
        self.index = index
        self.adj = adj
        self.comp = comp
        self.n_components = n_components
        self._starts: Optional[List[int]] = None
        self._members: Optional[List[int]] = None
        self._comp_sizes: Optional[List[int]] = None

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
    """
    adj: List[List[int]] = [[] for _ in range(len(index))]
    get = pin_slot.get
    c = channels
    for pin, slot in pin_slot.items():
        e = pin // c
        mate_slot = get(pin + (mate_edges[e] - e) * c)
        if mate_slot is not None:
            adj[slot].append(mate_slot)
    comp, n_components = _connected_components(adj)
    return CompiledLayout(index, adj, comp, n_components)


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


def _group_region(region: Sequence[int], adj: List[List[int]]) -> List[List[int]]:
    """Connected groups of ``region`` under ``adj``.

    The region is closed under adjacency (base circuits are closed under
    unchanged links; both endpoints of every changed link are dirty and
    hence inside the region), so a plain flood fill over a byte mask
    suffices — no hashing at all.
    """
    pending = bytearray(len(adj))
    for i in region:
        pending[i] = 1
    groups: List[List[int]] = []
    for start in region:
        if not pending[start]:
            continue
        pending[start] = 0
        group = [start]
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if pending[v]:
                    pending[v] = 0
                    group.append(v)
                    stack.append(v)
        groups.append(group)
    return groups


def recompile_derived(
    base: CompiledLayout,
    dirty_indices: Sequence[int],
    new_rows: Dict[int, List[int]],
) -> CompiledLayout:
    """Recompile after a re-wiring that kept the set universe intact.

    ``new_rows`` replaces the adjacency rows of exactly the dirty sets
    (both endpoints of every changed link are dirty, so all other rows
    are unchanged and shared with ``base``).  Components are recomputed
    only inside the touched region — the base circuits containing a
    dirty set — and relabeled so circuit labels stay dense, mirroring
    the historical dict-based incremental freeze.
    """
    adj = list(base.adj)
    for i, row in new_rows.items():
        adj[i] = row

    base_comp = base.comp
    affected = sorted({base_comp[i] for i in dirty_indices})
    starts, members = base.members_csr()
    region: List[int] = []
    for c in affected:
        region.extend(members[starts[c] : starts[c + 1]])

    groups = _group_region(region, adj)

    comp = list(base_comp)
    n_components = base.n_components
    sizes = [starts[c + 1] - starts[c] for c in range(n_components)]
    group_members: Dict[int, List[int]] = {}
    for c in affected:
        sizes[c] = 0

    hole_cursor = 0
    for group in groups:
        if hole_cursor < len(affected):
            label = affected[hole_cursor]
            hole_cursor += 1
        else:
            label = n_components
            n_components += 1
            sizes.append(0)
        sizes[label] = len(group)
        group_members[label] = group
        for i in group:
            comp[i] = label

    # Compact leftover holes (circuits merged away) so labels stay dense
    # and every label in 0..n-1 is non-empty.
    for hole in affected[hole_cursor:]:
        while n_components and sizes[n_components - 1] == 0:
            n_components -= 1
        if hole >= n_components:
            break
        tail = n_components - 1
        moved = group_members.pop(tail, None)
        if moved is None:
            moved = members[starts[tail] : starts[tail + 1]]
        for i in moved:
            comp[i] = hole
        group_members[hole] = list(moved)
        sizes[hole] = sizes[tail]
        sizes[tail] = 0
        n_components -= 1

    return CompiledLayout(base.index, adj, comp, n_components)


__all__ = [
    "CompiledLayout",
    "PartitionSetIndex",
    "compile_wiring_ids",
    "recompile_derived",
]
