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

**Backends.**  The integer tables admit two traversal strategies
(:mod:`repro.backend`).  Under ``backend="python"`` every pass is a
pure-Python loop — the dependency-free reference.  Under
``backend="numpy"`` the same lowering runs on ndarray kernels: pin
mates resolve by ``searchsorted`` over the sorted pin array, connected
components by vectorized min-label propagation with pointer jumping,
``execute`` becomes one boolean scatter plus one gather, and
``component_sizes`` a single ``bincount``.  Both backends produce
*bit-identical* results — the numpy component labeling converges to the
minimal member index of each circuit, which is exactly the label order
the Python union-find assigns — so round counts, forests, and every
pinned total are unchanged by the backend switch.

Compiled layouts are immutable and cached on their layout; deriving a
layout with an unchanged partition-set universe re-uses the base
layout's :class:`PartitionSetIndex` *object*, so integer set-ids held by
callers (PASC runs, election listeners) stay valid across the whole
derive chain of an algorithm's round loop.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.backend import require_numpy, resolve_backend
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


def _index_array(values, np):
    """``values`` (ndarray / sequence / iterable of ints) as an intp array."""
    if isinstance(values, np.ndarray):
        return values
    if isinstance(values, (list, tuple, range)):
        return np.asarray(values, dtype=np.intp)
    return np.fromiter(values, dtype=np.intp)


class CompiledLayout:
    """A frozen layout lowered to flat integer arrays.

    Attributes
    ----------
    index:
        Partition set <-> integer id mapping.
    adj:
        ``adj[i]`` lists the integer ids of the sets wired to set ``i``
        by external links (one entry per wired link endpoint).  Under
        the numpy backend the rows are materialized lazily from the
        compiled edge arrays — only the incremental derive path reads
        them.
    comp:
        Dense circuit label per set id (``0 .. n_components - 1``); a
        plain list under the Python backend, an ``intp`` ndarray under
        numpy.  Labels agree bit for bit between backends.
    n_components:
        Number of circuits; every label in that range is non-empty.
    backend:
        ``"python"`` or ``"numpy"`` — how rounds over this compilation
        execute.
    """

    __slots__ = (
        "index",
        "comp",
        "n_components",
        "backend",
        "_adj",
        "_edges",
        "_starts",
        "_members",
        "_comp_sizes",
    )

    def __init__(
        self,
        index: PartitionSetIndex,
        adj: Optional[List[List[int]]],
        comp,
        n_components: int,
        backend: str = "python",
        edges=None,
    ):
        self.index = index
        self.backend = backend
        self._adj = adj
        self._edges = edges
        if backend == "numpy":
            np = require_numpy()
            self.comp = np.asarray(comp, dtype=np.intp)
        else:
            self.comp = comp
        self.n_components = n_components
        self._starts = None
        self._members = None
        self._comp_sizes = None

    @property
    def adj(self) -> List[List[int]]:
        """Adjacency rows, materialized from the edge arrays on demand.

        The Python backend builds the rows during compilation; the
        numpy backend keeps only the flat ``(src, dst)`` edge arrays
        and pays the row materialization once, if and when a derive
        chain actually needs rows to patch.
        """
        adj = self._adj
        if adj is None:
            adj = [[] for _ in range(len(self.index))]
            src, dst = self._edges
            for a, b in zip(src.tolist(), dst.tolist()):
                adj[a].append(b)
            self._adj = adj
        return adj

    def members_csr(self):
        """Component -> member set-ids as ``(starts, members)`` arrays.

        ``members[starts[c] : starts[c + 1]]`` are the set ids of circuit
        ``c``, ascending.  Built lazily by one counting pass (Python) or
        one stable argsort (numpy) and cached; both orders are identical
        (members of a circuit in ascending set-id order).
        """
        if self._starts is None:
            comp = self.comp
            if self.backend == "numpy":
                np = require_numpy()
                counts = np.bincount(comp, minlength=self.n_components)
                starts = np.zeros(self.n_components + 1, dtype=np.intp)
                np.cumsum(counts, out=starts[1:])
                self._starts = starts
                self._members = np.argsort(comp, kind="stable")
            else:
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
    ):
        """One full round in integer space: propagate, then read.

        The Python backend returns a list of bools; the numpy backend a
        boolean ndarray with identical truth values (beep -> component
        scatter, then one per-listen gather; no per-round Python loop).
        """
        if self.backend == "numpy":
            np = require_numpy()
            comp = self.comp
            hears = np.zeros(self.n_components, dtype=np.bool_)
            beeps = _index_array(beep_indices, np)
            if beeps.size:
                hears[comp[beeps]] = True
            if listen_indices is None:
                return hears[comp]
            listens = _index_array(listen_indices, np)
            return hears[comp[listens]]
        return self.read(self.propagate(beep_indices), listen_indices)

    def component_sizes(self):
        """Member count per circuit, precomputed once per compilation."""
        sizes = self._comp_sizes
        if sizes is None:
            if self.backend == "numpy":
                np = require_numpy()
                sizes = np.bincount(self.comp, minlength=self.n_components)
            elif self._starts is not None:
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
        return int(total)


# ----------------------------------------------------------------------
# lowering
# ----------------------------------------------------------------------


def compile_wiring_ids(
    index: PartitionSetIndex,
    pin_slot: Mapping[int, int],
    channels: int,
    mate_edges: Sequence[int],
    backend: str = "python",
) -> CompiledLayout:
    """Lower an integer-keyed wiring to a :class:`CompiledLayout`.

    ``pin_slot`` maps encoded pins ``(node_id * 6 + direction) *
    channels + channel`` to dense partition-set slots; ``mate_edges``
    is the grid index's mirror-edge table
    (:meth:`~repro.grid.compiled.GridIndex.mate_edges`).  The whole
    lowering — mate resolution, adjacency, union-find — runs over flat
    integers: nothing is hashed except the C-level int dict probes.

    Under ``backend="numpy"`` mate resolution is one ``searchsorted``
    over the sorted pin array and the components come from vectorized
    min-label propagation — no Python loop touches the pin table.
    """
    if backend == "numpy":
        np = require_numpy()
        src, dst = _compile_edges_np(pin_slot, channels, mate_edges, np)
        comp, n_components = _connected_components_np(len(index), src, dst, np)
        return CompiledLayout(
            index, None, comp, n_components, backend="numpy", edges=(src, dst)
        )
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


def _compile_edges_np(
    pin_slot: Mapping[int, int], channels: int, mate_edges: Sequence[int], np
):
    """Directed slot-adjacency edges of an integer wiring, vectorized.

    One entry per wired pin endpoint, in pin-table order — exactly the
    entries the Python loop appends, so lazily materialized adjacency
    rows are identical list for list.  Mates resolve by binary search:
    sort the pin encodings once, then locate every pin's mirror
    encoding in ``O(P log P)`` with zero dict probes.
    """
    count = len(pin_slot)
    if count == 0:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty
    pins = np.fromiter(pin_slot.keys(), dtype=np.int64, count=count)
    slots = np.fromiter(pin_slot.values(), dtype=np.intp, count=count)
    mate_table = np.asarray(mate_edges, dtype=np.int64)
    edges = pins // channels
    mate_edge = mate_table[edges]
    wired = mate_edge >= 0
    mate_pins = np.where(wired, pins + (mate_edge - edges) * channels, -1)
    order = np.argsort(pins)
    sorted_pins = pins[order]
    pos = np.minimum(np.searchsorted(sorted_pins, mate_pins), count - 1)
    found = wired & (sorted_pins[pos] == mate_pins)
    return slots[found], slots[order[pos[found]]]


def _connected_components(adj: List[List[int]]) -> Tuple[List[int], int]:
    """Dense component labels of the integer adjacency table.

    Union-find with path halving and union by size, entirely over flat
    integer arrays.  Labels are assigned in ascending order of each
    component's minimal member index (the first member encountered by
    the ascending scan), which is the invariant the numpy labeling
    reproduces.
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


def _connected_components_np(size: int, src, dst, np):
    """Vectorized component labels over flat edge arrays.

    Min-label hooking with pointer jumping (Shiloach–Vishkin style):
    every node starts as its own label; each sweep hooks the larger
    root of every edge onto the smaller and then flattens the pointer
    forest by repeated ``label[label]`` squaring, so the sweep count is
    logarithmic in the largest component diameter.  Labels only ever
    decrease and ``label[i] <= i`` is invariant, so the fixpoint label
    of every component is its *minimal member index* — relabeling by
    sorted unique values therefore assigns exactly the same dense
    labels as the Python union-find's ascending first-member scan.
    """
    label = np.arange(size, dtype=np.intp)
    if src.size:
        while True:
            before = label
            roots_a = label[src]
            roots_b = label[dst]
            label = label.copy()
            np.minimum.at(label, np.maximum(roots_a, roots_b), np.minimum(roots_a, roots_b))
            while True:
                squared = label[label]
                if np.array_equal(squared, label):
                    break
                label = squared
            if np.array_equal(label, before):
                break
    uniq, inverse = np.unique(label, return_inverse=True)
    return inverse.astype(np.intp, copy=False).reshape(size), int(uniq.size)


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
    the historical dict-based incremental freeze.  The result inherits
    the base compilation's backend; the O(touched) bound holds either
    way (the numpy comp array is rebuilt from the patched labels in one
    C-level pass).
    """
    adj = list(base.adj)
    for i, row in new_rows.items():
        adj[i] = row

    base_comp = base.comp
    affected = sorted({int(base_comp[i]) for i in dirty_indices})
    starts, members = base.members_csr()
    region: List[int] = []
    for c in affected:
        region.extend(members[starts[c] : starts[c + 1]])

    groups = _group_region(region, adj)

    comp = list(base_comp)
    n_components = base.n_components
    sizes = [int(starts[c + 1] - starts[c]) for c in range(n_components)]
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

    return CompiledLayout(base.index, adj, comp, n_components, backend=base.backend)


__all__ = [
    "CompiledLayout",
    "PartitionSetIndex",
    "compile_wiring_ids",
    "recompile_derived",
    "resolve_backend",
]
