"""Validated edit scripts over amoebot structures, plus churn generators.

An :class:`EditBatch` is one synchronized reconfiguration step: a set of
amoebots leaving the structure and a set of new amoebots attaching to
it.  An :class:`EditScript` is a sequence of batches.  Batches are
validated *incrementally* by a :class:`StructureEditor`: every single
operation is checked with an O(1) look at the six-cell neighborhood of
the edited node (plus, for the one genuinely non-local case, a flood
fill that stops the moment it escapes the structure's bounding box) —
never by re-scanning the whole structure.

The standing assumptions (Section 1.1 of the paper) are preserved as
invariants of the editor:

* **non-empty, connected** — a removal is legal iff the occupied
  neighbors of the removed node form exactly one contiguous arc of the
  six-cell ring.  For hole-free structures this local criterion is
  *exact*: two occupied arcs connected around elsewhere would enclose
  one of the empty gap cells, contradicting hole-freeness, so more than
  one arc always means a cut vertex.
* **hole-free** — a removal creates a hole iff all six neighbors are
  occupied (the vacated cell becomes an isolated empty component),
  which the single-arc criterion already excludes.  An addition can
  only pinch off the empty region locally: if the empty neighbors of
  the new node form a single arc they stay connected around it
  (consecutive ring cells are adjacent on the triangular grid); with
  several arcs, each arc's empty region is flood-filled until it
  escapes the bounding box (infinite, fine) or exhausts (a new hole —
  the edit is rejected).

Churn generators (:func:`generate_churn`) build seeded edit scripts of
four flavors — ``growth``, ``erosion``, ``tunnel`` and ``block_move`` —
plus a ``mixed`` blend, always through the validating editor, so every
generated script is applicable batch by batch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.grid.coords import Node
from repro.grid.directions import DIRECTION_OFFSETS, RING_ARCS, all_directions_ccw
from repro.grid.structure import AmoebotStructure

#: Churn flavors understood by :func:`generate_churn` (and, through the
#: experiment specs, by ``churn-*`` campaigns and ``repro churn``).
CHURN_KINDS = ("growth", "erosion", "tunnel", "block_move", "mixed")


class EditError(ValueError):
    """An edit operation would violate the model's standing assumptions."""


@dataclass(frozen=True)
class EditBatch:
    """One synchronized edit step: removals applied first, then additions.

    Within a batch the operations are validated and applied in order
    (all removals in the given order, then all additions), so a batch
    is legal exactly when that sequence keeps every intermediate node
    set connected and hole-free.
    """

    remove: Tuple[Node, ...] = ()
    add: Tuple[Node, ...] = ()

    def __post_init__(self) -> None:
        removes = tuple(self.remove)
        adds = tuple(self.add)
        if len(set(removes)) != len(removes) or len(set(adds)) != len(adds):
            raise EditError("edit batch repeats a node")
        overlap = set(removes) & set(adds)
        if overlap:
            raise EditError(
                f"edit batch both removes and adds {sorted(overlap)[:3]}"
            )
        object.__setattr__(self, "remove", removes)
        object.__setattr__(self, "add", adds)

    @property
    def size(self) -> int:
        """Total number of operations in the batch."""
        return len(self.remove) + len(self.add)

    def ops(self) -> Iterator[Tuple[str, Node]]:
        """The batch as an ordered operation stream."""
        for u in self.remove:
            yield ("remove", u)
        for u in self.add:
            yield ("add", u)

    def to_dict(self) -> Dict[str, List[List[int]]]:
        """JSON-ready form (nodes as ``[x, y]`` pairs)."""
        return {
            "remove": [[u.x, u.y] for u in self.remove],
            "add": [[u.x, u.y] for u in self.add],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "EditBatch":
        """Inverse of :meth:`to_dict`."""
        def nodes(key: str) -> Tuple[Node, ...]:
            raw = data.get(key, [])
            if not isinstance(raw, (list, tuple)):
                raise EditError(f"batch field {key!r} must be a list")
            return tuple(Node(int(x), int(y)) for x, y in raw)

        return cls(remove=nodes("remove"), add=nodes("add"))


@dataclass(frozen=True)
class EditScript:
    """A sequence of edit batches, optionally tagged with its generator."""

    batches: Tuple[EditBatch, ...]
    kind: str = "manual"
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "batches", tuple(self.batches))

    def __len__(self) -> int:
        return len(self.batches)

    def __iter__(self) -> Iterator[EditBatch]:
        return iter(self.batches)

    @property
    def total_ops(self) -> int:
        """Total operations across all batches."""
        return sum(batch.size for batch in self.batches)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form."""
        return {
            "kind": self.kind,
            "seed": self.seed,
            "batches": [batch.to_dict() for batch in self.batches],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "EditScript":
        """Inverse of :meth:`to_dict`."""
        raw = data.get("batches", [])
        if not isinstance(raw, (list, tuple)):
            raise EditError("'batches' must be a list")
        return cls(
            batches=tuple(EditBatch.from_dict(b) for b in raw),
            kind=str(data.get("kind", "manual")),
            seed=data.get("seed"),  # type: ignore[arg-type]
        )


@dataclass
class EditorStats:
    """Bookkeeping probe: how much incremental validation work was done."""

    adds: int = 0
    removes: int = 0
    rejected: int = 0
    #: Cells visited by the addition hole check's escape flood fills —
    #: the only validation cost that is not O(1) per operation.
    flood_cells: int = 0


#: ``(bit, offset)`` of the six ring neighbors, in direction-value order.
_RING_OFFSETS = tuple((1 << d, DIRECTION_OFFSETS[d]) for d in all_directions_ccw())


class StructureEditor:
    """Applies edit operations to an evolving node set, validating each.

    The editor owns a mutable copy of the node set and a monotone
    bounding box (it never shrinks on removals — it only needs to
    *contain* the structure for the escape test to be sound).  All
    validation is local, per the module docstring.

    ``protected`` nodes may never be removed — the dynamics layer
    protects the SPF sources (and optionally the destinations) with it.
    """

    def __init__(
        self,
        structure: AmoebotStructure | Iterable[Node],
        protected: Iterable[Node] = (),
    ):
        nodes = (
            structure.nodes
            if isinstance(structure, AmoebotStructure)
            else frozenset(structure)
        )
        if not nodes:
            raise EditError("cannot edit an empty structure")
        self._nodes: Set[Node] = set(nodes)
        self.protected: FrozenSet[Node] = frozenset(protected)
        xs = [u.x for u in nodes]
        ys = [u.y for u in nodes]
        self._min_x, self._max_x = min(xs), max(xs)
        self._min_y, self._max_y = min(ys), max(ys)
        self.stats = EditorStats()
        # Sampling pool for the churn generators: a list view of the
        # node set with lazy deletion (removals leave stale entries that
        # are discarded on draw; additions append).  Built on first use
        # so plain editing never pays for it.
        self._pool: Optional[List[Node]] = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: Node) -> bool:
        return node in self._nodes

    @property
    def nodes(self) -> FrozenSet[Node]:
        """The current node set (a snapshot)."""
        return frozenset(self._nodes)

    def structure(
        self,
        basis: Optional[AmoebotStructure] = None,
        dirty: Iterable[Node] = (),
    ) -> AmoebotStructure:
        """The current node set as a trusted :class:`AmoebotStructure`.

        All invariants were maintained incrementally, so the O(n)
        re-validation of the public constructor is skipped;
        ``basis``/``dirty`` forward to
        :meth:`AmoebotStructure.from_validated` for cache reuse.
        """
        return AmoebotStructure.from_validated(
            self._nodes, basis=basis, dirty=dirty
        )

    def sample_node(self, rng: random.Random) -> Node:
        """A uniformly random occupied node, in amortized O(1).

        Deterministic for a given RNG state and edit history.  Stale
        pool entries (removed nodes) are swap-deleted as they are
        drawn; the pool is rebuilt from the sorted node set only when
        lazy deletion has hollowed it out.
        """
        pool = self._pool
        if pool is None or not pool or len(pool) > 2 * len(self._nodes):
            pool = self._pool = sorted(self._nodes)
        while True:
            i = rng.randrange(len(pool))
            u = pool[i]
            if u in self._nodes:
                return u
            pool[i] = pool[-1]
            pool.pop()
            if not pool:
                pool = self._pool = sorted(self._nodes)

    # ------------------------------------------------------------------
    # single-operation validation (all local)
    # ------------------------------------------------------------------
    def _ring(self, u: Node) -> int:
        """Occupancy mask of the six ring neighbors (bit d = direction d).

        Its occupied arcs are ``RING_ARCS[mask]`` and its empty arcs
        ``RING_ARCS[mask ^ 63]``.
        """
        nodes = self._nodes
        x, y = u
        return sum(bit for bit, (dx, dy) in _RING_OFFSETS if (x + dx, y + dy) in nodes)

    def _in_box(self, u: Node) -> bool:
        return (
            self._min_x <= u.x <= self._max_x
            and self._min_y <= u.y <= self._max_y
        )

    def _region_is_finite(self, start: Node, pending: Node) -> Set[Node]:
        """Empty region of ``start`` if finite, else empty set.

        Flood-fills empty cells (treating ``pending`` — the node being
        added — as occupied) and stops the moment a cell escapes the
        bounding box: everything beyond the box is empty and connected
        to infinity, so an escape proves the region infinite.
        """
        seen: Set[Node] = {start}
        stack = [start]
        while stack:
            c = stack.pop()
            self.stats.flood_cells += 1
            for w in c.neighbors():
                if w in self._nodes or w == pending or w in seen:
                    continue
                if not self._in_box(w):
                    return set()
                seen.add(w)
                stack.append(w)
        return seen

    def check_add(self, u: Node) -> Optional[str]:
        """Why adding ``u`` would be illegal, or ``None`` if legal."""
        if u in self._nodes:
            return f"{u} is already occupied"
        ring = self._ring(u)
        if not ring:
            return f"{u} has no occupied neighbor (would disconnect)"
        if RING_ARCS[ring ^ 63] <= 1:
            return None  # the surrounding empty region cannot split
        # The addition splits the local empty region: every resulting
        # arc must still reach infinity.
        checked: Set[Node] = set()
        directions = all_directions_ccw()
        for i in range(6):
            if ring >> i & 1:
                continue
            cell = u.neighbor(directions[i])
            if cell in checked:
                continue
            region = self._region_is_finite(cell, pending=u)
            if region:
                return f"adding {u} would pinch off a hole at {cell}"
            checked.add(cell)
        return None

    def check_remove(self, u: Node) -> Optional[str]:
        """Why removing ``u`` would be illegal, or ``None`` if legal."""
        if u not in self._nodes:
            return f"{u} is not occupied"
        if u in self.protected:
            return f"{u} is protected (source/destination)"
        if len(self._nodes) == 1:
            return "cannot remove the last amoebot"
        ring = self._ring(u)
        arcs = RING_ARCS[ring]
        if arcs != 1:
            return f"removing {u} would disconnect the structure ({arcs} arcs)"
        if ring == 63:
            return f"removing {u} would create a one-cell hole"
        return None

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def add(self, u: Node) -> None:
        """Add one node (validated)."""
        reason = self.check_add(u)
        if reason is not None:
            self.stats.rejected += 1
            raise EditError(f"illegal addition: {reason}")
        self._nodes.add(u)
        self._min_x = min(self._min_x, u.x)
        self._max_x = max(self._max_x, u.x)
        self._min_y = min(self._min_y, u.y)
        self._max_y = max(self._max_y, u.y)
        if self._pool is not None:
            self._pool.append(u)
        self.stats.adds += 1

    def remove(self, u: Node) -> None:
        """Remove one node (validated).  The bounding box stays monotone."""
        reason = self.check_remove(u)
        if reason is not None:
            self.stats.rejected += 1
            raise EditError(f"illegal removal: {reason}")
        self._nodes.discard(u)
        self.stats.removes += 1

    def apply(self, batch: EditBatch) -> None:
        """Apply a whole batch atomically (rolled back on rejection)."""
        done: List[Tuple[str, Node]] = []
        adds_before = self.stats.adds
        removes_before = self.stats.removes
        try:
            for op, u in batch.ops():
                if op == "remove":
                    self.remove(u)
                else:
                    self.add(u)
                done.append((op, u))
        except EditError:
            for op, u in reversed(done):
                if op == "remove":
                    self._nodes.add(u)
                else:
                    self._nodes.discard(u)
            # The rolled-back operations never happened; flood_cells is
            # left alone (it measures validation work actually done).
            self.stats.adds = adds_before
            self.stats.removes = removes_before
            self._pool = None  # direct node restores bypassed the pool
            raise

    def apply_script(self, script: EditScript) -> None:
        """Apply every batch of a script in order."""
        for batch in script:
            self.apply(batch)


# ----------------------------------------------------------------------
# churn generators
# ----------------------------------------------------------------------


def _boundary_candidates(editor: StructureEditor, rng: random.Random, tries: int):
    """Random occupied nodes, cheaply sampled with replacement."""
    for _ in range(tries):
        yield editor.sample_node(rng)


def _grow_one(
    editor: StructureEditor,
    rng: random.Random,
    exclude: Iterable[Node] = (),
) -> Optional[Node]:
    banned = set(exclude)
    for anchor in _boundary_candidates(editor, rng, tries=32):
        empties = [
            v for v in anchor.neighbors() if v not in editor and v not in banned
        ]
        rng.shuffle(empties)
        for v in empties:
            if editor.check_add(v) is None:
                editor.add(v)
                return v
    return None


def _erode_one(editor: StructureEditor, rng: random.Random) -> Optional[Node]:
    for u in _boundary_candidates(editor, rng, tries=48):
        if editor.check_remove(u) is None:
            editor.remove(u)
            return u
    return None


def _tunnel_batch(
    editor: StructureEditor, rng: random.Random, length: int
) -> EditBatch:
    """Carve a straight fjord inward from a random boundary node."""
    removed: List[Node] = []
    for start in _boundary_candidates(editor, rng, tries=48):
        directions = list(all_directions_ccw())
        rng.shuffle(directions)
        for d in directions:
            cur = start
            trial: List[Node] = []
            while len(trial) < length and cur in editor:
                if editor.check_remove(cur) is not None:
                    break
                editor.remove(cur)
                trial.append(cur)
                cur = cur.neighbor(d)
            if trial:
                removed = trial
                break
        if removed:
            break
    return EditBatch(remove=tuple(removed))


def _block_move_batch(
    editor: StructureEditor, rng: random.Random, size: int
) -> EditBatch:
    """Detach mass on one side, re-attach the same amount elsewhere."""
    removed: List[Node] = []
    for _ in range(size):
        u = _erode_one(editor, rng)
        if u is None:
            break
        removed.append(u)
    added: List[Node] = []
    for _ in range(len(removed)):
        # A "move" must not re-occupy a cell vacated in the same batch
        # (batches keep removals and additions disjoint).
        v = _grow_one(editor, rng, exclude=removed)
        if v is None:
            break
        added.append(v)
    return EditBatch(remove=tuple(removed), add=tuple(added))


def generate_churn(
    structure: AmoebotStructure,
    kind: str,
    steps: int,
    batch_size: int = 1,
    seed: int = 0,
    protected: Iterable[Node] = (),
) -> EditScript:
    """Generate a seeded, validated churn script of ``steps`` batches.

    Every batch is built through a :class:`StructureEditor`, so the
    returned script applies cleanly to ``structure`` batch by batch.
    ``protected`` nodes (typically sources and destinations) are never
    removed.  Batches may come out smaller than ``batch_size`` (or
    empty, in which case generation stops early) when the structure
    runs out of legal operations of the requested flavor.
    """
    if kind not in CHURN_KINDS:
        raise EditError(f"unknown churn kind {kind!r}; expected one of {CHURN_KINDS}")
    if steps < 1:
        raise EditError(f"churn steps must be positive, got {steps}")
    if batch_size < 1:
        raise EditError(f"churn batch size must be positive, got {batch_size}")
    rng = random.Random(seed)
    editor = StructureEditor(structure, protected=protected)
    batches: List[EditBatch] = []
    for _ in range(steps):
        flavor = kind
        if kind == "mixed":
            flavor = rng.choice(("growth", "erosion", "tunnel", "block_move"))
        if flavor == "growth":
            added = [
                u
                for u in (_grow_one(editor, rng) for _ in range(batch_size))
                if u is not None
            ]
            batch = EditBatch(add=tuple(added))
        elif flavor == "erosion":
            removed = [
                u
                for u in (_erode_one(editor, rng) for _ in range(batch_size))
                if u is not None
            ]
            batch = EditBatch(remove=tuple(removed))
        elif flavor == "tunnel":
            batch = _tunnel_batch(editor, rng, length=batch_size)
        else:  # block_move
            batch = _block_move_batch(editor, rng, size=max(1, batch_size // 2))
        if batch.size == 0:
            break
        batches.append(batch)
    if not batches:
        raise EditError(
            f"churn generator {kind!r} found no legal operations on "
            f"a structure of {len(structure)} nodes"
        )
    return EditScript(batches=tuple(batches), kind=kind, seed=seed)
