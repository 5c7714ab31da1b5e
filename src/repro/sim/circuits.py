"""Circuit layouts: system-wide pin configurations and their circuits.

A :class:`CircuitLayout` collects every amoebot's pin configuration for
one (or more) rounds.  Freezing a layout validates it against the model
and computes its *circuits* — the connected components of the graph whose
vertices are partition sets and whose edges are the external links between
them (Section 1.2).  Layouts are reusable: algorithms that keep the same
pin configuration over many rounds pay the component computation once.

**Rule: build layouts outside round loops.**  Per-round work should be
:meth:`CircuitEngine.run_round <repro.sim.engine.CircuitEngine.run_round>`
calls against a layout that already exists.  Three tools make that cheap
even when the wiring *does* evolve between rounds:

* Freezing *compiles* the layout: partition sets are hashed exactly once
  into dense integer ids and the circuits live in flat arrays
  (:class:`~repro.sim.compiled.CompiledLayout`), so a round is a couple
  of integer array passes instead of dict traversal.  The dict views
  (:meth:`CircuitLayout.component_map`, :meth:`CircuitLayout.circuits`)
  are derived lazily from the arrays for tests and tracing.
* :meth:`CircuitLayout.derive` clones a frozen layout into a new,
  re-wirable one.  :meth:`CircuitLayout.reassign` replaces the pins of
  individual partition sets, and the subsequent :meth:`freeze` re-runs
  the integer union-find only over the circuits touched by the
  re-wiring — the untouched region keeps its component labels and its
  adjacency rows verbatim, and the integer set-ids stay stable across
  the whole derive chain.  PASC uses this: each iteration flips the
  crossing of a few links, so the union-find and recompilation cost
  O(touched region) instead of O(structure).  (The clone itself still
  shallow-copies the ownership tables — a hash-free C-level dict copy;
  pin *lists* are shared copy-on-write.)
* :class:`LayoutCache` memoizes frozen layouts under a caller-chosen
  wiring fingerprint (any hashable key that determines the wiring, e.g.
  ``("global", label, channel)`` or a tuple of tour edges).  Algorithms
  that rebuild the *same* wiring repeatedly (global termination circuits,
  the deterministic decomposition recomputed every merge iteration) hit
  the cache and skip validation, union-find, and compilation entirely.

:data:`LAYOUT_STATS` counts full versus incremental component builds,
array compilations, rounds executed over the array backend, and layout
cache traffic, so tests and CI can assert that nobody reintroduces
per-round rebuilds.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.backend import resolve_backend
from repro.grid.coords import Node
from repro.grid.directions import OPPOSITE_VALUES as _OPPOSITE, Direction
from repro.grid.structure import AmoebotStructure
from repro.sim.compiled import (
    CompiledLayout,
    compile_wiring_ids,
    recompile_derived,
)
from repro.obs.trace import trace_span
from repro.sim.errors import PinConfigurationError
from repro.sim.pins import PartitionSetId, Pin


class LayoutBuildStats:
    """Counters for layout component computations (probe for tests/CI).

    ``full_builds`` counts freezes of from-scratch layouts (assignment
    validation plus union-find over everything); ``incremental_builds``
    counts freezes of derived layouts, which skip re-validation and
    recompute components only as far as the re-wiring reaches;
    ``noop_freezes`` counts derived freezes with no re-wiring at all
    (the base layout's compiled arrays are adopted verbatim).

    The compile/execute counters probe the flat-array backend:
    ``compiles`` counts :class:`~repro.sim.compiled.CompiledLayout`
    constructions (every full or incremental freeze lowers to arrays;
    noop freezes reuse the base arrays and do not compile),
    ``indexed_rounds`` counts every beep round the round kernel
    executes, and ``mapped_rounds`` counts the subset that entered
    through the id-keyed ``run_round`` adapter.

    The cache counters aggregate :class:`LayoutCache` traffic across
    every cache in the process: ``cache_hits`` / ``cache_misses`` /
    ``cache_evictions``.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero all counters (tests do this before probing a run)."""
        self.full_builds = 0
        self.incremental_builds = 0
        self.noop_freezes = 0
        self.compiles = 0
        self.indexed_rounds = 0
        self.mapped_rounds = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0

    def total_builds(self) -> int:
        """Component computations of either kind."""
        return self.full_builds + self.incremental_builds

    def total_rounds(self) -> int:
        """Beep rounds executed over the array backend (either entry)."""
        return self.indexed_rounds

    def to_dict(self) -> dict:
        """All counters as a JSON-ready mapping (``/stats`` payload)."""
        return dict(vars(self))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"LayoutBuildStats(full={self.full_builds}, "
            f"incremental={self.incremental_builds}, "
            f"noop={self.noop_freezes}, compiles={self.compiles}, "
            f"indexed_rounds={self.indexed_rounds}, "
            f"mapped_rounds={self.mapped_rounds}, "
            f"cache=h{self.cache_hits}/m{self.cache_misses}"
            f"/e{self.cache_evictions})"
        )


#: Process-wide component-computation counters.  Reset in tests via
#: ``LAYOUT_STATS.reset()``; purely observational, never read by the
#: algorithms themselves.
LAYOUT_STATS = LayoutBuildStats()


class CircuitLayout:
    """A system-wide pin configuration.

    Build one by calling :meth:`assign` for every pin an amoebot places
    into a named partition set, then :meth:`freeze` (done implicitly by
    the engine).  Unassigned pins are inert singletons: they belong to no
    algorithm-visible partition set and never carry beeps, which is
    equivalent to each amoebot parking them in private singleton sets.

    A frozen layout is immutable; to change the wiring, :meth:`derive` a
    new layout and :meth:`reassign` the partition sets that moved.
    Freezing compiles the layout to flat arrays (:meth:`compiled`); the
    engine executes rounds against those arrays.

    **Integer internals.**  The layout stores its whole state in the
    integer space of the structure's
    :class:`~repro.grid.compiled.GridIndex`: a pin is the int
    ``(node_id * 6 + direction) * c + channel``, a partition set is a
    dense *slot* (which becomes its compiled integer id verbatim), and
    the pin-ownership table maps int to int.  Validation (does the pin
    exist? is the channel in budget?) reads the index's flat neighbor
    array, and pin mates resolve through its mirror-edge table — after
    the one ``node -> id`` lookup per :meth:`assign` call, nothing
    hashes coordinates.  The :class:`Pin`/:data:`PartitionSetId` object
    views remain available for tests and observability
    (:meth:`pin_assignments`, :meth:`partition_sets`).
    """

    def __init__(
        self,
        structure: AmoebotStructure,
        channels: int,
        backend: Optional[str] = None,
    ):
        if channels < 1:
            raise PinConfigurationError("pin budget c must be at least 1")
        self._structure = structure
        self._gi = structure.grid_index()
        self._channels = channels
        #: Execution backend the compiled arrays run under; resolved at
        #: construction (``None`` -> process default) and inherited by
        #: every derived layout so a derive chain never mixes backends.
        self._backend = resolve_backend(backend)
        #: (node_id, label) -> slot.  Slots are stable for the lifetime
        #: of a layout (a released set keeps its slot, marked dead) and
        #: are compacted away only by a full relower.
        self._key_slot: Dict[Tuple[int, str], int] = {}
        self._ids: List[PartitionSetId] = []
        self._alive = bytearray()
        self._n_alive = 0
        self._pin_slot: Dict[int, int] = {}
        self._slot_pins: List[Optional[List[int]]] = []
        # Bitmask of channels that ever carried a pin (conservative: a
        # released channel stays flagged).  O(1) probe for callers that
        # reserve a channel, e.g. the PASC termination circuit.
        self._channel_mask = 0
        # Copy-on-write support: only pin lists named here are private to
        # this layout; derived layouts start with every list shared with
        # their base and clone a list before its first in-place append.
        self._owned_pin_lists: Set[int] = set()
        self._frozen = False
        self._compiled: Optional[CompiledLayout] = None
        # Lazy dict views over the compiled arrays (tests and tracing).
        self._components: Optional[Dict[PartitionSetId, int]] = None
        # Derivation bookkeeping: when non-None, freeze() recompiles the
        # arrays incrementally from the base layout's compiled form.
        self._base_compiled: Optional[CompiledLayout] = None
        self._dirty: Set[int] = set()
        self._force_relower = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def assign(
        self,
        node: Node,
        label: str,
        pins: Iterable[Tuple[Direction, int]],
    ) -> None:
        """Place ``pins`` of ``node`` into the partition set ``label``.

        May be called repeatedly for the same label to accumulate pins.
        An empty pin collection still declares the partition set (a
        partition set with no pins forms its own trivial circuit; an
        amoebot may use one as a local flag).
        """
        if self._frozen:
            raise PinConfigurationError("layout is frozen")
        gi = self._gi
        nid = gi.id_of(node)
        if nid is None:
            raise PinConfigurationError(f"{node} is not part of the structure")
        slot = self._slot_for(nid, node, label)
        track = self._base_compiled is not None
        if track:
            self._dirty.add(slot)
        channels = self._channels
        nbr = gi.nbr
        pin_slot = self._pin_slot
        slot_pins = self._slot_pins
        owned = self._owned_pin_lists
        base = nid * 6
        channel_mask = self._channel_mask
        for direction, channel in pins:
            if not 0 <= channel < channels:
                raise PinConfigurationError(
                    f"channel {channel} out of range (c={channels})"
                )
            channel_mask |= 1 << channel
            edge = base + direction
            mate_nid = nbr[edge]
            if mate_nid < 0:
                raise PinConfigurationError(
                    f"{node} has no neighbor toward {direction.name}; pin does not exist"
                )
            pin = edge * channels + channel
            existing = pin_slot.get(pin)
            if existing is not None:
                if existing != slot:
                    raise PinConfigurationError(
                        f"pin {self._pin_of(pin)} already assigned to "
                        f"partition set {self._ids[existing]}"
                    )
                # Re-assigning a pin to its own set is an idempotent
                # no-op: a duplicate pin-list entry would leave a stale
                # record behind if the pin later moved to a sibling via
                # exchange_pins (which removes exactly one entry).
                continue
            pin_slot[pin] = slot
            pin_list = slot_pins[slot]
            if pin_list is None:
                pin_list = slot_pins[slot] = []
                owned.add(slot)
            elif slot not in owned:
                # Clone before appending: the list is shared with the
                # frozen base layout this one was derived from.
                pin_list = slot_pins[slot] = list(pin_list)
                owned.add(slot)
            pin_list.append(pin)
            if track:
                mate_owner = pin_slot.get(
                    (mate_nid * 6 + _OPPOSITE[direction]) * channels + channel
                )
                if mate_owner is not None:
                    self._dirty.add(mate_owner)
        self._channel_mask = channel_mask

    def _slot_for(self, nid: int, node: Node, label: str) -> int:
        """The (live) slot of partition set ``(node, label)``, declaring it."""
        key = (nid, label)
        slot = self._key_slot.get(key)
        if slot is None:
            slot = len(self._ids)
            self._key_slot[key] = slot
            self._ids.append((node, label))
            self._alive.append(1)
            self._slot_pins.append(None)
            self._owned_pin_lists.add(slot)
            self._n_alive += 1
        elif not self._alive[slot]:
            self._alive[slot] = 1
            self._n_alive += 1
        return slot

    def _pin_of(self, pin: int) -> Pin:
        """Decode an integer pin into its :class:`Pin` view (cold paths)."""
        edge, channel = divmod(pin, self._channels)
        nid, d = divmod(edge, 6)
        return Pin(self._gi.nodes[nid], Direction(d), channel)

    def declare(self, node: Node, label: str) -> None:
        """Declare a pin-less partition set (a private flag circuit)."""
        self.assign(node, label, ())

    def assign_global(self, label: str, channel: int) -> None:
        """Wire every amoebot's channel-``channel`` pins into one set each.

        The standard global-circuit wiring (termination circuits, leader
        coordination), built in one pass over the grid index's flat
        neighbor array — no per-node direction lists, no coordinate
        hashing.  Equivalent to calling :meth:`assign` for every node
        with all of its occupied directions on ``channel``.
        """
        if self._frozen:
            raise PinConfigurationError("layout is frozen")
        if not 0 <= channel < self._channels:
            raise PinConfigurationError(
                f"channel {channel} out of range (c={self._channels})"
            )
        if self._base_compiled is not None:
            # Derived layouts need per-set dirty tracking: take the
            # general path, which maintains it.
            for node in self._structure:
                pins = [
                    (d, channel)
                    for d in self._structure.occupied_directions(node)
                ]
                self.assign(node, label, pins)
            return
        gi = self._gi
        nbr = gi.nbr
        channels = self._channels
        pin_slot = self._pin_slot
        slot_pins = self._slot_pins
        ids = self._ids
        nodes = gi.nodes
        self._channel_mask |= 1 << channel
        for nid in range(gi.n_slots):
            node = nodes[nid]
            if node is None:
                continue
            slot = self._slot_for(nid, node, label)
            pin_list = slot_pins[slot]
            if pin_list is None:
                pin_list = slot_pins[slot] = []
                self._owned_pin_lists.add(slot)
            base = nid * 6
            for d in range(6):
                if nbr[base + d] < 0:
                    continue
                pin = (base + d) * channels + channel
                existing = pin_slot.get(pin)
                if existing is not None:
                    if existing != slot:
                        raise PinConfigurationError(
                            f"pin {self._pin_of(pin)} already assigned to "
                            f"partition set {ids[existing]}"
                        )
                    continue
                pin_slot[pin] = slot
                pin_list.append(pin)

    # ------------------------------------------------------------------
    # derivation: cheap re-wiring of an already-computed layout
    # ------------------------------------------------------------------
    def derive(self) -> "CircuitLayout":
        """Clone this (frozen) layout into a new, re-wirable layout.

        The clone starts with identical wiring and remembers this
        layout's compiled arrays.  After :meth:`reassign` calls,
        freezing the clone re-runs the integer union-find only over the
        circuits touched by the re-wiring; everything else — component
        labels, adjacency rows, and the partition-set index itself — is
        adopted verbatim, so integer set-ids stay stable across the
        derive chain.  The clone operation itself shallow-copies the
        pin-ownership tables (hash-free C-level copies; pin lists are
        shared copy-on-write), so only the component work is bounded by
        the touched region.  The original layout stays frozen and valid.
        """
        self.freeze()
        clone = CircuitLayout.__new__(CircuitLayout)
        clone._structure = self._structure
        clone._gi = self._gi
        clone._channels = self._channels
        clone._backend = self._backend
        clone._key_slot = dict(self._key_slot)
        clone._ids = list(self._ids)
        clone._alive = bytearray(self._alive)
        clone._n_alive = self._n_alive
        clone._pin_slot = dict(self._pin_slot)
        clone._channel_mask = self._channel_mask
        # Pin lists are shared copy-on-write: assign() clones a list
        # before its first in-place append, so the frozen base layout is
        # never corrupted and untouched sets are never copied.
        clone._slot_pins = list(self._slot_pins)
        clone._owned_pin_lists = set()
        clone._frozen = False
        clone._compiled = None
        clone._components = None
        clone._base_compiled = self._compiled
        clone._dirty = set()
        clone._force_relower = False
        return clone

    def derive_for(self, structure: AmoebotStructure) -> "CircuitLayout":
        """:meth:`derive`, re-bound to an *edited* structure.

        The dynamics layer patches wave/coordination layouts across
        structure edits instead of rebuilding them: the clone starts
        with the old wiring but validates subsequent
        :meth:`assign`/:meth:`release` calls against the **new**
        structure.  The caller must release every partition set owned
        by a departed amoebot (and every surviving set's pin toward a
        departed cell) before freezing — pins into vacated cells would
        otherwise dangle.  Freezing then recompiles incrementally under
        the derive contract (validation of untouched sets is skipped).

        ``structure`` must share this layout's node-id space: build it
        with :meth:`AmoebotStructure.from_validated
        <repro.grid.structure.AmoebotStructure.from_validated>` passing
        the current structure as ``basis`` (the dynamics editor does),
        so its grid index is *derived* and every surviving node keeps
        its id.  The layout's integer pin tables then carry over
        verbatim; an unrelated structure has incompatible ids and is
        rejected.
        """
        new_index = structure.grid_index()
        if new_index.root is not self._gi.root:
            raise PinConfigurationError(
                "derive_for requires a structure derived from this "
                "layout's structure (AmoebotStructure.from_validated "
                "with basis=...); an independently built structure has "
                "incompatible node ids"
            )
        clone = self.derive()
        clone._structure = structure
        clone._gi = new_index
        return clone

    def release(self, node: Node, label: str) -> None:
        """Un-declare partition set ``(node, label)`` and free its pins.

        Used when *groups* of sets are re-wired together (e.g. a PASC
        unit's primary/secondary pair swapping channels): release every
        member first, then :meth:`assign` the new pin collections —
        otherwise the new pins of one set collide with the old pins of
        its sibling.  A released set that is never re-assigned simply
        disappears from the layout.
        """
        if self._frozen:
            raise PinConfigurationError("layout is frozen; derive() a new one first")
        track = self._base_compiled is not None
        nid = self._gi.slot_of(node)
        slot = None if nid is None else self._key_slot.get((nid, label))
        if slot is None or not self._alive[slot]:
            # Releasing a set this layout never declared: historically
            # this marked an unknown id dirty, forcing the conservative
            # relower on a derived freeze; preserve that.
            if track:
                self._force_relower = True
            return
        if track:
            self._dirty.add(slot)
        old_pins = self._slot_pins[slot]
        self._slot_pins[slot] = None
        self._owned_pin_lists.discard(slot)
        if old_pins:
            pin_slot = self._pin_slot
            for pin in old_pins:
                if pin_slot.get(pin) == slot:
                    del pin_slot[pin]
            if track:
                # Mates are computed geometrically (not via the mirror
                # table): when releasing the sets of a *departed*
                # amoebot after derive_for, the new index's rows for
                # the vacated cell are already cleared, but the
                # surviving neighbors' facing sets still must be
                # marked dirty.
                channels = self._channels
                for pin in old_pins:
                    edge, channel = divmod(pin, channels)
                    d = edge % 6
                    mate_id = self._gi.slot_of(node.neighbor(Direction(d)))
                    if mate_id is None:
                        continue
                    mate_owner = pin_slot.get(
                        (mate_id * 6 + _OPPOSITE[d]) * channels + channel
                    )
                    if mate_owner is not None:
                        self._dirty.add(mate_owner)
        self._alive[slot] = 0
        self._n_alive -= 1

    def reassign(
        self,
        node: Node,
        label: str,
        pins: Iterable[Tuple[Direction, int]],
    ) -> None:
        """Replace the pin collection of partition set ``(node, label)``.

        Unlike :meth:`assign` this does not accumulate: the set's old
        pins are released first.  On a derived layout both the set and
        every neighbor set it was or becomes wired to are marked dirty,
        bounding the incremental component recomputation.
        """
        self.release(node, label)
        self.assign(node, label, pins)

    def exchange_pins(
        self,
        node: Node,
        label_a: str,
        label_b: str,
        pins: Iterable[Tuple[Direction, int]],
    ) -> None:
        """Swap ownership of ``pins`` between two sibling partition sets.

        Every listed pin must currently belong to ``(node, label_a)`` or
        ``(node, label_b)``; its ownership flips to the other set.  This
        is PASC's crossing flip — un-/re-crossing a link exchanges the
        two channels of the same physical pins between a unit's primary
        and secondary sets — as one cheap operation: the pins already
        passed validation when first assigned, so no existence or budget
        checks are repeated and no release-both-then-reassign dance is
        needed.

        **Ownership-swap contract.**  The operation is exactly a
        transfer of ownership records, with these guarantees and
        obligations:

        * *Both sets must be declared* on this layout; an undeclared
          side raises :class:`PinConfigurationError` before anything is
          touched.
        * *Every listed pin must belong to one of the two sets* at call
          time.  A pin owned by a third set (or unassigned) raises —
          but pins listed **before** the offending one have already
          swapped: the operation is not atomic, so callers treating it
          as transactional must validate the pin list up front (PASC
          passes a unit's own link pins, which it owns by
          construction).
        * *No pin is created or destroyed*: the physical pin universe
          and the partition-set universe are unchanged, which is why a
          following incremental :meth:`freeze` never falls back to the
          full relower — only the two sets and the mates at the far end
          of the swapped links are marked dirty.
        * *Copy-on-write is preserved*: pin lists shared with the base
          layout are cloned before their first mutation, so the frozen
          base layout the clone was :meth:`derive`-d from is never
          corrupted.
        * *An empty swap list is a no-op* that still marks the two sets
          dirty on a derived layout (harmless, one extra row in the
          incremental recompilation).
        """
        if self._frozen:
            raise PinConfigurationError("layout is frozen; derive() a new one first")
        nid = self._gi.id_of(node)
        if nid is None:
            raise PinConfigurationError(f"{node} is not part of the structure")
        key_slot = self._key_slot
        alive = self._alive
        slot_a = key_slot.get((nid, label_a))
        slot_b = key_slot.get((nid, label_b))
        if (
            slot_a is None
            or slot_b is None
            or not alive[slot_a]
            or not alive[slot_b]
        ):
            raise PinConfigurationError(
                f"exchange_pins requires both {(node, label_a)} and "
                f"{(node, label_b)} to be declared"
            )
        pin_slot = self._pin_slot
        slot_pins = self._slot_pins
        owned = self._owned_pin_lists
        track = self._base_compiled is not None
        if track:
            self._dirty.add(slot_a)
            self._dirty.add(slot_b)
        channels = self._channels
        nbr = self._gi.nbr
        base = nid * 6
        for direction, channel in pins:
            edge = base + direction
            pin = edge * channels + channel
            owner = pin_slot.get(pin)
            if owner == slot_a:
                new_owner = slot_b
            elif owner == slot_b:
                new_owner = slot_a
            else:
                owner_id = None if owner is None else self._ids[owner]
                raise PinConfigurationError(
                    f"pin {self._pin_of(pin)} belongs to {owner_id}, not to "
                    f"{(node, label_a)} or {(node, label_b)}"
                )
            pin_slot[pin] = new_owner
            old_list = slot_pins[owner]
            if owner not in owned:
                old_list = slot_pins[owner] = list(old_list)
                owned.add(owner)
            old_list.remove(pin)
            new_list = slot_pins[new_owner]
            if new_list is None:
                new_list = slot_pins[new_owner] = []
                owned.add(new_owner)
            elif new_owner not in owned:
                new_list = slot_pins[new_owner] = list(new_list)
                owned.add(new_owner)
            new_list.append(pin)
            if track:
                mate_nid = nbr[edge]
                if mate_nid >= 0:
                    mate_owner = pin_slot.get(
                        (mate_nid * 6 + _OPPOSITE[direction]) * channels + channel
                    )
                    if mate_owner is not None:
                        self._dirty.add(mate_owner)

    # ------------------------------------------------------------------
    # freezing, compilation, and component computation
    # ------------------------------------------------------------------
    def freeze(self) -> None:
        """Validate the layout and compile its circuits to flat arrays.

        Idempotent: freezing a frozen layout is a no-op — reusing a
        layout over many rounds pays the component computation once.
        Derived layouts recompute only the touched region.
        """
        if self._frozen:
            return
        incremental = self._base_compiled is not None
        with trace_span(
            "compile", kind="incremental" if incremental else "full"
        ):
            if incremental:
                self._freeze_incremental()
            else:
                self._freeze_full()
        self._frozen = True

    def _freeze_full(self) -> None:
        if self._n_alive != len(self._ids):
            self._compact()
        self._compiled = compile_wiring_ids(
            self._ids,
            self._pin_slot,
            self._channels,
            self._gi.mate_edges(),
            backend=self._backend,
        )
        LAYOUT_STATS.full_builds += 1
        LAYOUT_STATS.compiles += 1

    def _freeze_incremental(self) -> None:
        base = self._base_compiled
        assert base is not None
        if not self._dirty and not self._force_relower:
            # Wiring unchanged: adopt the base compilation wholesale.
            self._compiled = base
            LAYOUT_STATS.noop_freezes += 1
            self._base_compiled = None
            return

        if (
            self._force_relower
            or self._n_alive != len(self._ids)
            or len(self._ids) != len(base.index)
        ):
            # The partition-set universe changed (sets released for good
            # or newly declared): compact the slots and relower from
            # scratch with a fresh index.  Assignment validation is
            # still skipped — that is the derive() contract.
            self._compact()
            self._compiled = compile_wiring_ids(
                self._ids,
                self._pin_slot,
                self._channels,
                self._gi.mate_edges(),
                backend=self._backend,
            )
        else:
            # Universe intact: slots coincide with the base index's
            # integer ids, so rebuild only the dirty adjacency rows and
            # recompute components over the touched region.  The base
            # index object is reused, so integer set-ids held by
            # callers stay valid.
            pin_slot = self._pin_slot
            get_owner = pin_slot.get
            mate_edges = self._gi.mate_edges()
            channels = self._channels
            slot_pins = self._slot_pins
            dirty_indices: List[int] = []
            new_rows: Dict[int, List[int]] = {}
            for slot in self._dirty:
                dirty_indices.append(slot)
                row: List[int] = []
                for pin in slot_pins[slot] or ():
                    edge = pin // channels
                    mate_owner = get_owner(
                        pin + (mate_edges[edge] - edge) * channels
                    )
                    if mate_owner is not None:
                        row.append(mate_owner)
                new_rows[slot] = row
            self._compiled = recompile_derived(base, dirty_indices, new_rows)
        LAYOUT_STATS.incremental_builds += 1
        LAYOUT_STATS.compiles += 1
        self._base_compiled = None
        self._dirty.clear()
        self._force_relower = False

    def _compact(self) -> None:
        """Renumber slots densely, dropping released (dead) ones.

        Only runs on the relower paths: a frozen layout therefore always
        has its slots coincide with its compiled integer ids, which is
        what lets the incremental freeze pass slots straight to
        :func:`~repro.sim.compiled.recompile_derived`.
        """
        alive = self._alive
        if self._n_alive == len(self._ids):
            return
        remap = [-1] * len(self._ids)
        fresh = 0
        for slot in range(len(self._ids)):
            if alive[slot]:
                remap[slot] = fresh
                fresh += 1
        self._ids = [sid for sid, a in zip(self._ids, alive) if a]
        self._slot_pins = [pl for pl, a in zip(self._slot_pins, alive) if a]
        self._key_slot = {
            key: remap[slot]
            for key, slot in self._key_slot.items()
            if alive[slot]
        }
        self._pin_slot = {pin: remap[slot] for pin, slot in self._pin_slot.items()}
        self._owned_pin_lists = {
            remap[slot] for slot in self._owned_pin_lists if alive[slot]
        }
        self._alive = bytearray(b"\x01") * len(self._ids)
        self._dirty.clear()

    def compiled(self) -> CompiledLayout:
        """The flat-array form of this layout (freezes if necessary)."""
        self.freeze()
        assert self._compiled is not None
        return self._compiled

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def channels(self) -> int:
        return self._channels

    @property
    def structure(self) -> AmoebotStructure:
        return self._structure

    def partition_sets(self) -> Set[PartitionSetId]:
        """All declared partition sets."""
        return {sid for sid, a in zip(self._ids, self._alive) if a}

    def uses_channel(self, channel: int) -> bool:
        """Whether any pin was ever assigned on ``channel``.

        Conservative O(1) probe (release does not clear the flag).
        The PASC runner uses it to fail fast when a run wires pins on
        the reserved termination channel — the termination circuit now
        lives on its own layout, so the per-pin collision that used to
        catch this no longer can.
        """
        return bool(self._channel_mask >> channel & 1)

    def pin_assignments(self) -> Dict[Pin, PartitionSetId]:
        """Pin -> owning partition set, as objects (observability view).

        The layout keeps its pin table in integer space; this decodes
        it for tests and statistics.  Built afresh on every call — do
        not use it anywhere hot.
        """
        ids = self._ids
        return {
            self._pin_of(pin): ids[slot] for pin, slot in self._pin_slot.items()
        }

    def circuit_of(self, node: Node, label: str) -> int:
        """Index of the circuit containing partition set ``(node, label)``.

        Only meaningful to the simulator/tests — amoebots themselves never
        learn circuit identities, only beeps.
        """
        compiled = self.compiled()
        index = compiled.index.get((node, label))
        if index is None:
            raise PinConfigurationError(
                f"partition set ({node}, {label!r}) was never declared"
            )
        return compiled.comp[index]

    def circuits(self) -> List[List[PartitionSetId]]:
        """All circuits as lists of partition sets (simulator/test view)."""
        compiled = self.compiled()
        starts, members = compiled.members_csr()
        ids = compiled.index.ids
        return [
            [ids[members[j]] for j in range(starts[c], starts[c + 1])]
            for c in range(compiled.n_components)
        ]

    def component_map(self) -> Dict[PartitionSetId, int]:
        """Partition set -> circuit index (simulator/test view).

        A lazily built dict view over the compiled arrays, cached on the
        layout and returned *without copying*.  Treat the result as
        read-only; mutate the wiring via :meth:`derive` /
        :meth:`reassign` instead.  The engine itself no longer reads
        this — rounds execute over the arrays directly.
        """
        if self._components is None:
            compiled = self.compiled()
            ids = compiled.index.ids
            comp = compiled.comp
            self._components = {ids[i]: comp[i] for i in range(len(ids))}
        return self._components

    def wiring_fingerprint(self) -> int:
        """A hash over the full wiring (diagnostics / cache keying).

        **What it covers.**  The pin budget, the declared partition-set
        universe, and every pin-to-set assignment, in a canonical
        (sorted) encoding over the structure's integer node ids — two
        layouts on the same structure fingerprint equal iff their
        wirings are identical, regardless of assignment order or how
        they were built (from scratch, by :meth:`derive` re-wiring, or
        via :meth:`exchange_pins`).

        **What it does not cover.**  The structure itself (two layouts
        on *different* structures may collide — node ids are only
        meaningful per grid index, so never mix structures under one
        fingerprint namespace), beep activity, anything about the
        compiled arrays, and hash-collision freedom (it is a ``hash``,
        not an identity; equality of fingerprints is evidence, not
        proof).  Prefer cheap semantic keys (the parameters that
        *determined* the wiring) for :class:`LayoutCache`; this
        exhaustive fingerprint is O(pins log pins) and meant for tests
        and debugging.
        """
        alive = self._alive
        slot_keys: Dict[int, Tuple[int, str]] = {}
        for key, slot in self._key_slot.items():
            if alive[slot]:
                slot_keys[slot] = key
        assignments = tuple(
            sorted(
                (pin,) + slot_keys[slot]
                for pin, slot in self._pin_slot.items()
            )
        )
        sets = tuple(sorted(slot_keys.values()))
        return hash((self._channels, assignments, sets))


class LayoutCache:
    """A bounded LRU cache of frozen layouts, keyed by wiring fingerprints.

    Keys are caller-chosen hashables that *determine* the wiring (e.g.
    ``("global", label, channel)``, a tuple of tour edges plus marked
    edges, or a PASC run's units/links/activity snapshot).  Entries are
    frozen on insertion, so a hit skips assignment validation, the
    union-find, and the array compilation entirely.  Every
    :class:`CircuitEngine` owns one (bound to its structure, so keys
    never need to include the structure); campaign workers additionally
    share one process-wide cache across trials via :meth:`scoped`.

    Hit/miss/eviction counts are kept per instance and mirrored into
    the process-wide :data:`LAYOUT_STATS` probe.
    """

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError("cache must hold at least one layout")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Hashable, CircuitLayout]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[CircuitLayout]:
        """The cached frozen layout for ``key``, or ``None``."""
        layout = self._entries.get(key)
        if layout is None:
            self.misses += 1
            LAYOUT_STATS.cache_misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        LAYOUT_STATS.cache_hits += 1
        return layout

    def put(self, key: Hashable, layout: CircuitLayout) -> CircuitLayout:
        """Freeze ``layout`` and cache it under ``key``."""
        layout.freeze()
        self._entries[key] = layout
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
            LAYOUT_STATS.cache_evictions += 1
        return layout

    def get_or_build(
        self, key: Hashable, builder: Callable[[], CircuitLayout]
    ) -> CircuitLayout:
        """The cached layout for ``key``, building (and caching) on miss."""
        layout = self.get(key)
        if layout is not None:
            return layout
        return self.put(key, builder())

    def scoped(self, prefix: Hashable) -> "ScopedLayoutCache":
        """A view of this cache with every key tucked under ``prefix``.

        Lets several engines (e.g. one per campaign trial) share one
        process-wide cache without key collisions: the prefix carries
        whatever determines the wiring context beyond the key itself —
        typically the structure's node set.
        """
        return ScopedLayoutCache(self, prefix)

    def clear(self) -> None:
        """Drop every cached layout (hit/miss counters are kept)."""
        self._entries.clear()


class ScopedLayoutCache:
    """A key-prefixing view over a shared :class:`LayoutCache`.

    Implements the same ``get`` / ``put`` / ``get_or_build`` surface the
    engine uses, delegating to the backing cache with ``(prefix, key)``
    keys.  Campaign workers hand each trial engine a scope keyed by the
    trial structure's node set, so trials over the same shape reuse one
    compiled layout per wiring fingerprint.
    """

    def __init__(self, backing: LayoutCache, prefix: Hashable):
        self.backing = backing
        self.prefix = prefix

    def __len__(self) -> int:
        return len(self.backing)

    def get(self, key: Hashable) -> Optional[CircuitLayout]:
        """The cached frozen layout for the scoped ``key``, or ``None``."""
        return self.backing.get((self.prefix, key))

    def put(self, key: Hashable, layout: CircuitLayout) -> CircuitLayout:
        """Freeze ``layout`` and cache it under the scoped ``key``."""
        return self.backing.put((self.prefix, key), layout)

    def get_or_build(
        self, key: Hashable, builder: Callable[[], CircuitLayout]
    ) -> CircuitLayout:
        """The scoped cached layout, building (and caching) on miss."""
        return self.backing.get_or_build((self.prefix, key), builder)

    def clear(self) -> None:
        """Drop every entry of the *backing* cache (all scopes)."""
        self.backing.clear()
