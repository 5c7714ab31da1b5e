"""Circuit layouts: system-wide pin configurations and their circuits.

A :class:`CircuitLayout` collects every amoebot's pin configuration for
one (or more) rounds.  Freezing a layout validates it against the model
and computes its *circuits* — the connected components of the graph whose
vertices are partition sets and whose edges are the external links between
them (Section 1.2).  Layouts are reusable: algorithms that keep the same
pin configuration over many rounds pay the component computation once.

**Rule: build layouts outside round loops.**  Per-round work should be
:meth:`CircuitEngine.run_round_indexed
<repro.sim.engine.CircuitEngine.run_round_indexed>` calls against a
layout that already exists.  Three tools make that cheap even when the
wiring *does* evolve between rounds:

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
array compilations, rounds executed over the compiled arrays, and layout
cache traffic, so tests and CI can assert that nobody reintroduces
per-round rebuilds.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.grid.coords import Node
from repro.grid.directions import OPPOSITE_VALUES as _OPPOSITE, Direction
from repro.grid.structure import AmoebotStructure
from repro.sim.compiled import (
    CompiledLayout,
    PartitionSetIndex,
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

    The compile/execute counters probe the flat-array lowering:
    ``compiles`` counts :class:`~repro.sim.compiled.CompiledLayout`
    constructions (every full or incremental freeze lowers to arrays;
    noop freezes reuse the base arrays and do not compile),
    and ``indexed_rounds`` counts every beep round the round kernel
    executes.

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
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0

    def total_builds(self) -> int:
        """Component computations of either kind."""
        return self.full_builds + self.incremental_builds

    def total_rounds(self) -> int:
        """Beep rounds executed over the compiled arrays."""
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
            f"cache=h{self.cache_hits}/m{self.cache_misses}"
            f"/e{self.cache_evictions})"
        )


#: A partition set's key is ``label id << _KEY_SHIFT | node id``.
_KEY_SHIFT = 32
_NID_MASK = (1 << _KEY_SHIFT) - 1

#: Process-wide component-computation counters.  Reset in tests via
#: ``LAYOUT_STATS.reset()``; purely observational, never read by the
#: algorithms themselves.
LAYOUT_STATS = LayoutBuildStats()


class CircuitLayout:
    """A system-wide pin configuration.

    Build one from grid-index integers — :meth:`assign_sets` places
    ``(edge id, channel)`` pins into named partition sets ``(node id,
    label)``, :meth:`assign_edges` fuses an edge subset, and
    :meth:`assign_global` wires the global circuit — then
    :meth:`freeze` (done implicitly by the engine).  Unassigned pins
    are inert singletons: they belong to no algorithm-visible partition
    set and never carry beeps, which is equivalent to each amoebot
    parking them in private singleton sets.

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
    array, and pin mates resolve through its mirror-edge table, so
    nothing hashes coordinates; only the Node-keyed :meth:`assign`
    (re-wiring derived layouts) looks one node up.  The builders return
    slots, and :meth:`set_ids` resolves ``(node id, label)`` keys, so
    callers address sets without partition-set tuples.  The
    :class:`Pin`/:data:`PartitionSetId` object views remain available
    for tests and observability (:meth:`pin_assignments`,
    :meth:`partition_sets`).
    """

    def __init__(self, structure: AmoebotStructure, channels: int):
        if channels < 1:
            raise PinConfigurationError("pin budget c must be at least 1")
        self._structure = structure
        self._gi = structure.grid_index()
        self._channels = channels
        #: Partition sets are keyed by ints, ``label id << 32 | node
        #: id`` (see :meth:`_label_key`), so declaring one allocates no
        #: tuple; the ``(node, label)`` views are built on demand.
        self._labels: List[str] = []
        self._label_ids: Dict[str, int] = {}
        #: key -> slot.  Slots are stable for the lifetime of a layout
        #: (a released set keeps its slot, marked dead) and are
        #: compacted away only by a full relower.
        self._key_slot: Dict[int, int] = {}
        self._slot_keys: List[int] = []
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

        The Node-keyed form of :meth:`assign_sets`, kept for re-wiring
        *derived* layouts (:meth:`reassign`, the dynamics layer's
        patching); fresh layouts are built from grid-index integers.
        """
        nid = self._gi.id_of(node)
        if nid is None:
            raise PinConfigurationError(f"{node} is not part of the structure")
        base = nid * 6
        self.assign_sets(((nid, label, [(base + d, ch) for d, ch in pins]),))

    def assign_sets(
        self, sets: Iterable[Tuple[int, str, Iterable[Tuple[int, int]]]]
    ) -> List[int]:
        """Place ``(edge id, channel)`` pins into partition sets ``(nid, label)``.

        ``sets`` yields ``(nid, label, pins)`` triples.  Edge ids are the
        grid index's ``nid * 6 + direction``; every pin of a set must
        leave its amoebot ``nid``.  Pins accumulate over repeated
        entries for one set; an empty pin collection still declares the
        set (a partition set with no pins forms its own trivial
        circuit; an amoebot may use one as a local flag).  Returns each
        entry's slot, which is its compiled set-id once the layout is
        frozen.
        """
        if self._frozen:
            raise PinConfigurationError("layout is frozen")
        gi = self._gi
        nodes = gi.nodes
        n_slots = gi.n_slots
        nbr = gi.nbr
        declare = self._key_slot.setdefault
        label_ids = self._label_ids
        slot_keys = self._slot_keys
        alive = self._alive
        slot_pins = self._slot_pins
        owned = self._owned_pin_lists
        pin_slot = self._pin_slot
        get_owner = pin_slot.get
        channels = self._channels
        track = self._base_compiled is not None
        mate_edges = gi.mate_edges() if track else None
        dirty = self._dirty
        channel_mask = self._channel_mask
        slots: List[int] = []
        for nid, label, pins in sets:
            node = nodes[nid] if nid is not None and 0 <= nid < n_slots else None
            if node is None:
                raise PinConfigurationError(f"node id {nid} is not part of the structure")
            lid = label_ids.get(label)
            key = (self._label_key(label) if lid is None else lid << _KEY_SHIFT) | nid
            fresh = len(slot_keys)
            slot = declare(key, fresh)
            if slot == fresh:
                slot_keys.append(key)
                alive.append(1)
                pin_list: List[int] = []
                slot_pins.append(pin_list)
                owned.add(slot)
                self._n_alive += 1
            else:
                if not alive[slot]:
                    alive[slot] = 1
                    self._n_alive += 1
                pin_list = slot_pins[slot]
                if pin_list is None:
                    pin_list = slot_pins[slot] = []
                    owned.add(slot)
                elif slot not in owned:
                    # Clone before appending: the list is shared with
                    # the frozen base layout this one was derived from.
                    pin_list = slot_pins[slot] = list(pin_list)
                    owned.add(slot)
            slots.append(slot)
            if track:
                dirty.add(slot)
            base = nid * 6
            for edge, channel in pins:
                if not (0 <= channel < channels and 0 <= edge - base < 6 and nbr[edge] >= 0):
                    self._channel_mask = channel_mask
                    self._reject_pin(node, base, edge, channel)
                pin = edge * channels + channel
                existing = get_owner(pin)
                if existing is None:
                    pin_slot[pin] = slot
                    pin_list.append(pin)
                    channel_mask |= 1 << channel
                    if track:
                        mate_owner = get_owner(mate_edges[edge] * channels + channel)
                        if mate_owner is not None:
                            dirty.add(mate_owner)
                elif existing != slot:
                    self._channel_mask = channel_mask
                    self._reject_owned(pin)
                # Re-assigning a pin to its own set is an idempotent
                # no-op: a duplicate pin-list entry would leave a stale
                # record behind if the pin later moved to a sibling via
                # exchange_slots (which removes exactly one entry).
        self._channel_mask = channel_mask
        return slots

    def assign_chain(
        self,
        nids: Sequence[int],
        out_edges: Sequence[int],
        channels: Sequence[Tuple[int, int]],
        crossed: Sequence[int],
        labels: Sequence[Tuple[str, str]],
        occurrences: Sequence[int],
    ) -> Tuple[List[int], List[int]]:
        """Declare a PASC chain's primary and secondary sets in one pass.

        Unit ``i`` is operated by node id ``nids[i]`` and names its sets
        ``labels[occurrences[i]]`` (primary, secondary).  It joins its
        incoming link straight and its outgoing link ``out_edges[i]``
        (an edge id leaving ``nids[i]``) straight, or crossed where
        ``crossed[i]`` is set; a link of direction ``d`` carries its two
        wires on the channel pair ``channels[d]``.  Sets are declared in
        unit order, primary first, so the returned ``(primary slots,
        secondary slots)`` are the slots :meth:`assign_sets` would hand
        out for the same sets.  Makes the checks of :meth:`assign_sets`
        with the same messages, and refuses a set declared before; a
        call that raises leaves the layout unusable.  Fresh layouts only:
        derived layouts re-wire by :meth:`exchange_slots`.
        """
        if self._frozen:
            raise PinConfigurationError("layout is frozen")
        if self._base_compiled is not None:
            raise PinConfigurationError(
                "assign_chain builds fresh layouts; re-wire a derived one with exchange_slots"
            )
        gi = self._gi
        nodes = gi.nodes
        if min(nids) < 0 or max(nids) >= gi.n_slots or nodes[nids[-1]] is None:
            bad = next(n for n in nids if not 0 <= n < gi.n_slots or nodes[n] is None)
            raise PinConfigurationError(f"node id {bad} is not part of the structure")
        nbr = gi.nbr
        mate_edges = gi.mate_edges()
        c = self._channels
        label_key = self._label_key
        keys = [(label_key(p), label_key(s)) for p, s in labels]
        key_slot = self._key_slot
        slot_keys = self._slot_keys
        slot_pins = self._slot_pins
        claim = self._pin_slot.setdefault
        channel_mask = self._channel_mask
        first = len(slot_keys)
        last = len(out_edges)
        p_in = s_in = back = -1
        for i in range(len(nids)):
            nid = nids[i]
            base = nid * 6
            slot = first + 2 * i
            kp, ks = keys[occurrences[i]]
            kp |= nid
            ks |= nid
            if kp in key_slot or ks in key_slot:
                label = labels[occurrences[i]][0 if kp in key_slot else 1]
                raise PinConfigurationError(
                    f"partition set {(nodes[nid], label)} is already declared"
                )
            key_slot[kp] = slot
            key_slot[ks] = slot + 1
            slot_keys.append(kp)
            slot_keys.append(ks)
            if i and not 0 <= back - base < 6:
                self._reject_pin(nodes[nid], base, back, 0)
            if i < last:
                e = out_edges[i]
                pch, sch = channels[e % 6]
                if not (0 <= pch < c and 0 <= sch < c and 0 <= e - base < 6 and nbr[e] >= 0):
                    self._reject_pin(nodes[nid], base, e, sch if 0 <= pch < c else pch)
                channel_mask |= 1 << pch | 1 << sch
                if crossed[i]:
                    p_out, s_out = e * c + sch, e * c + pch
                else:
                    p_out, s_out = e * c + pch, e * c + sch
                p_pins = [p_in, p_out] if i else [p_out]
                s_pins = [s_in, s_out] if i else [s_out]
                back = mate_edges[e]
                p_in = back * c + pch
                s_in = back * c + sch
            else:
                p_pins = [p_in] if i else []
                s_pins = [s_in] if i else []
            for pin in p_pins:
                if claim(pin, slot) != slot:
                    self._reject_owned(pin)
            for pin in s_pins:
                if claim(pin, slot + 1) != slot + 1:
                    self._reject_owned(pin)
            slot_pins.append(p_pins)
            slot_pins.append(s_pins)
        self._channel_mask = channel_mask
        count = 2 * len(nids)
        self._alive.extend(b"\x01" * count)
        self._n_alive += count
        self._owned_pin_lists.update(range(first, first + count))
        return list(range(first, first + count, 2)), list(range(first + 1, first + count, 2))

    def _reject_owned(self, pin: int) -> None:
        """Raise the error for a pin that already belongs to another set."""
        raise PinConfigurationError(
            f"pin {self._pin_of(pin)} already assigned to "
            f"partition set {self._set_id(self._pin_slot[pin])}"
        )

    def _reject_pin(self, node: Node, base: int, edge: int, channel: int) -> None:
        """Raise the error for an invalid ``(edge id, channel)`` pin of ``node``."""
        if not 0 <= channel < self._channels:
            raise PinConfigurationError(
                f"channel {channel} out of range (c={self._channels})"
            )
        direction = edge - base
        if not 0 <= direction < 6:
            raise PinConfigurationError(
                f"edge {edge} does not leave {node}; pin does not exist"
            )
        raise PinConfigurationError(
            f"{node} has no neighbor toward {Direction(direction).name}; "
            "pin does not exist"
        )

    def assign_edges(
        self,
        label: str,
        channel: int,
        edges: Iterable[int],
        isolated_ok: bool = False,
    ) -> None:
        """Fuse each connected component of an edge subset into one circuit.

        ``edges`` are grid-index edge ids ``nid * 6 + direction``; both
        endpoints of every edge put their channel-``channel`` pin of it
        into their set ``label`` (mates come from
        :meth:`~repro.grid.compiled.GridIndex.mate_edges`), so the
        circuits of ``label`` are exactly the components of the edge
        subset.  With ``isolated_ok`` every amoebot the edges do not
        touch declares an empty set ``label`` too (so it can still
        listen, hearing nothing), in bulk over the index.  Makes the
        checks of :meth:`assign_sets`, with the same messages.
        """
        if self._frozen:
            raise PinConfigurationError("layout is frozen")
        if not 0 <= channel < self._channels:
            raise PinConfigurationError(
                f"channel {channel} out of range (c={self._channels})"
            )
        gi = self._gi
        mate_edges = gi.mate_edges()
        touched: Set[int] = set()

        def ends():
            for edge in edges:
                touched.add(edge // 6)
                yield edge // 6, label, ((edge, channel),)
                # Reached only once assign_sets accepted the edge.
                mate = mate_edges[edge]
                touched.add(mate // 6)
                yield mate // 6, label, ((mate, channel),)

        self.assign_sets(ends())
        if not isolated_ok:
            return
        key_slot = self._key_slot
        label_key = self._label_key(label)
        keys = [label_key | nid for nid in gi.live_ids() if nid not in touched]
        new = [key for key in keys if key not in key_slot]
        if len(new) != len(keys):
            # Sets declared earlier (maybe released since): the general
            # path revives them.
            self.assign_sets(
                (key & _NID_MASK, label, ()) for key in keys if key in key_slot
            )
        # Fresh sets change the set universe, so even a derived layout
        # relowers on freeze: no per-set dirty tracking is needed.
        first = len(self._slot_keys)
        key_slot.update(zip(new, range(first, first + len(new))))
        self._slot_keys.extend(new)
        self._alive.extend(b"\x01" * len(new))
        self._slot_pins.extend([None] * len(new))
        self._n_alive += len(new)

    def _pin_of(self, pin: int) -> Pin:
        """Decode an integer pin into its :class:`Pin` view (cold paths)."""
        edge, channel = divmod(pin, self._channels)
        nid, d = divmod(edge, 6)
        return Pin(self._gi.nodes[nid], Direction(d), channel)

    def _label_key(self, label: str) -> int:
        """``label``'s id shifted into key position, registering it."""
        lid = self._label_ids.get(label)
        if lid is None:
            lid = self._label_ids[label] = len(self._labels)
            self._labels.append(label)
        return lid << _KEY_SHIFT

    def _key_of(self, nid: Optional[int], label: str) -> Optional[int]:
        """The key of set ``(nid, label)``, or ``None`` if the label is new."""
        lid = self._label_ids.get(label)
        if lid is None or nid is None or not 0 <= nid <= _NID_MASK:
            return None
        return lid << _KEY_SHIFT | nid

    def _set_id(self, slot: int) -> PartitionSetId:
        """The ``(node, label)`` view of a slot (cold paths)."""
        key = self._slot_keys[slot]
        return (self._gi.nodes[key & _NID_MASK], self._labels[key >> _KEY_SHIFT])

    def set_ids(
        self, keys: Iterable[Tuple[int, str]], action: str = "address"
    ) -> List[int]:
        """Compiled set-ids of the partition sets ``(node id, label)``.

        Freezes the layout, whose slots then coincide with its compiled
        set-ids, so resolution is one int-keyed probe per set; the
        :class:`~repro.sim.compiled.PartitionSetIndex` tuple table is
        never built.  ``action`` names the operation in the error for
        an undeclared set (``beep on`` / ``listen on``).
        """
        self.freeze()
        key_slot = self._key_slot
        label_ids = self._label_ids
        n_slots = self._gi.n_slots
        result: List[int] = []
        for nid, label in keys:
            lid = label_ids.get(label)
            if lid is None or nid is None or not 0 <= nid < n_slots:
                slot = None
            else:
                slot = key_slot.get(lid << _KEY_SHIFT | nid)
            if slot is None:
                in_range = isinstance(nid, int) and 0 <= nid < self._gi.n_slots
                node = self._gi.nodes[nid] if in_range else nid
                raise PinConfigurationError(
                    f"cannot {action} undeclared partition set {(node, label)}"
                )
            result.append(slot)
        return result

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
        nbr = self._gi.nbr
        self.assign_sets(
            (nid, label, [(e, channel) for e in range(nid * 6, nid * 6 + 6) if nbr[e] >= 0])
            for nid in self._gi.live_ids()
        )

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
        clone._labels = list(self._labels)
        clone._label_ids = dict(self._label_ids)
        clone._key_slot = dict(self._key_slot)
        clone._slot_keys = list(self._slot_keys)
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
        key = self._key_of(self._gi.slot_of(node), label)
        slot = None if key is None else self._key_slot.get(key)
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

    def exchange_slots(
        self, slot_a: int, slot_b: int, pins: Iterable[Tuple[int, int]]
    ) -> None:
        """Swap ownership of ``pins`` between two sibling partition sets.

        ``slot_a`` and ``slot_b`` are the sets' slots: callers that built
        the sets keep them (:meth:`assign_sets` returns them; derivation
        keeps them), so a crossing flip probes no partition-set key.
        ``pins`` are ``(edge id, channel)`` pairs; every listed pin must
        currently belong to one of the two sets, and its ownership flips
        to the other.  This is PASC's crossing flip — un-/re-crossing a
        link exchanges the two channels of the same physical pins
        between a unit's primary and secondary sets — as one cheap
        operation: the pins already passed validation when first
        assigned, so no existence or budget checks are repeated and no
        release-both-then-reassign dance is needed.

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
        alive = self._alive
        set_id = self._set_id
        if not alive[slot_a] or not alive[slot_b]:
            raise PinConfigurationError(
                f"exchange_slots requires both {set_id(slot_a)} and "
                f"{set_id(slot_b)} to be declared"
            )
        pin_slot = self._pin_slot
        slot_pins = self._slot_pins
        owned = self._owned_pin_lists
        track = self._base_compiled is not None
        if track:
            self._dirty.add(slot_a)
            self._dirty.add(slot_b)
        channels = self._channels
        mate_edges = self._gi.mate_edges()
        for edge, channel in pins:
            pin = edge * channels + channel
            owner = pin_slot.get(pin)
            if owner == slot_a:
                new_owner = slot_b
            elif owner == slot_b:
                new_owner = slot_a
            else:
                owner_id = None if owner is None else set_id(owner)
                raise PinConfigurationError(
                    f"pin {self._pin_of(pin)} belongs to {owner_id}, not to "
                    f"{set_id(slot_a)} or {set_id(slot_b)}"
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
                mate = mate_edges[edge]
                if mate >= 0:
                    mate_owner = pin_slot.get(mate * channels + channel)
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
        # Copy-on-write bookkeeping is only read while the layout is
        # mutable; derived clones start their own.  Cached layouts drop
        # one set entry per partition set.
        self._owned_pin_lists = set()

    def _freeze_full(self) -> None:
        if self._n_alive != len(self._slot_keys):
            self._compact()
        self._compiled = compile_wiring_ids(
            self._new_index(),
            self._pin_slot,
            self._channels,
            self._gi.mate_edges(),
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
            or self._n_alive != len(self._slot_keys)
            or len(self._slot_keys) != len(base.index)
        ):
            # The partition-set universe changed (sets released for good
            # or newly declared): compact the slots and relower from
            # scratch with a fresh index.  Assignment validation is
            # still skipped — that is the derive() contract.
            self._compact()
            self._compiled = compile_wiring_ids(
                self._new_index(),
                self._pin_slot,
                self._channels,
                self._gi.mate_edges(),
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
        if self._n_alive == len(self._slot_keys):
            return
        remap = [-1] * len(self._slot_keys)
        fresh = 0
        for slot in range(len(self._slot_keys)):
            if alive[slot]:
                remap[slot] = fresh
                fresh += 1
        self._slot_keys = [key for key, a in zip(self._slot_keys, alive) if a]
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
        self._alive = bytearray(b"\x01") * len(self._slot_keys)
        self._dirty.clear()

    def _new_index(self) -> PartitionSetIndex:
        """A set-id index whose ``(node, label)`` tuples are built on demand.

        Called at freeze, after compaction: the frozen layout never
        changes its keys again, so the index may read them later.
        """
        keys = self._slot_keys
        nodes = self._gi.nodes
        labels = self._labels
        return PartitionSetIndex(
            size=len(keys),
            materialize=lambda: [
                (nodes[key & _NID_MASK], labels[key >> _KEY_SHIFT]) for key in keys
            ],
        )

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
        alive = self._alive
        return {self._set_id(slot) for slot in range(len(alive)) if alive[slot]}

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
        return {
            self._pin_of(pin): self._set_id(slot)
            for pin, slot in self._pin_slot.items()
        }

    def circuit_of(self, node: Node, label: str) -> int:
        """Index of the circuit containing partition set ``(node, label)``.

        Only meaningful to the simulator/tests — amoebots themselves never
        learn circuit identities, only beeps.
        """
        compiled = self.compiled()
        key = self._key_of(self._gi.id_of(node), label)
        slot = None if key is None else self._key_slot.get(key)
        if slot is None:
            raise PinConfigurationError(
                f"partition set ({node}, {label!r}) was never declared"
            )
        return compiled.comp[slot]

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
        via :meth:`exchange_slots`).

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
        labels = self._labels
        slot_keys: Dict[int, Tuple[int, str]] = {}
        for key, slot in self._key_slot.items():
            if alive[slot]:
                slot_keys[slot] = (key & _NID_MASK, labels[key >> _KEY_SHIFT])
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
