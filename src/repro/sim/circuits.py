"""Circuit layouts: system-wide pin configurations and their circuits.

A :class:`CircuitLayout` collects every amoebot's pin configuration for
one (or more) rounds.  Freezing a layout validates it against the model
and computes its *circuits* — the connected components of the graph whose
vertices are partition sets and whose edges are the external links between
them (Section 1.2).  Layouts are reusable: algorithms that keep the same
pin configuration over many rounds pay the component computation once.

A layout's integer pin table (encoded pin -> set slot) is the one record
of which set owns which pin.  Sets are declared only where pins are: a
partition set without pins is a circuit of its own, so a beep or listen
on an undeclared ``(node id, label)`` of a label an edge subset wired
(:meth:`CircuitLayout.assign_edges`) resolves to that key's singleton
circuit, which hears exactly its own beep (:meth:`CircuitLayout.set_ids`).

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
  re-wirable one.  :meth:`CircuitLayout.exchange_slots` swaps pins
  between sibling sets, :meth:`CircuitLayout.release_sets` and
  :meth:`CircuitLayout.assign_sets` drop and add sets (all keyed by
  grid-index ids), and the subsequent :meth:`freeze` relabels the
  circuits, skipping re-validation; while the set universe is
  unchanged the integer set-ids stay stable across the whole derive
  chain.  PASC uses this: each iteration flips the crossing of a few
  links.  A layout made of PASC runs (:meth:`CircuitLayout.assign_pasc`)
  is labelled by one parity pass over its links
  (:func:`~repro.sim.compiled.compile_pasc`) instead of the union-find,
  fresh or derived.  (The clone shallow-copies the key and pin tables —
  hash-free C-level copies.)
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
from operator import itemgetter
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.grid.coords import Node
from repro.grid.directions import Direction
from repro.grid.structure import AmoebotStructure
from repro.sim.compiled import (
    KEY_SHIFT as _KEY_SHIFT,
    NID_MASK as _NID_MASK,
    CompiledLayout,
    PartitionSetIndex,
    PascRecord,
    compile_pasc,
    compile_wiring_ids,
)
from repro.obs.trace import trace_span
from repro.sim.errors import PinConfigurationError
from repro.sim.pins import PartitionSetId, Pin


class LayoutBuildStats:
    """Counters for layout component computations (probe for tests/CI).

    ``full_builds`` counts freezes of from-scratch layouts (assignment
    validation plus circuit labelling); ``incremental_builds`` counts
    freezes of re-wired derived layouts, which skip re-validation;
    ``noop_freezes`` counts derived freezes with no re-wiring at all
    (the base layout's compiled arrays are adopted verbatim).

    The compile/execute counters probe the flat-array lowering:
    ``compiles`` counts :class:`~repro.sim.compiled.CompiledLayout`
    constructions (every full or incremental freeze lowers to arrays;
    noop freezes reuse the base arrays and do not compile), of which
    ``parity_compiles`` were labelled by the PASC parity pass rather
    than the union-find, and ``indexed_rounds`` counts every beep round
    the round kernel executes.

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
        self.parity_compiles = 0
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
            f"parity={self.parity_compiles}, "
            f"indexed_rounds={self.indexed_rounds}, "
            f"cache=h{self.cache_hits}/m{self.cache_misses}"
            f"/e{self.cache_evictions})"
        )


#: Process-wide component-computation counters.  Reset in tests via
#: ``LAYOUT_STATS.reset()``; purely observational, never read by the
#: algorithms themselves.
LAYOUT_STATS = LayoutBuildStats()


class CircuitLayout:
    """A system-wide pin configuration.

    Build one from grid-index integers — :meth:`assign_sets` places
    ``(edge id, channel)`` pins into named partition sets ``(node id,
    label)``, :meth:`assign_edges` fuses an edge subset (the global
    circuit is the subset of all edges) — then :meth:`freeze` (done
    implicitly by the engine).  Unassigned pins are inert singletons:
    they belong to no algorithm-visible partition set and never carry
    beeps, which is equivalent to each amoebot parking them in private
    singleton sets.  Likewise an edge subset declares no set without
    pins: :meth:`set_ids` resolves an undeclared key of a label
    :meth:`assign_edges` wired to its singleton circuit.

    A frozen layout is immutable; to change the wiring, :meth:`derive` a
    new layout, then :meth:`exchange_slots` the pins that moved between
    sibling sets, or :meth:`release_sets` and :meth:`assign_sets` the
    sets that changed.
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
    nothing hashes coordinates.  The pin table is the only record of
    which set owns which pin: no set keeps a pin list.  Every mutator
    takes grid-index ids; the builders return slots, and
    :meth:`set_ids` resolves ``(node id, label)`` keys, so callers
    address sets without partition-set tuples.  The
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
        #: encoded pin -> slot: the one record of pin ownership.
        self._pin_slot: Dict[int, int] = {}
        # Bitmask of channels that ever carried a pin (conservative: a
        # released channel stays flagged).  O(1) probe for callers that
        # reserve a channel, e.g. the PASC termination circuit.
        self._channel_mask = 0
        #: Ids of the labels assign_edges wired: only their undeclared
        #: keys resolve to singleton circuits (see set_ids).
        self._edge_lids: Set[int] = set()
        self._frozen = False
        self._compiled: Optional[CompiledLayout] = None
        # Lazy dict views over the compiled arrays (tests and tracing).
        self._components: Optional[Dict[PartitionSetId, int]] = None
        # Derivation bookkeeping: when non-None, this layout was derived
        # from one compiled to these arrays; freeze() adopts them while
        # nothing was re-wired.
        self._base_compiled: Optional[CompiledLayout] = None
        self._rewired = False
        #: The PASC runs assign_pasc wrote (see compile_pasc); shared
        #: with derived layouts.
        self._pasc_runs: List[PascRecord] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
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
        claim = self._pin_slot.setdefault
        channels = self._channels
        channel_mask = self._channel_mask
        self._rewired = True
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
                self._n_alive += 1
            elif not alive[slot]:
                alive[slot] = 1
                self._n_alive += 1
            slots.append(slot)
            base = nid * 6
            for edge, channel in pins:
                if not (0 <= channel < channels and 0 <= edge - base < 6 and nbr[edge] >= 0):
                    self._channel_mask = channel_mask
                    self._reject_pin(node, base, edge, channel)
                pin = edge * channels + channel
                # Re-assigning a pin to its own set is an idempotent no-op.
                if claim(pin, slot) != slot:
                    self._channel_mask = channel_mask
                    self._reject_owned(pin)
                channel_mask |= 1 << channel
        self._channel_mask = channel_mask
        return slots

    def assign_pasc(
        self,
        nids: Sequence[int],
        links: Sequence[int],
        parents: Sequence[int],
        channels: Sequence[Tuple[int, int]],
        crossed: Sequence[int],
        labels: Sequence[Tuple[str, str]],
        occurrences: Sequence[int],
    ) -> Tuple[List[int], List[int]]:
        """Declare a PASC run's primary and secondary sets in one pass.

        Unit ``i`` is operated by node id ``nids[i]`` and names its sets
        ``labels[occurrences[i]]`` (primary, secondary).  Unit ``0`` is
        the root; unit ``j > 0`` hangs from the earlier unit
        ``parents[j - 1]`` by the link ``links[j - 1]``, an edge id
        leaving the parent's amoebot toward ``nids[j]``.  Every unit
        joins its parent link straight and each of its child links
        straight, or crossed where ``crossed[i]`` is set; a link of
        direction ``d`` carries its two wires on the channel pair
        ``channels[d]``.  Sets are declared in unit order, primary
        first, so the returned ``(primary slots, secondary slots)`` are
        the slots :meth:`assign_sets` would hand out for the same sets.
        The run is recorded on the layout, and shared with its derived
        layouts, so :meth:`freeze` labels its two rails by one pass over
        its links (:func:`~repro.sim.compiled.compile_pasc`).  Makes the
        checks of :meth:`assign_sets` with the same messages, and
        refuses a set declared before, before it declares any; a call
        that raises a pin error leaves the layout unusable.  Fresh
        layouts only: derived layouts re-wire by :meth:`exchange_slots`.
        """
        if self._frozen:
            raise PinConfigurationError("layout is frozen")
        if self._base_compiled is not None:
            raise PinConfigurationError(
                "assign_pasc builds fresh layouts; re-wire a derived one with exchange_slots"
            )
        gi = self._gi
        nodes = gi.nodes
        # A unit's parent link proves it live; the root has none.
        if min(nids) < 0 or max(nids) >= gi.n_slots or nodes[nids[0]] is None:
            bad = next(n for n in nids if not 0 <= n < gi.n_slots or nodes[n] is None)
            raise PinConfigurationError(f"node id {bad} is not part of the structure")
        nbr = gi.nbr
        mate_edges = gi.mate_edges()
        c = self._channels
        label_key = self._label_key
        keys = [(label_key(p), label_key(s)) for p, s in labels]
        key_slot = self._key_slot
        slot_keys = self._slot_keys
        claim = self._pin_slot.setdefault
        channel_mask = self._channel_mask
        count = len(nids)
        first = len(slot_keys)
        end = first + 2 * count
        # One int object per slot, shared by every pin the set claims.
        p_slots = list(range(first, end, 2))
        s_slots = list(range(first + 1, end, 2))
        # Declare the sets in unit order, primary first.
        new_keys = [0] * (2 * count)
        new_keys[::2] = [keys[o][0] | nid for nid, o in zip(nids, occurrences)]
        new_keys[1::2] = [keys[o][1] | nid for nid, o in zip(nids, occurrences)]
        if not key_slot.keys().isdisjoint(new_keys) or len(set(new_keys)) != len(new_keys):
            self._reject_declared(new_keys)
        key_slot.update(zip(new_keys, range(first, end)))
        slot_keys.extend(new_keys)
        # Per direction, its channel pair if both channels are in budget.
        pairs = [
            (pch, sch) if 0 <= pch < c and 0 <= sch < c else None
            for pch, sch in channels
        ]
        # Each link's parent-side and child-side pins, two channels per
        # link in unit order: the record freeze() labels the rails from.
        ups = [0] * (2 * count - 2)
        downs = [0] * (2 * count - 2)
        w = 0
        for e, p, nid, slot, s_slot in zip(links, parents, nids[1:], p_slots[1:], s_slots[1:]):
            # The parent's side of the link: straight, or crossed while
            # the parent is active.
            pair = pairs[e % 6]
            if pair is None or e // 6 != nids[p] or nbr[e] < 0:
                pch, sch = channels[e % 6]
                self._reject_pin(nodes[nids[p]], nids[p] * 6, e, sch if 0 <= pch < c else pch)
            pch, sch = pair
            ups[w] = p_up = e * c + pch
            ups[w + 1] = s_up = e * c + sch
            p_out, s_out = (s_up, p_up) if crossed[p] else (p_up, s_up)
            p_slot = p_slots[p]
            ps_slot = s_slots[p]
            if claim(p_out, p_slot) != p_slot:
                self._reject_owned(p_out)
            if claim(s_out, ps_slot) != ps_slot:
                self._reject_owned(s_out)
            # The unit's side: always straight.
            back = mate_edges[e]
            if back // 6 != nid:
                self._reject_pin(nodes[nid], nid * 6, back, 0)
            downs[w] = p_in = back * c + pch
            downs[w + 1] = s_in = back * c + sch
            w += 2
            if claim(p_in, slot) != slot:
                self._reject_owned(p_in)
            if claim(s_in, s_slot) != s_slot:
                self._reject_owned(s_in)
        for d in {e % 6 for e in links}:
            pch, sch = pairs[d]
            channel_mask |= 1 << pch | 1 << sch
        self._channel_mask = channel_mask
        self._alive.extend(b"\x01" * (2 * count))
        self._n_alive += 2 * count
        self._pasc_runs.append(
            (first, count, itemgetter(*ups), itemgetter(*downs))
            if ups
            else (first, count, None, None)
        )
        return p_slots, s_slots

    def _reject_declared(self, keys: Sequence[int]) -> None:
        """Raise the error for the first of ``keys`` that is declared
        already, on the layout or earlier in ``keys``."""
        seen = set(self._key_slot)
        for key in keys:
            if key in seen:
                raise PinConfigurationError(
                    f"partition set {self._key_view(key)} is already declared"
                )
            seen.add(key)

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

    def assign_edges(self, label: str, channel: int, edges: Iterable[int]) -> None:
        """Fuse each connected component of an edge subset into one circuit.

        ``edges`` are grid-index edge ids ``nid * 6 + direction``; both
        endpoints of every edge put their channel-``channel`` pin of it
        into their set ``label`` (mates come from
        :meth:`~repro.grid.compiled.GridIndex.mate_edges`), so the
        circuits of ``label`` are exactly the components of the edge
        subset.  A set is declared only for an amoebot some edge
        touches; every other live amoebot's key of ``label`` resolves to
        its singleton circuit (:meth:`set_ids`), which hears nothing but
        its own beep, even when ``edges`` is empty.  Makes the checks
        of :meth:`assign_sets`, with the same messages.
        """
        if self._frozen:
            raise PinConfigurationError("layout is frozen")
        c = self._channels
        if not 0 <= channel < c:
            raise PinConfigurationError(f"channel {channel} out of range (c={c})")
        label_key = self._label_key(label)
        self._edge_lids.add(label_key >> _KEY_SHIFT)
        edges = list(edges)
        if not edges:
            return
        mate_edges = self._gi.mate_edges()
        n_edges = len(mate_edges)
        if min(edges) < 0 or max(edges) >= n_edges:
            self._reject_edge(next(e for e in edges if not 0 <= e < n_edges), channel)
        mates = [mate_edges[e] for e in edges]
        if min(mates) < 0:
            self._reject_edge(next(e for e, m in zip(edges, mates) if m < 0), channel)
        # Both ends of every edge, in edge order: each end's amoebot
        # joins the end's pin into its set ``label``.
        ends = [0] * (2 * len(edges))
        ends[::2] = edges
        ends[1::2] = mates
        keys = [label_key | end // 6 for end in ends]
        pins = [end * c + channel for end in ends]
        key_slot = self._key_slot
        pin_slot = self._pin_slot
        if pin_slot and not pin_slot.keys().isdisjoint(pins):
            for pin, key in zip(pins, keys):
                owner = pin_slot.get(pin)
                if owner is not None and owner != key_slot.get(key):
                    self._reject_owned(pin)
        # Declare the touched amoebots' sets in first-touch order.
        touched = dict.fromkeys(keys)
        new = [key for key in touched if key not in key_slot] if key_slot else list(touched)
        if len(new) != len(touched):
            alive = self._alive
            for key in touched:
                slot = key_slot.get(key)
                if slot is not None and not alive[slot]:
                    alive[slot] = 1
                    self._n_alive += 1
        fresh = len(self._slot_keys)
        key_slot.update(zip(new, range(fresh, fresh + len(new))))
        self._slot_keys.extend(new)
        self._alive.extend(b"\x01" * len(new))
        self._n_alive += len(new)
        slots = list(map(key_slot.__getitem__, keys))
        pin_slot.update(zip(pins, slots))
        self._channel_mask |= 1 << channel
        self._rewired = True

    def _reject_edge(self, edge: int, channel: int) -> None:
        """Raise the error for an edge id that names no edge of the structure."""
        gi = self._gi
        nid = edge // 6
        if not 0 <= nid < gi.n_slots or gi.nodes[nid] is None:
            raise PinConfigurationError(f"node id {nid} is not part of the structure")
        self._reject_pin(gi.nodes[nid], nid * 6, edge, channel)

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
        return self._key_view(self._slot_keys[slot])

    def _key_view(self, key: int) -> PartitionSetId:
        """The ``(node, label)`` view of a key (cold paths)."""
        return (self._gi.nodes[key & _NID_MASK], self._labels[key >> _KEY_SHIFT])

    def set_ids(
        self, keys: Iterable[Tuple[int, str]], action: str = "address"
    ) -> List[int]:
        """Compiled set-ids of the partition sets ``(node id, label)``.

        Freezes the layout, whose slots then coincide with its compiled
        set-ids, so resolution is one int-keyed probe per set; the
        :class:`~repro.sim.compiled.PartitionSetIndex` tuple table is
        never built.

        An undeclared key of a label :meth:`assign_edges` wired, on a
        live amoebot, is a set without pins: it resolves to its
        *singleton id* ``len(index) + key``, a circuit of its own that
        hears only its own beep (see :mod:`repro.sim.compiled`).  The
        id is computed, so the frozen layout is not changed; it is
        valid for this layout only (a derived layout that declares
        more sets moves it).  Any other undeclared key raises:
        ``action`` names the operation in the error (``beep on`` /
        ``listen on``).
        """
        self.freeze()
        key_slot = self._key_slot
        label_ids = self._label_ids
        edge_lids = self._edge_lids
        nodes = self._gi.nodes
        n_slots = self._gi.n_slots
        size = len(self._slot_keys)
        result: List[int] = []
        for nid, label in keys:
            lid = label_ids.get(label)
            if lid is None or nid is None or not 0 <= nid < n_slots:
                slot = None
            else:
                key = lid << _KEY_SHIFT | nid
                slot = key_slot.get(key)
                if slot is None and lid in edge_lids and nodes[nid] is not None:
                    slot = size + key
            if slot is None:
                in_range = isinstance(nid, int) and 0 <= nid < self._gi.n_slots
                node = self._gi.nodes[nid] if in_range else nid
                raise PinConfigurationError(
                    f"cannot {action} undeclared partition set {(node, label)}"
                )
            result.append(slot)
        return result

    # ------------------------------------------------------------------
    # derivation: cheap re-wiring of an already-computed layout
    # ------------------------------------------------------------------
    def derive(self) -> "CircuitLayout":
        """Clone this (frozen) layout into a new, re-wirable layout.

        The clone starts with identical wiring, this layout's PASC run
        record, and remembers this layout's compiled arrays.  Freezing
        the clone without re-wiring adopts those arrays.  After
        re-wiring (:meth:`exchange_slots`, :meth:`release_sets`,
        :meth:`assign_sets`), freezing relabels the circuits without
        re-validating: by the parity pass while the layout is still
        made of its PASC runs, else by the union-find.  While the set
        universe is unchanged the partition-set index itself is adopted,
        so integer set-ids stay stable across the derive chain.  The
        clone shallow-copies the key and pin tables (hash-free C-level
        copies); the pin table is the only ownership record, so nothing
        the frozen original holds is shared mutably.  The original
        layout stays frozen and valid.
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
        clone._edge_lids = set(self._edge_lids)
        clone._frozen = False
        clone._compiled = None
        clone._components = None
        clone._base_compiled = self._compiled
        clone._rewired = False
        clone._pasc_runs = self._pasc_runs
        return clone

    def derive_for(self, structure: AmoebotStructure) -> "CircuitLayout":
        """:meth:`derive`, re-bound to an *edited* structure.

        The dynamics layer patches wave/coordination layouts across
        structure edits instead of rebuilding them: the clone starts
        with the old wiring but validates subsequent
        :meth:`assign_sets`/:meth:`release_sets` calls against the
        **new** structure.  The caller must release every partition set
        owned by a departed amoebot (and every surviving set's pin
        toward a departed cell) before freezing — pins into vacated
        cells would otherwise dangle.  Freezing then relowers under the
        derive contract (validation of untouched sets is skipped).

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

    def release_sets(self, keys: Iterable[Tuple[int, str]]) -> None:
        """Un-declare the partition sets ``(node id, label)``; free their pins.

        A released set that is never re-assigned disappears from the
        layout at the next freeze; one re-declared through
        :meth:`assign_sets` keeps its slot.  To re-wire a set, release
        it, then assign its new pins.  Releasing a set that is not
        declared does nothing.  After :meth:`derive_for`, ids of
        departed amoebots are valid keys.  A set's pins are found by
        probing its amoebot's ``6 * c`` pin ids in the pin table.
        """
        if self._frozen:
            raise PinConfigurationError("layout is frozen; derive() a new one first")
        key_slot = self._key_slot
        alive = self._alive
        pin_slot = self._pin_slot
        owner = pin_slot.get
        span = 6 * self._channels
        self._rewired = True
        for nid, label in keys:
            key = self._key_of(nid, label)
            slot = None if key is None else key_slot.get(key)
            if slot is None or not alive[slot]:
                continue
            alive[slot] = 0
            self._n_alive -= 1
            for pin in range(nid * span, nid * span + span):
                if owner(pin) == slot:
                    del pin_slot[pin]

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
          and the partition-set universe are unchanged, so a following
          :meth:`freeze` keeps the base layout's partition-set index,
          and a PASC layout stays labelled by the parity pass.
        * *The base layout is untouched*: the swap rewrites this
          layout's own copy of the pin table, so the frozen layout the
          clone was :meth:`derive`-d from keeps its wiring.
        * *An empty swap list* changes no pin but still counts as a
          re-wiring: the next freeze relabels instead of adopting the
          base arrays.
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
        self._rewired = True
        channels = self._channels
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

    # ------------------------------------------------------------------
    # freezing, compilation, and component computation
    # ------------------------------------------------------------------
    def freeze(self) -> None:
        """Validate the layout and compile its circuits to flat arrays.

        Idempotent: freezing a frozen layout is a no-op — reusing a
        layout over many rounds pays the component computation once.
        A derived layout that was not re-wired adopts its base's
        arrays.
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
        self._compact()
        self._lower(self._new_index())
        LAYOUT_STATS.full_builds += 1

    def _freeze_incremental(self) -> None:
        base = self._base_compiled
        assert base is not None
        self._base_compiled = None
        if not self._rewired:
            # Wiring unchanged: adopt the base compilation wholesale.
            self._compiled = base
            LAYOUT_STATS.noop_freezes += 1
            return
        if self._n_alive != len(self._slot_keys) or len(self._slot_keys) != len(base.index):
            # The partition-set universe changed (sets released for good
            # or newly declared): compact the slots and relower with a
            # fresh index.
            self._compact()
            index = self._new_index()
        else:
            # Universe intact: slots coincide with the base index's
            # integer ids, so the index object is reused and integer
            # set-ids held by callers stay valid.
            index = base.index
        # Assignment validation is skipped: that is the derive() contract.
        self._lower(index)
        LAYOUT_STATS.incremental_builds += 1

    def _lower(self, index: PartitionSetIndex) -> None:
        """Compile the circuits over ``index``: one parity pass when the
        layout is made of its recorded PASC runs, the union-find
        otherwise (or when the pins do not form the runs' two rails)."""
        wiring = (index, self._pin_slot, self._channels, self._gi.mate_edges())
        compiled = compile_pasc(*wiring, self._pasc_runs) if self._pasc_runs else None
        if compiled is None:
            compiled = compile_wiring_ids(*wiring)
        else:
            LAYOUT_STATS.parity_compiles += 1
        edge_lids = self._edge_lids
        if edge_lids:
            # The undeclared keys of the edge labels on live amoebots.
            keys = self._slot_keys
            if len(edge_lids) == len(self._labels):
                declared = len(keys)
            else:
                declared = sum(1 for key in keys if key >> _KEY_SHIFT in edge_lids)
            compiled.n_singletons = len(self._gi) * len(edge_lids) - declared
        self._compiled = compiled
        LAYOUT_STATS.compiles += 1

    def _compact(self) -> None:
        """Renumber slots densely, dropping released (dead) ones.

        Only runs on the relower paths: a frozen layout therefore always
        has its slots coincide with its compiled integer ids.
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
        self._key_slot = {
            key: remap[slot]
            for key, slot in self._key_slot.items()
            if alive[slot]
        }
        self._pin_slot = {pin: remap[slot] for pin, slot in self._pin_slot.items()}
        self._alive = bytearray(b"\x01") * len(self._slot_keys)

    def _new_index(self) -> PartitionSetIndex:
        """A set-id index whose ``(node, label)`` tuples are built on demand.

        Called at freeze, after compaction: the frozen layout never
        changes its keys or labels again, so the index may read them
        later.
        """
        return PartitionSetIndex(self._slot_keys, self._gi, self._labels)

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

        Conservative O(1) probe (releasing a set does not clear the flag).
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
        learn circuit identities, only beeps.  A key that :meth:`set_ids`
        resolves to a singleton id gets an index of its own past the
        declared circuits; any other undeclared key raises.
        """
        compiled = self.compiled()
        (slot,) = self.set_ids([(self._gi.id_of(node), label)])
        size = len(compiled.comp)
        return compiled.comp[slot] if slot < size else compiled.n_components + slot - size

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
        read-only; mutate the wiring on a :meth:`derive`-d layout
        instead.  The engine itself no longer reads
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
