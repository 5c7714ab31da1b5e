"""Synchronous beep-round execution over compiled layouts.

The :class:`CircuitEngine` executes the model's round structure: on each
round every amoebot may (have) reconfigure(d) its pin configuration —
captured by the :class:`~repro.sim.circuits.CircuitLayout` passed in —
and activate any of its partition sets; beeps propagate on the (updated)
configuration and are received at the beginning of the next round
(Section 1.2).  One :meth:`run_round_indexed` call is one synchronous
round.

Execution pipeline: **build -> freeze -> compile -> run**.  Layouts are
built *outside* round loops, in the integer space of the structure's
:class:`~repro.grid.compiled.GridIndex`: edge subsets from edge ids
``nid * 6 + direction`` in one pass
(:meth:`CircuitLayout.assign_edges
<repro.sim.circuits.CircuitLayout.assign_edges>`), per-set wirings
(PASC units, election subpaths) from ``(edge id, channel)`` pins
(:meth:`CircuitLayout.assign_sets
<repro.sim.circuits.CircuitLayout.assign_sets>`).  Freezing compiles a
layout into flat integer arrays
(:class:`~repro.sim.compiled.CompiledLayout`), whose set-ids are the
slots the builder handed out, and a round is then a couple of array
passes.  Node-keyed :meth:`~repro.sim.circuits.CircuitLayout.assign`
remains for re-wiring derived layouts.

One kernel executes every beep round: :meth:`run_round_indexed`.
Beeps and listens are stable integer set-ids, resolved once per wiring
(the builder's slots, :meth:`CircuitLayout.set_ids
<repro.sim.circuits.CircuitLayout.set_ids>`, or the compiled
:class:`~repro.sim.compiled.PartitionSetIndex`), and the result is a
flat list of bits with zero per-round dict construction.  Its optional
stages run in a fixed order — scheduler epoch, fault filter with
detection, propagate, tick, round trace — each skipped while its field
is unset, so the plain synchronous round pays for none of them.
:meth:`charge_local_round` is the one path for local (beep-free)
rounds.

The engine's :attr:`layouts` cache memoizes standard layouts
(:meth:`global_layout`, :meth:`edge_subset_layout`,
:meth:`edge_subsets_layout`) by wiring fingerprint so repeated
constructions are free; campaign workers may inject a shared,
structure-scoped cache so identical wirings are compiled once per
worker process rather than once per trial.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from repro.backend import resolve_backend
from repro.grid.structure import AmoebotStructure
from repro.metrics.rounds import RoundCounter
from repro.obs.trace import NOOP_SPAN, trace_span
from repro.sim.circuits import (
    LAYOUT_STATS,
    CircuitLayout,
    LayoutCache,
    ScopedLayoutCache,
)
from repro.sim.compiled import CompiledLayout

if TYPE_CHECKING:
    from repro.dynamics.faults import FaultInjector
    from repro.sim.trace import RoundTrace

#: Either layout cache flavor the engine can own.
AnyLayoutCache = Union[LayoutCache, ScopedLayoutCache]


class CircuitEngine:
    """Executes synchronous beep rounds over an amoebot structure.

    Parameters
    ----------
    structure:
        The amoebot structure.
    channels:
        Pin budget ``c`` per incident edge.  The paper's constructions use
        a small constant; every primitive in this repository documents its
        channel usage and the default of 8 accommodates the most
        demanding one (the Euler tour technique, which runs one PASC
        channel pair per directed tree edge: up to 4 links per edge).
    counter:
        Round counter to tick; a fresh one is created if omitted.
    layout_cache_size:
        Capacity of the engine's :class:`~repro.sim.circuits.LayoutCache`.
    layouts:
        Optional externally owned layout cache (plain or scoped).  When
        provided, ``layout_cache_size`` is ignored and the engine shares
        the given cache — a :class:`~repro.api.Session` uses this to
        reuse one compiled layout per wiring fingerprint across every
        request it executes.
    backend:
        A name from :data:`repro.backend.BACKEND_NAMES`, validated and
        kept for compatibility; every name runs the same kernels.
    """

    def __init__(
        self,
        structure: AmoebotStructure,
        channels: int = 8,
        counter: Optional[RoundCounter] = None,
        layout_cache_size: int = 256,
        layouts: Optional[AnyLayoutCache] = None,
        backend: Optional[str] = None,
    ):
        self.structure = structure
        self.channels = channels
        #: What ``backend`` resolves to (always ``"python"``).
        self.backend = resolve_backend(backend)
        self.rounds = counter if counter is not None else RoundCounter()
        # Synchronous semantics: every amoebot activates once per round,
        # so the counter auto-charges n activations per tick (the
        # invariant ``activations == n_active * rounds``).  Event-driven
        # subclasses (repro.sched) zero this and charge real counts.
        self.rounds.activations_per_round = len(structure)
        #: Frozen-layout cache, keyed by wiring fingerprints.  Bound to
        #: this engine's structure (directly, or via a structure-scoped
        #: view of a shared cache), so keys never include the structure.
        self.layouts: AnyLayoutCache = (
            layouts if layouts is not None else LayoutCache(maxsize=layout_cache_size)
        )
        # The round kernel's optional stages (see run_round_indexed).
        # ``None`` / ``False`` skips a stage at no cost.
        #: Activation scheduler; set only by
        #: :class:`~repro.sched.ActivationEngine`, which also supplies
        #: the epoch step, ``stats`` and ``max_retransmissions``.
        self.scheduler = None
        #: Optional fault model (see :mod:`repro.dynamics.faults`).  When
        #: set, every round's beep list passes through the injector
        #: before propagation: crashed amoebots go silent and individual
        #: beeps may be dropped.
        self.fault_injector: Optional[FaultInjector] = None
        #: Round-by-round log (set by :func:`repro.sim.trace.attach_trace`).
        self.round_trace: Optional[RoundTrace] = None
        #: Per-round telemetry spans (:meth:`enable_round_tracing`).
        self.trace_rounds = False

    def rebind(
        self,
        structure: AmoebotStructure,
        layouts: Optional[AnyLayoutCache] = None,
    ) -> None:
        """Re-point this engine at an edited structure.

        The round counter keeps running — dynamics charge repairs to the
        same clock as the initial solve.  The layout cache **must** be
        replaced (or scoped per structure version) alongside, because
        cached wiring keys assume a fixed structure; passing ``layouts``
        is therefore mandatory unless the caller cleared the old cache.
        """
        self.structure = structure
        self.rounds.activations_per_round = len(structure)
        if layouts is not None:
            self.layouts = layouts
        else:
            self.layouts.clear()

    # ------------------------------------------------------------------
    # layout construction helpers
    # ------------------------------------------------------------------
    def new_layout(self) -> CircuitLayout:
        """A fresh, empty layout bound to this engine's structure."""
        return CircuitLayout(self.structure, self.channels)

    def global_layout(self, label: str = "global", channel: int = 0) -> CircuitLayout:
        """A layout wiring the whole structure into one global circuit.

        Every amoebot puts all channel-``channel`` pins into one partition
        set.  Because :math:`G_X` is connected this yields a single
        circuit — the standard global coordination circuit.  Cached: the
        wiring is fully determined by ``(label, channel)``, so repeated
        calls (e.g. one termination check per loop iteration) return the
        same frozen layout.
        """
        return self.layouts.get_or_build(
            ("global", label, channel),
            lambda: self._build_global_layout(label, channel),
        )

    def _build_global_layout(self, label: str, channel: int) -> CircuitLayout:
        layout = self.new_layout()
        layout.assign_global(label, channel)
        layout.freeze()
        return layout

    def edge_subset_layout(
        self,
        edges: Iterable[int],
        label: str = "net",
        channel: int = 0,
        isolated_ok: bool = True,
        key: Optional[Hashable] = None,
    ) -> CircuitLayout:
        """A layout that fuses each connected component of ``edges``.

        ``edges`` are grid-index edge ids ``nid * 6 + direction`` of
        this engine's structure.  Every endpoint of a listed edge joins
        its channel-``channel`` pin for that edge into a single
        partition set per amoebot, so the circuits are exactly the
        connected components of the edge subset.  Amoebots not incident
        to any listed edge declare an empty partition set (so they can
        still listen, hearing nothing) when ``isolated_ok`` is set.
        Cached by the edge set: deterministic algorithms that rebuild
        identical sub-circuits (the recomputed decomposition tree,
        repeated portal broadcasts) hit the cache.

        ``key``, when given, replaces the default ``frozenset(edges)``
        cache key.  Callers that can *name* their edge set cheaply (the
        portal machinery keys its circuits by ``(axis, representative
        id, run length)`` triples) skip building the edge list on a
        hit; the caller guarantees the key uniquely determines the
        edge set on this engine's structure.
        """
        return self.edge_subsets_layout({label: edges}, channel, isolated_ok, key)

    def edge_subsets_layout(
        self,
        subsets: Mapping[str, Iterable[int]],
        channel: int = 0,
        isolated_ok: bool = True,
        key: Optional[Hashable] = None,
    ) -> CircuitLayout:
        """:meth:`edge_subset_layout` for several labelled edge subsets.

        Each label gets its own partition set per amoebot, so the
        subsets' circuits stay apart even where they share amoebots;
        one layout carries them all, so one round serves every label.
        ``subsets`` may be lazy (e.g. generators) when ``key`` is
        given: they are consumed only on a cache miss.
        """
        if key is None:
            subsets = {label: list(edges) for label, edges in subsets.items()}
            key = tuple(
                (label, frozenset(edges)) for label, edges in subsets.items()
            )
        else:
            key = (tuple(subsets), key)
        return self.layouts.get_or_build(
            ("edges", channel, isolated_ok, key),
            lambda: self._build_edge_subset_layout(subsets, channel, isolated_ok),
        )

    def _build_edge_subset_layout(
        self,
        subsets: Mapping[str, Iterable[int]],
        channel: int,
        isolated_ok: bool,
    ) -> CircuitLayout:
        layout = self.new_layout()
        for label, edges in subsets.items():
            layout.assign_edges(label, channel, edges, isolated_ok=isolated_ok)
        layout.freeze()
        return layout

    # ------------------------------------------------------------------
    # round execution
    # ------------------------------------------------------------------
    def run_round_indexed(
        self,
        layout: CircuitLayout,
        beeps: Iterable[int],
        listen: Optional[Sequence[int]] = None,
    ) -> List[bool]:
        """Execute one synchronous round entirely in integer space.

        ``beeps`` and ``listen`` are integer set-ids from the layout's
        :class:`~repro.sim.compiled.PartitionSetIndex` (resolve them once
        per wiring, outside the round loop).  Returns one bit per
        ``listen`` entry, in order — or one bit per declared set (index
        order) when ``listen`` is ``None``.  No dicts are built and no
        tuples are hashed.

        This is the only code that executes a beep round.  Its stages
        run in a fixed order, each skipped while its field is unset:

        1. scheduler epoch (:attr:`scheduler`, set by
           :class:`~repro.sched.ActivationEngine`);
        2. fault filter with ``missed_hears`` detection
           (:attr:`fault_injector`);
        3. propagate over the compiled arrays;
        4. tick the round counter;
        5. record into :attr:`round_trace`; the per-round span
           (:attr:`trace_rounds`) encloses the stages and closes last.

        Under a scheduler with beep drops armed, stages 1–5 repeat
        (detect-and-retransmit) until no drop changed a listened
        outcome; each repetition is a real round and a real epoch.  The
        plain synchronous engine never retransmits.
        """
        compiled = layout.compiled()
        if (
            self.scheduler is None
            and self.fault_injector is None
            and self.round_trace is None
            and not self.trace_rounds
        ):
            # No stage armed: the plain synchronous round, beeps uncopied.
            result = compiled.execute(beeps, listen)
            self.rounds.tick()
            LAYOUT_STATS.indexed_rounds += 1
            return result
        beeps = list(beeps)
        with trace_span("round") if self.trace_rounds else NOOP_SPAN:
            injector = self.fault_injector
            if self.scheduler is None or injector is None or not injector.drop_prob:
                return self._staged_round(layout, compiled, beeps, listen)
            # Detect-and-retransmit: re-run the round whenever a *dropped*
            # beep changed an observed outcome.  The injector's clean-run
            # diff (``missed_hears``) is the detection signal; a drop
            # covered by another beep on the same circuit needs no retry,
            # and crash suppression (permanent, also counted in
            # ``missed_hears``) never triggers one on its own.
            stats = injector.stats
            for _attempt in range(self.max_retransmissions + 1):
                dropped, missed = stats.dropped, stats.missed_hears
                result = self._staged_round(layout, compiled, beeps, listen)
                if stats.dropped == dropped or stats.missed_hears == missed:
                    return result
                self.stats.retransmissions += 1
            raise RuntimeError(
                f"round still dropping beeps after {self.max_retransmissions} "
                "retransmissions (drop probability too high to make progress)"
            )

    def _staged_round(
        self,
        layout: CircuitLayout,
        compiled: CompiledLayout,
        beeps: List[int],
        listen: Optional[Sequence[int]],
    ):
        """Stages 1–5 of one round (see :meth:`run_round_indexed`)."""
        if self.scheduler is not None:
            self._advance_epoch(layout)
        injector = self.fault_injector
        kept = beeps if injector is None else injector.filter_beeps(compiled, beeps)
        result = compiled.execute(kept, listen)
        if len(kept) != len(beeps):
            injector.detect(compiled, beeps, listen, result)
        self.rounds.tick()
        LAYOUT_STATS.indexed_rounds += 1
        if self.round_trace is not None:
            self.round_trace.record_round(compiled, kept)
        return result

    def enable_round_tracing(self) -> None:
        """Wrap each of this engine's rounds in a ``round`` telemetry span.

        Opt-in per engine instance (``repro solve --trace-rounds``):
        sets :attr:`trace_rounds`, which the round kernel reads.
        Idempotent.
        """
        self.trace_rounds = True

    def charge_local_round(self, rounds: int = 1) -> None:
        """Charge rounds for steps with no beeps (pure local recomputation).

        The paper occasionally spends a round in which amoebots only
        update state / reconfigure pins; accounting keeps those explicit.
        Under a scheduler each local round still costs one epoch: every
        amoebot has to wake up once to do its local computation.
        """
        if self.scheduler is not None:
            for _ in range(rounds):
                self._advance_epoch(None)
        self.rounds.tick(rounds)
        if self.round_trace is not None:
            self.round_trace.record_local(rounds)
