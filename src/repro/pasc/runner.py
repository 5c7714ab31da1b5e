"""Parallel PASC execution with shared synchronous rounds.

Each iteration costs exactly two rounds, independent of how many PASC
instances run concurrently (Lemma 4 plus the synchronization technique
of Padalkin et al. [26]):

1. every run's primary/secondary circuits are (re)established and every
   run's first unit beeps on its primary set; all units read their bit;
2. the structure forms a global circuit on a reserved channel and every
   still-active participant beeps; silence tells all amoebots that every
   run has finished (all remaining bits are zero).

The pin configuration barely changes between iterations — only units
whose activity flipped re-cross their outgoing links — so the runner
honors the layout-reuse contract of :mod:`repro.sim.circuits`: the
runs' layout is built and frozen **once**, and every subsequent
iteration *derives* it, re-wiring only the flipped units (one
``exchange_slots`` crossing flip per unit) and recomputing only the
touched circuits.  The never-changing global termination circuit lives
on its own reserved channel, so the runner executes the termination
round against the engine's cached global layout
(:meth:`~repro.sim.engine.CircuitEngine.global_layout`) instead of
splicing a structure-sized circuit into every runs' layout: the two
wirings coexist on disjoint channels of the same pin configuration,
round counts are unchanged (still one beep round each), and the runs'
layouts stay proportional to the runs.  The *initial* runs' layout
(keyed by every run's ``wiring_key``) is additionally memoized in the
engine's layout cache, so deterministic algorithms that re-execute
identical PASC runs (e.g. the recomputed decomposition tree of the
forest algorithm) skip the one full build as well.  Only iteration 0 is
cached on purpose: per-iteration activity snapshots would insert a
never-repeating key per iteration, churning the LRU out of its genuinely
reusable entries and pinning structure-sized layout copies, while
derivation already makes iterations 1+ cheap.

Execution itself rides the compiled fast path: runs build their
circuits from grid-index integers and keep the slots of their partition
sets, which are the compiled set-ids of the frozen layout and stay valid
along the derive chain, so beeps and listens are never resolved through
partition-set tuples; both rounds of an iteration go through
:meth:`~repro.sim.engine.CircuitEngine.run_round_indexed`, and each run
absorbs its slice of the flat bit list (``absorb_bits``) — zero
per-round dict construction.  The termination beeps are addressed the
same way: runs report the node ids of their active units
(``active_ids``), which resolve to slots of the global layout through
:meth:`~repro.sim.circuits.CircuitLayout.set_ids`, so neither round
builds a ``(node, label)`` tuple.  Wiring keys are made of ints, strings
and bytes (see :mod:`repro.pasc.chain`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, Tuple

from repro.sim.circuits import CircuitLayout
from repro.sim.engine import CircuitEngine
from repro.sim.errors import PinConfigurationError


class PascRun(Protocol):
    """Protocol shared by chain and tree runs (and ETT wrappers)."""

    def is_done(self) -> bool:
        """Whether no participant is active (all further bits zero)."""
        ...

    def contribute_layout(self, layout: CircuitLayout) -> None:
        """Wire this iteration's circuits into the shared layout and
        remember the slots of the partition sets it declared."""
        ...

    def bind_layout(self, layout: CircuitLayout) -> None:
        """Resolve this run's slots in an equal wiring built by an
        earlier execution (a layout-cache hit)."""
        ...

    def rewire_layout(self, layout: CircuitLayout) -> None:
        """Reassign only the partition sets whose wiring changed since
        the last ``contribute_layout``/``rewire_layout`` call, so the
        next iteration derives its layout instead of rebuilding it."""
        ...

    def wiring_key(self) -> Tuple:
        """Hashable snapshot of this run's current wiring (the key of
        the engine's layout cache for repeated identical executions)."""
        ...

    def beep_slots(self) -> List[int]:
        """Set-ids this run activates in the PASC round."""
        ...

    def listen_slots(self) -> List[int]:
        """Set-ids whose bits :meth:`absorb_bits` consumes."""
        ...

    def absorb_bits(self, bits: Sequence[bool]) -> None:
        """Read this iteration's bits, aligned with :meth:`listen_slots`
        order, and update activity."""
        ...

    def active_ids(self) -> List[int]:
        """Node ids of the amoebots that beep in the shared termination
        round."""
        ...


@dataclass
class PascResult:
    """Execution summary of a (parallel) PASC run."""

    iterations: int
    rounds: int
    #: Amoebot activations spent (equals ``n * rounds`` under the
    #: synchronous engine; event-driven engines report real counts).
    activations: int = 0


TERMINATION_LABEL = "pasc:termination"


def run_pasc(
    engine: CircuitEngine,
    runs: Sequence[PascRun],
    term_channel: int | None = None,
    max_iterations: int | None = None,
    section: str = "pasc",
    structure=None,
) -> PascResult:
    """Execute ``runs`` to completion in parallel on ``engine``.

    ``engine`` may also be a :class:`repro.api.Session` together with an
    explicit ``structure=`` — the session then supplies the engine
    (scheduler, shared layout caches), unifying PASC with the
    rest of the facade: ``run_pasc(session, runs, structure=st)`` is
    ``run_pasc(session.engine_for(st), runs)``.

    ``term_channel`` is the channel of the global termination circuit
    (default: the engine's highest channel, which the wiring conventions
    in this repository leave free).  ``max_iterations`` is an inclusive
    safety cap for tests; the algorithm terminates by itself via the
    silence of the termination circuit.

    The round count is a function of the runs alone: layout derivation
    and caching change only wall-clock cost, never the round structure
    (two rounds per iteration, Lemma 4).
    """
    if not isinstance(engine, CircuitEngine):
        if not hasattr(engine, "engine_for"):
            raise TypeError(
                f"run_pasc needs a CircuitEngine or a Session, got "
                f"{type(engine).__name__}"
            )
        if structure is None:
            raise ValueError(
                "run_pasc(session, runs) needs structure=: a session is "
                "structure-agnostic, so the structure must be explicit"
            )
        engine = engine.engine_for(structure)
    elif structure is not None and structure is not engine.structure:
        raise ValueError("structure= disagrees with the engine's structure")
    if term_channel is None:
        term_channel = engine.channels - 1
    if max_iterations is None:
        max_iterations = 2 * len(engine.structure).bit_length() + 8

    # The termination circuit is global (one component spanning every
    # amoebot), so listening on a single probe set is equivalent to
    # scanning all of them.  It lives on its own reserved channel and
    # never changes, so the engine's cached global layout carries it —
    # one build per engine, shared by every PASC execution.  Its sets
    # are addressed by node id, like every run's.
    term_layout = engine.global_layout(label=TERMINATION_LABEL, channel=term_channel)
    probe_nid = next(iter(engine.structure.grid_index().live_ids()))

    def wiring_key() -> Tuple:
        """Cache key of the *initial* wiring (iteration-0 activity)."""
        return ("pasc", term_channel, tuple(run.wiring_key() for run in runs))

    iterations = 0
    start_rounds = engine.rounds.total
    start_activations = engine.rounds.activations
    layout: Optional[CircuitLayout] = None
    # Integer set-ids are the slots each run learned when its sets were
    # declared (or resolved on a cache hit).  Derivation keeps slots, so
    # they hold for the whole derive chain.  The termination layout is
    # cached on the engine, so its ids hold for the whole execution.
    listen_idx: List[int] = []
    slices: List[Tuple[int, int]] = []
    beep_idx: List[int] = []
    term_probe_idx = term_layout.set_ids([(probe_nid, TERMINATION_LABEL)], "listen on")
    with engine.rounds.section(section):
        while True:
            if iterations >= max_iterations:
                raise RuntimeError(
                    f"PASC exceeded its cap of {max_iterations} iterations "
                    f"(completed {iterations}) on a structure of "
                    f"{len(engine.structure)} amoebots; "
                    "wiring or activity update is broken"
                )
            first_iteration = layout is None
            layout = _iteration_layout(
                engine, runs, layout, wiring_key() if first_iteration else None
            )
            if layout.uses_channel(term_channel):
                # The termination circuit executes on its own layout,
                # so a run wiring the reserved channel would no longer
                # collide pin-for-pin — both circuits would silently
                # drive the same physical pins.  Fail fast instead.
                raise PinConfigurationError(
                    f"PASC runs must not wire pins on the reserved "
                    f"termination channel {term_channel}"
                )
            if first_iteration:
                for run in runs:
                    run_listen = run.listen_slots()
                    slices.append((len(listen_idx), len(listen_idx) + len(run_listen)))
                    listen_idx.extend(run_listen)
                    beep_idx.extend(run.beep_slots())

            bits = engine.run_round_indexed(layout, beep_idx, listen_idx)
            for run, (lo, hi) in zip(runs, slices):
                run.absorb_bits(bits[lo:hi])
            iterations += 1
            # Resolved after the absorb, so the termination beeps read
            # this iteration's activity.
            term_beep_idx = term_layout.set_ids(
                ((nid, TERMINATION_LABEL) for run in runs for nid in run.active_ids()),
                "beep on",
            )
            term_bits = engine.run_round_indexed(term_layout, term_beep_idx, term_probe_idx)
            if not term_bits[0]:
                break
    return PascResult(
        iterations=iterations,
        rounds=engine.rounds.total - start_rounds,
        activations=engine.rounds.activations - start_activations,
    )


def _iteration_layout(
    engine: CircuitEngine,
    runs: Sequence[PascRun],
    previous: Optional[CircuitLayout],
    key: Optional[Tuple],
) -> CircuitLayout:
    """The frozen layout for the coming iteration, built as cheaply as
    possible: cache hit (iteration 0 only) > derivation from the previous
    iteration > full build.  The layout carries only the runs' circuits;
    the global termination circuit lives on the engine's cached global
    layout."""
    if key is not None:
        cached = engine.layouts.get(key)
        if cached is not None:
            for run in runs:
                run.bind_layout(cached)
            return cached
    if previous is not None:
        layout = previous.derive()
        for run in runs:
            run.rewire_layout(layout)
    else:
        layout = engine.new_layout()
        for run in runs:
            run.contribute_layout(layout)
    layout.freeze()
    if key is not None:
        engine.layouts.put(key, layout)
    return layout
