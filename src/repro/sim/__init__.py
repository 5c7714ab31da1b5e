"""Amoebot + reconfigurable-circuit simulator.

This package implements the communication substrate of the paper's model
(Section 1.2): each edge between neighboring amoebots carries ``c``
external links; each amoebot partitions its pins into *partition sets*;
connected components of partition sets joined by external links form
*circuits*; a beep sent on any partition set of a circuit is heard by all
partition sets of that circuit at the beginning of the next round.

The simulator is strict about the model:

* pins only exist toward occupied neighbors;
* a pin belongs to at most one partition set;
* beeps carry no payload and no origin information;
* every call to :meth:`CircuitEngine.run_round_indexed` — the one round
  kernel — is one synchronous round and ticks the shared
  :class:`~repro.metrics.RoundCounter`.  The kernel's optional stages
  run in a fixed order: scheduler epoch, fault filter with detection,
  propagate, tick, round trace (:func:`attach_trace`).

Execution pipeline — **build -> freeze -> compile -> run**: build
layouts *outside* round loops, from grid-index edge ids and ``(edge
id, channel)`` pins; freezing validates a layout once and
*compiles* it to flat integer arrays
(:class:`~repro.sim.compiled.CompiledLayout`), so a round is a couple of
pure-Python passes over them (one kernel set; :mod:`repro.backend`
keeps only the backend names).  Evolving wirings go through
:meth:`CircuitLayout.derive` (incremental re-wiring, components
recomputed only over the touched circuits, integer set-ids stable
across the chain) and repeated wirings through the engine's
:class:`LayoutCache` (``engine.layouts``).  Callers resolve their
partition sets to integer ids once (the builder's slots,
:meth:`CircuitLayout.set_ids`) and run
:meth:`CircuitEngine.run_round_indexed` with zero per-round dict
construction; it returns one bit per listened set.  See
``repro.sim.circuits`` for the full contract and :data:`LAYOUT_STATS`
for the rebuild/compile/round probes.
"""

from repro.sim.errors import SimulationError, PinConfigurationError
from repro.sim.pins import Pin, PartitionSetId
from repro.sim.compiled import CompiledLayout, PartitionSetIndex
from repro.sim.circuits import (
    LAYOUT_STATS,
    CircuitLayout,
    LayoutBuildStats,
    LayoutCache,
    ScopedLayoutCache,
)
from repro.sim.engine import CircuitEngine
from repro.sim.trace import RoundTrace, attach_trace

__all__ = [
    "SimulationError",
    "PinConfigurationError",
    "Pin",
    "PartitionSetId",
    "CompiledLayout",
    "PartitionSetIndex",
    "CircuitLayout",
    "LayoutCache",
    "ScopedLayoutCache",
    "LayoutBuildStats",
    "LAYOUT_STATS",
    "CircuitEngine",
    "RoundTrace",
    "attach_trace",
]
