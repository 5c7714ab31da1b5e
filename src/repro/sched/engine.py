"""Event-driven activation engine over the compiled integer arrays.

The :class:`ActivationEngine` replaces the implicit "everyone activates
in lock step" assumption of :class:`~repro.sim.engine.CircuitEngine`
with an explicit event queue: a :class:`~repro.sched.schedulers.Scheduler`
assigns every amoebot a next-activation time, and a heap of
``(time, node_id)`` events — integer grid-index ids, no Node hashing —
orders the wake-ups.

**Round synchronization.**  The algorithms of the paper are specified in
synchronous rounds; the standard way to run them under an asynchronous
adversary is a synchronization barrier: one logical round becomes an
*epoch* that completes only once every participant has activated at
least once since the epoch began.  Delayed amoebots therefore delay
epoch completion instead of missing beeps, so the computed structures
(forests, distances) are identical under every scheduler — what changes,
and what this engine measures, is the *cost*: total activations (wasted
wake-ups included) and elapsed scheduler time ("effective rounds").
The :class:`~repro.sched.schedulers.SynchronousScheduler` makes every
epoch exactly one activation per amoebot in one time unit, reproducing
the plain synchronous engine bit for bit.

**Faults.**  A :class:`~repro.dynamics.faults.FaultInjector` composes
with any scheduler.  Crashed amoebots are non-participants: the barrier
does not wait for them (a crashed amoebot never activates; waiting would
deadlock the epoch).  Randomly *dropped* beeps are transient, and the
injector's detection counters make them observable, so the round kernel
(:meth:`CircuitEngine.run_round_indexed`) runs a detect-and-retransmit
loop whenever a scheduler is present: a round in which a dropped beep
changed a listened outcome is re-executed in a fresh epoch (each retry
is a real round and a real epoch, counted in
:attr:`ActivationStats.retransmissions`) until it goes through clean.
This is what keeps ``solve_spf`` checker-valid under drops — the cost
shows up in rounds/activations/time instead of in broken forests.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.grid.structure import AmoebotStructure
from repro.metrics.rounds import RoundCounter
from repro.sim.circuits import CircuitLayout
from repro.sim.engine import AnyLayoutCache, CircuitEngine
from repro.sched.schedulers import Scheduler, make_scheduler

_FNV_PRIME = 1099511628211
_MASK64 = (1 << 64) - 1


@dataclass
class ActivationStats:
    """Cost counters of an event-driven execution."""

    activations: int = 0  #: total wake-ups processed (wasted included)
    wasted: int = 0  #: wake-ups beyond the first per epoch
    epochs: int = 0  #: logical synchronous rounds simulated
    time: float = 0.0  #: scheduler time elapsed (effective rounds)
    retransmissions: int = 0  #: rounds re-executed after a dropped beep
    #: Order-sensitive digest of the activation sequence; two runs with
    #: equal checksums (and counts) executed the same schedule.
    checksum: int = 0
    #: Wake-ups per amoebot id (rate assertions for weighted/adversarial
    #: schedulers).
    per_node: Dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Scalar counters as a JSON-ready mapping (metrics view).

        ``per_node`` is folded to its size (``participants``) — the full
        per-id map is test-probe detail, not a telemetry series.
        """
        return {
            "activations": self.activations,
            "wasted": self.wasted,
            "epochs": self.epochs,
            "time": round(self.time, 6),
            "retransmissions": self.retransmissions,
            "checksum": self.checksum,
            "participants": len(self.per_node),
        }

    def reset(self) -> None:
        """Zero every counter (tests reset before probing a run)."""
        self.activations = 0
        self.wasted = 0
        self.epochs = 0
        self.time = 0.0
        self.retransmissions = 0
        self.checksum = 0
        self.per_node = {}


class ActivationEngine(CircuitEngine):
    """A :class:`CircuitEngine` driven by per-amoebot activation events.

    Drop-in: setting :attr:`scheduler` arms the round kernel's epoch
    stage, so every beep round and every local round advances one
    epoch of the event queue (:meth:`_advance_epoch`) and existing
    algorithms run unmodified under any scheduler.  This class adds no
    round path of its own.  Round counts match the synchronous engine
    by construction; activation counts and scheduler time are collected
    in :attr:`stats` and charged to the shared
    :class:`~repro.metrics.rounds.RoundCounter`.
    """

    def __init__(
        self,
        structure: AmoebotStructure,
        scheduler: Union[Scheduler, str] = "sync",
        channels: int = 8,
        counter: Optional[RoundCounter] = None,
        layout_cache_size: int = 256,
        layouts: Optional[AnyLayoutCache] = None,
        max_retransmissions: int = 1000,
    ):
        super().__init__(
            structure,
            channels=channels,
            counter=counter,
            layout_cache_size=layout_cache_size,
            layouts=layouts,
        )
        self.scheduler = make_scheduler(scheduler)
        self.max_retransmissions = max_retransmissions
        self.stats = ActivationStats()
        # Activations are charged per epoch, not per tick.
        self.rounds.activations_per_round = 0
        self._grid = None
        self._ids: List[int] = []
        self._heap: List = []
        self._arrived = bytearray()
        self._clock = 0.0

    def rebind(
        self,
        structure: AmoebotStructure,
        layouts: Optional[AnyLayoutCache] = None,
    ) -> None:
        """Point the engine at an edited structure (see the base class)."""
        super().rebind(structure, layouts)
        self.rounds.activations_per_round = 0
        # The grid index changed identity; the next epoch restarts the
        # event queue (and the scheduler) for the new id space.
        self._grid = None

    # ------------------------------------------------------------------
    # event queue
    # ------------------------------------------------------------------
    def _reset_queue(self) -> None:
        grid = self.structure.grid_index()
        self._grid = grid
        self._ids = list(grid.live_ids())
        self.scheduler.start(self._ids)
        self._clock = 0.0
        self._arrived = bytearray(grid.n_slots)
        heap = [(self.scheduler.next_delay(nid), nid) for nid in self._ids]
        heapq.heapify(heap)
        self._heap = heap

    def _advance_epoch(self, layout: Optional[CircuitLayout]) -> None:
        """Pop events until every participant activated once (one round).

        The round kernel's epoch stage: called once per beep round
        (with its layout) and once per local round (``layout=None``).
        """
        if self._grid is None or self._grid is not self.structure.grid_index():
            self._reset_queue()
        if layout is not None:
            observe = getattr(self.scheduler, "observe_layout", None)
            if observe is not None:
                observe(layout.compiled(), self._grid.id_of)

        crashed_ids = frozenset()
        injector = self.fault_injector
        if injector is not None and injector.crashed:
            grid = self._grid
            crashed_ids = frozenset(
                i
                for i in (grid.id_of(u) for u in injector.crashed)
                if i is not None
            )
        need = len(self._ids) - len(crashed_ids)
        stats = self.stats
        if need <= 0:
            # Degenerate: nobody participates; time still passes.
            stats.epochs += 1
            stats.time += 1.0
            self._clock += 1.0
            return

        heap = self._heap
        sched = self.scheduler
        arrived = self._arrived
        per_node = stats.per_node
        checksum = stats.checksum
        touched: List[int] = []
        seen = 0
        t = self._clock
        epoch_activations = 0
        while seen < need:
            t, nid = heapq.heappop(heap)
            heapq.heappush(heap, (t + sched.next_delay(nid), nid))
            if nid in crashed_ids:
                continue
            epoch_activations += 1
            checksum = (checksum * _FNV_PRIME + nid + 1) & _MASK64
            per_node[nid] = per_node.get(nid, 0) + 1
            if arrived[nid]:
                stats.wasted += 1
            else:
                arrived[nid] = 1
                touched.append(nid)
                seen += 1
        for nid in touched:
            arrived[nid] = 0
        stats.checksum = checksum
        stats.activations += epoch_activations
        stats.epochs += 1
        stats.time += t - self._clock
        self._clock = t
        self.rounds.charge_activations(epoch_activations)
