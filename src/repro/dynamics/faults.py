"""Fault injection for synchronous beep rounds.

A :class:`FaultInjector` plugs into
:attr:`CircuitEngine.fault_injector <repro.sim.engine.CircuitEngine>`:
every round's beep list passes through it before propagation.  Two
fault classes are modeled:

* **crash faults** — crashed amoebots are fail-silent: every beep they
  would emit is suppressed (their pins still conduct; the wiring is
  passive).  Crashes persist until :meth:`recover`.
* **message faults** — each surviving beep is independently dropped
  with probability ``drop_prob`` (a lossy-beep model in the spirit of
  fault-tolerant beeping/pod layers).

The injector keeps *detection counters*: the round kernel
(:meth:`CircuitEngine.run_round_indexed`) filters each round's beeps
with :meth:`FaultInjector.filter_beeps`, and whenever a beep was lost
it re-propagates the round fault-free (:meth:`FaultInjector.detect`):
the listened partition sets that should have heard a beep but did not
are counted in :attr:`FaultStats.missed_hears`.  The dynamics layer
arms an injector only around its repair waves and heals every damaged
label (see :class:`repro.dynamics.maintain.DynamicSPF`), so the counters
double as a ground-truth "faults detected" metric.

Randomness is owned by the injector (seeded), so a faulty run is
reproducible bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set

from repro.grid.coords import Node
from repro.sim.compiled import CompiledLayout


@dataclass
class FaultStats:
    """Counters of injected and detected faults."""

    suppressed: int = 0     #: beeps silenced by crashed amoebots
    dropped: int = 0        #: beeps lost to the drop probability
    faulty_rounds: int = 0  #: rounds in which at least one beep was lost
    missed_hears: int = 0   #: listened sets that missed a beep (detected)

    @property
    def lost(self) -> int:
        """Total beeps that never made it onto their circuit."""
        return self.suppressed + self.dropped


class FaultInjector:
    """Suppresses beeps of crashed amoebots and randomly drops others."""

    def __init__(
        self,
        crashed: Iterable[Node] = (),
        drop_prob: float = 0.0,
        seed: int = 0,
    ):
        if not 0.0 <= drop_prob <= 1.0:
            raise ValueError(f"drop probability must be in [0, 1], got {drop_prob}")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.crashed: Set[Node] = set(crashed)
        self.drop_prob = drop_prob
        self._rng = random.Random(seed)
        self.stats = FaultStats()

    def crash(self, node: Node) -> None:
        """Crash one amoebot (fail-silent from the next round on)."""
        self.crashed.add(node)

    def recover(self, node: Node) -> None:
        """Recover a crashed amoebot."""
        self.crashed.discard(node)

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------
    def _keep(self, node: Node) -> bool:
        if node in self.crashed:
            self.stats.suppressed += 1
            return False
        if self.drop_prob and self._rng.random() < self.drop_prob:
            self.stats.dropped += 1
            return False
        return True

    def filter_beeps(self, compiled: CompiledLayout, beeps: List[int]) -> List[int]:
        """The beeps that reach their circuit this round (integer set-ids).

        Beeps of crashed amoebots are suppressed and each surviving beep
        is dropped with probability :attr:`drop_prob`, in beep order, so
        a seeded injector loses the same beeps on every run.
        """
        ids = compiled.index.ids
        return [i for i in beeps if self._keep(ids[i][0])]

    def detect(
        self,
        compiled: CompiledLayout,
        beeps: List[int],
        listen: Optional[Sequence[int]],
        faulty,
    ) -> None:
        """Count a round that lost beeps and the hears it cost.

        Propagates the fault-free round too (pure array work, no extra
        synchronous round) and adds every listened set that hears in
        the clean run but not in ``faulty`` to
        :attr:`FaultStats.missed_hears`.
        """
        self.stats.faulty_rounds += 1
        clean = compiled.execute(beeps, listen)
        self.stats.missed_hears += missed_hears(clean, faulty)


def missed_hears(clean: Sequence[bool], faulty: Sequence[bool]) -> int:
    """How many positions hear in ``clean`` but not in ``faulty``.

    The vectors must describe the same listen list; diverging lengths
    mean the caller compared rounds of different layouts, which would
    silently miscount — rejected.
    """
    if len(clean) != len(faulty):
        raise ValueError(
            "cannot diff round results of different lengths "
            f"({len(clean)} != {len(faulty)}); both rounds must use the "
            "same layout and listen list"
        )
    return sum(1 for should, did in zip(clean, faulty) if should and not did)
