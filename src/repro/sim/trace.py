"""Round-by-round execution traces.

Attach a :class:`RoundTrace` to a :class:`CircuitEngine` and every
synchronous round is recorded by the engine's round kernel — under any
scheduler and fault injector: how many circuits the layout formed, how
many partition sets beeped, and how many heard something.  Traces can
be summarized, diffed against a previous run (regression debugging for
round counts), and exported to JSON for external tooling.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List

from repro.sim.compiled import CompiledLayout
from repro.sim.engine import CircuitEngine


@dataclass
class RoundRecord:
    """One synchronous round as observed by the tracer."""

    index: int
    circuits: int
    partition_sets: int
    beeping_sets: int
    hearing_sets: int
    local_only: bool = False


@dataclass
class RoundTrace:
    """An append-only log of rounds; attach via :func:`attach_trace`."""

    records: List[RoundRecord] = field(default_factory=list)

    def record_round(self, compiled: CompiledLayout, beeps: List[int]) -> None:
        """Record one beep round from its compiled arrays.

        ``beeps`` are the set-ids that reached their circuit (after the
        fault filter).  Hearing sets are counted off the component mask
        — no dict is materialized to observe the round.
        """
        hears = compiled.propagate(beeps)
        self.records.append(
            RoundRecord(
                index=len(self.records),
                circuits=compiled.n_components,
                partition_sets=len(compiled.index),
                beeping_sets=len(beeps),
                hearing_sets=compiled.hearing_count(hears),
            )
        )

    def record_local(self, count: int = 1) -> None:
        """Record local-only rounds."""
        for _ in range(count):
            self.records.append(
                RoundRecord(
                    index=len(self.records),
                    circuits=0,
                    partition_sets=0,
                    beeping_sets=0,
                    hearing_sets=0,
                    local_only=True,
                )
            )

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def beep_rounds(self) -> int:
        """Number of rounds that used circuits."""
        return sum(1 for r in self.records if not r.local_only)

    def silent_rounds(self) -> int:
        """Beep rounds in which nobody beeped (pure listening rounds)."""
        return sum(
            1 for r in self.records if not r.local_only and r.beeping_sets == 0
        )

    def max_circuits(self) -> int:
        """Largest number of simultaneous circuits observed."""
        return max((r.circuits for r in self.records), default=0)

    def summary(self) -> Dict[str, int]:
        """Aggregate counters of the trace."""
        return {
            "rounds": len(self.records),
            "beep_rounds": self.beep_rounds(),
            "local_rounds": len(self.records) - self.beep_rounds(),
            "silent_rounds": self.silent_rounds(),
            "max_circuits": self.max_circuits(),
        }

    def to_json(self) -> str:
        """Serialize the trace."""
        return json.dumps([asdict(r) for r in self.records])

    @classmethod
    def from_json(cls, text: str) -> "RoundTrace":
        """Restore a trace serialized by :meth:`to_json`."""
        return cls(records=[RoundRecord(**r) for r in json.loads(text)])


def attach_trace(engine: CircuitEngine) -> RoundTrace:
    """Record every subsequent round of ``engine``; returns the trace.

    Sets :attr:`CircuitEngine.round_trace`, which the round kernel
    records into after each tick (beep rounds) and
    :meth:`CircuitEngine.charge_local_round` after each local charge.
    Detach by setting the field back to ``None``.
    """
    engine.round_trace = RoundTrace()
    return engine.round_trace
