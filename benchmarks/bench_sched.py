"""Scheduler cost contract (CI perf-smoke).

The event-driven :class:`~repro.sched.ActivationEngine` promises two
things the benchmarks pin down on the standard ``random:200:7``
instance:

* *outcome invariance* — round totals (and forests) are identical under
  every scheduler, so the paper's round-complexity results survive the
  asynchronous adversary unchanged;
* *cost separation* — activation counts order the schedulers
  (sync < adversarial-with-few-victims < random/weighted), which is the
  measurable quantity the scheduler axis exists for.

Run quick in CI via ``BENCH_QUICK=1`` (shrinks the instance).  The exact
per-scheduler activation counts on ``random:200:7`` are pinned in
``tests/test_sched.py``.
"""

from __future__ import annotations

import os
from typing import Dict

QUICK = bool(os.environ.get("BENCH_QUICK"))
N = 60 if QUICK else 200
SEED = 7
K = 1

#: The scheduler axis measured here and by the ``sched`` campaigns.
SCHEDULERS = ("sync", "random:1", "adversarial:4", "weighted:1")


def sched_solve(spec: str, n: int = N, seed: int = SEED, k: int = K) -> Dict[str, int]:
    """One SSSP solve under ``spec``; its ``rounds`` and ``activations``."""
    from repro.sched import ActivationEngine
    from repro.spf.api import solve_spf
    from repro.workloads import random_hole_free

    structure = random_hole_free(n, seed=seed)
    nodes = sorted(structure.nodes)
    engine = ActivationEngine(structure, scheduler=spec)
    solution = solve_spf(structure, nodes[:k], list(structure.nodes), engine=engine)
    return {
        "rounds": solution.rounds,
        "activations": solution.activations,
    }


# ----------------------------------------------------------------------
# pytest smokes (CI perf-smoke job)
# ----------------------------------------------------------------------


def test_rounds_are_scheduler_invariant():
    runs = {spec: sched_solve(spec) for spec in SCHEDULERS}
    rounds = {spec: r["rounds"] for spec, r in runs.items()}
    assert len(set(rounds.values())) == 1, (
        f"round totals diverged across schedulers: {rounds}; "
        "the synchronization barrier must make outcomes scheduler-invariant"
    )


def test_sync_activations_equal_n_times_rounds():
    r = sched_solve("sync")
    assert r["activations"] == N * r["rounds"], (
        f"sync scheduler charged {r['activations']} activations for "
        f"{r['rounds']} rounds on n = {N}; lock-step must cost exactly "
        "one activation per amoebot per round"
    )


def test_async_schedulers_cost_more_activations():
    sync = sched_solve("sync")["activations"]
    for spec in ("random:1", "weighted:1"):
        async_cost = sched_solve(spec)["activations"]
        assert async_cost > sync, (
            f"{spec} charged {async_cost} activations <= sync's {sync}; "
            "wasted wake-ups must make asynchronous schedules strictly "
            "more expensive"
        )
