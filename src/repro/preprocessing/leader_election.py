"""Randomized leader election on the global circuit (Theorem 2).

The tournament at the heart of Feldmann et al.'s protocol: every
amoebot starts as a candidate; in each phase every candidate tosses a
fair coin and beeps on the global circuit iff it tossed heads.  If a
beep is heard, candidates that tossed tails retire (somebody with heads
is still in).  If no beep is heard the phase changes nothing.  After
``Θ(log n)`` phases a single candidate remains w.h.p.

The second beep of each phase implements the *progress check* that lets
the amoebots terminate: the remaining candidates beep unconditionally,
and a retired amoebot can never tell how many beeped — so, as in the
original paper, the protocol runs a fixed ``c · ceil(log2 n) + c``
phases and is correct w.h.p. (the full protocol of [17] sharpens this
with boundary circuits; the tournament is the part the shortest-path
paper's preprocessing actually relies on).  An optional oracle check
reports whether uniqueness actually held, which the statistical tests
use to measure the failure probability.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Set

from repro.grid.coords import Node
from repro.sim.engine import CircuitEngine


@dataclass
class LeaderElectionResult:
    """Outcome of one leader election run."""

    leader: Optional[Node]
    candidates_left: int
    phases: int
    rounds: int
    unique: bool


def elect_leader(
    engine: CircuitEngine,
    seed: Optional[int] = None,
    safety_factor: int = 3,
    section: str = "leader_election",
) -> LeaderElectionResult:
    """Run the coin-tossing tournament; ``O(log n)`` rounds.

    ``safety_factor`` scales the number of phases: ``failure
    probability <= n · 2^{-phases}``, so factor 3 gives w.h.p. with
    exponent ~2.  The returned result reports whether a unique leader
    remained (simulator knowledge; the amoebots themselves rely on the
    w.h.p. guarantee, as in the paper).
    """
    rng = random.Random(seed)
    structure = engine.structure
    candidates: Set[Node] = set(structure.nodes)
    n = len(structure)
    phases = safety_factor * (max(n, 2).bit_length() + 1)
    start_rounds = engine.rounds.total

    # One global circuit, reused for every phase (cache-hit if another
    # primitive already built it); a single probe set carries the bit.
    # Integer set-ids are resolved once, so each phase is one array pass.
    layout = engine.global_layout(label="leader")
    id_of = structure.grid_index().id_of
    keys = [(id_of(u), "leader") for u in structure]
    set_of = dict(zip(structure, layout.set_ids(keys, "beep on")))
    probe = set_of[next(iter(structure))]
    with engine.rounds.section(section):
        for _phase in range(phases):
            heads = {u for u in candidates if rng.random() < 0.5}
            received = engine.run_round_indexed(
                layout, [set_of[u] for u in heads], (probe,)
            )
            someone_beeped = received[0]
            if someone_beeped:
                candidates = heads
            if len(candidates) <= 1:
                # The amoebots cannot see this; they keep beeping for
                # the fixed schedule.  The simulator shortcut below only
                # skips no-op phases and charges their rounds anyway.
                remaining = phases - _phase - 1
                engine.rounds.tick(remaining)
                break

    unique = len(candidates) == 1
    leader = next(iter(candidates)) if unique else None
    return LeaderElectionResult(
        leader=leader,
        candidates_left=len(candidates),
        phases=phases,
        rounds=engine.rounds.total - start_rounds,
        unique=unique,
    )
