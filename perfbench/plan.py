"""Seeded inputs of the three workloads, drawn from fixed, listed cells.

``--seed`` picks shape seeds, endpoint seeds and the order of the
daemon mix.  Every input is drawn from a *cell* (family x size x k,
churn kind x size, ...) whose instances are listed below, so each one
has a round count pinned in ``perfbench/pins.json``; ``make_pins.py``
pins exactly these instances.  The program under test only ever sees
the generated :class:`~repro.api.SolveRequest` s and campaign specs.

The cells hold the instances whose rounds and solve time were within
10% of their candidate pool's median when the benchmark was defined
(shape seeds 1-4, endpoint seeds 1-4; cold daemon shapes 11-20; churn
trial seeds 1-8).  Seeds therefore vary instances without varying the
amount of work; the heavy and light outliers of each pool (block_move
churn spans 7x in rounds, random structures of one size 2x in solve
time) are left out, so a regression that hits only them does not show
here.  The lists are frozen: regenerating the pins never changes what
runs.

Pin identities (``pin_id``) are spelled out by the benchmark itself
rather than taken from the program's content hashes, so a change to how
the program hashes requests cannot silently orphan the pins.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List

#: solve_ladder families: size tier -> shape spec (``{s}`` = shape seed).
FAMILIES: Dict[str, Dict[int, str]] = {
    "random": {125: "random:125:{s}", 500: "random:500:{s}", 2000: "random:2000:{s}"},
    "line": {125: "line:125", 500: "line:500", 2000: "line:2000"},
    "comb": {125: "comb:9:12", 500: "comb:25:19", 2000: "comb:50:38"},
    "hexagon": {125: "hexagon:6", 500: "hexagon:12", 2000: "hexagon:25"},
}
#: solve_ladder cells, (family, size tier, k, l) -> (shape seed, endpoint
#: seed) pairs; shape seed 0 for the fixed shapes.  l = 5 throughout,
#: plus one SSSP rung (l = 0: every node is a destination).
LADDER_CELLS = {
    ("random", 125, 1, 5): ((1, 3), (1, 4), (2, 2), (2, 3), (3, 3), (3, 4), (4, 1),
                            (4, 2), (4, 3), (4, 4)),
    ("random", 500, 1, 5): ((1, 1), (1, 2), (2, 1), (2, 4), (3, 2), (3, 3), (3, 4),
                            (4, 1), (4, 2)),
    ("random", 2000, 1, 5): ((1, 3), (2, 2), (4, 3)),
    ("random", 125, 4, 5): ((1, 1), (1, 3), (2, 1)),
    ("random", 500, 4, 5): ((2, 3), (2, 4), (3, 1)),
    ("line", 125, 1, 5): ((0, 1), (0, 2), (0, 3)),
    ("line", 500, 1, 5): ((0, 1), (0, 2), (0, 3), (0, 4)),
    ("line", 2000, 1, 5): ((0, 1), (0, 2), (0, 3), (0, 4)),
    ("line", 125, 4, 5): ((0, 1), (0, 2), (0, 3), (0, 4)),
    ("line", 500, 4, 5): ((0, 1), (0, 3), (0, 4)),
    ("comb", 125, 1, 5): ((0, 1), (0, 3), (0, 4)),
    ("comb", 500, 1, 5): ((0, 1), (0, 2), (0, 3), (0, 4)),
    ("comb", 2000, 1, 5): ((0, 2), (0, 3), (0, 4)),
    ("comb", 125, 4, 5): ((0, 1), (0, 2), (0, 4)),
    ("comb", 500, 4, 5): ((0, 1), (0, 2), (0, 3)),
    ("hexagon", 125, 1, 5): ((0, 1), (0, 2), (0, 3)),
    ("hexagon", 500, 1, 5): ((0, 1), (0, 2), (0, 3), (0, 4)),
    ("hexagon", 2000, 1, 5): ((0, 2), (0, 3), (0, 4)),
    ("hexagon", 125, 4, 5): ((0, 1), (0, 2), (0, 4)),
    ("hexagon", 500, 4, 5): ((0, 2), (0, 3), (0, 4)),
    ("random", 500, 2, 0): ((1, 2), (3, 3), (4, 2)),
}
#: Quick (self-test) ladder: the smallest tier only.
QUICK_TIER = 125
BACKENDS = ("python", "numpy")

#: daemon_mix warm cells, (kind, n) -> (shape seed, endpoint seed) pairs
#: of ``random:<n>:<shape seed>`` with k = 1, l = 5.
WARM_CELLS = {
    ("solve", 150): ((1, 1), (3, 2), (4, 1), (4, 2)),
    ("solve", 200): ((1, 2), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (3, 4),
                     (4, 1), (4, 2), (4, 3), (4, 4)),
    ("solve", 250): ((1, 1), (1, 2), (1, 4), (2, 1), (2, 2), (3, 3), (3, 4), (4, 3)),
    ("solve", 300): ((1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (4, 1),
                     (4, 2), (4, 3)),
    ("route", 150): ((1, 4), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 4),
                     (4, 2), (4, 3), (4, 4)),
    ("route", 200): ((1, 3), (1, 4), (4, 1)),
}
#: Warm keys drawn from each warm cell (16 solves and 4 routes in all).
WARM_PER_CELL = {"solve": 4, "route": 2}
ROUTE_TOKENS = 6
#: Fresh cold solves, n -> (shape seed, endpoint seed) pairs; the mix
#: draws them without replacement.
COLD_CELLS = {
    150: ((11, 4), (13, 2), (13, 3), (14, 2), (14, 3), (14, 4), (16, 1), (16, 2),
          (16, 3), (16, 4), (18, 1), (18, 2), (18, 4), (20, 2), (20, 4)),
    200: ((12, 1), (12, 3), (12, 4), (13, 1), (13, 3), (14, 4), (15, 2), (15, 3),
          (16, 1), (16, 2), (16, 3), (16, 4), (17, 1), (17, 4), (18, 1), (18, 4),
          (20, 1)),
    250: ((11, 1), (12, 2), (12, 3), (13, 1), (13, 2), (14, 1), (14, 4), (15, 1),
          (15, 2), (15, 3), (15, 4), (17, 2), (18, 1), (18, 3), (19, 2), (19, 3),
          (19, 4), (20, 1), (20, 2), (20, 3)),
    300: ((11, 2), (11, 3), (12, 1), (12, 3), (12, 4), (13, 2), (13, 3), (13, 4),
          (14, 2), (14, 3), (14, 4), (15, 2), (15, 3), (15, 4), (16, 2), (16, 3),
          (17, 1), (17, 2), (17, 3), (17, 4), (18, 2), (18, 4), (19, 1), (19, 2),
          (19, 3), (19, 4), (20, 1), (20, 4)),
}
COLD_FRACTION = 0.10
COLD_SEGMENT_OPS = 2
WARM_SEGMENT_OPS = 20

#: churn_campaign kinds, after the registry's ``churn`` campaign:
#: churn kind -> (k, l, placement, steps, batch).
CHURN_KINDS = {
    "growth": (1, 5, "random", 8, 4),
    "erosion": (1, 5, "random", 8, 4),
    "tunnel": (1, 5, "random", 6, 3),
    "block_move": (2, 0, "spread", 6, 4),
}
#: churn_campaign cells, (churn kind, n) -> (shape seed, trial seed)
#: pairs of ``random:<n>:<shape seed>``.
CHURN_CELLS = {
    ("growth", 100): ((1, 1), (1, 4), (1, 5), (1, 7), (1, 8), (2, 4), (2, 8), (4, 1),
                      (4, 2)),
    ("growth", 200): ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 4), (3, 5), (3, 6),
                      (3, 8), (4, 5), (4, 6)),
    ("growth", 400): ((1, 2), (1, 5), (1, 7), (2, 1), (2, 2), (2, 4), (2, 5), (2, 6),
                      (3, 8), (4, 5), (4, 6), (4, 8)),
    ("erosion", 100): ((1, 3), (1, 6), (1, 8), (2, 2), (2, 5), (3, 3), (3, 5), (3, 7),
                       (4, 6)),
    ("erosion", 200): ((1, 3), (2, 3), (2, 8), (3, 5)),
    ("erosion", 400): ((1, 1), (1, 3), (1, 8), (2, 4), (2, 5), (3, 1), (3, 5), (4, 2),
                       (4, 5)),
    ("tunnel", 100): ((1, 4), (1, 6), (1, 8), (2, 1), (2, 4), (4, 4), (4, 5)),
    ("tunnel", 200): ((1, 2), (1, 3), (1, 4), (3, 1), (3, 2), (4, 3), (4, 5), (4, 8)),
    ("block_move", 100): ((3, 1), (3, 2), (3, 5)),
    ("block_move", 200): ((2, 8), (3, 6), (4, 7)),
}
TRIALS_PER_CELL = 3
#: Quick (self-test) campaign: one cell.
QUICK_CHURN_CELL = ("growth", 100)


def request_pin_id(kind: str, shape: str, k: int, l: int, seed: int,
                   tokens: int = 0) -> str:
    """Pin identity of one solve/route request (backend-free)."""
    tail = f"|t={tokens}" if kind == "route" else ""
    return f"{kind}|{shape}|k={k}|l={l}|s={seed}{tail}"


def trial_pin_id(churn: str, shape: str, k: int, l: int, seed: int,
                 placement: str, steps: int, batch: int) -> str:
    """Pin identity of one campaign churn trial."""
    return f"trial|{churn}|{shape}|k={k}|l={l}|s={seed}|{placement}|{steps}x{batch}"


@dataclass(frozen=True)
class Op:
    """One generated request: what the program receives, plus its pin."""

    kind: str
    shape: str
    k: int
    l: int
    seed: int
    tokens: int = 0
    backend: str = ""
    family: str = ""
    tier: int = 0

    @property
    def pin_id(self) -> str:
        return request_pin_id(self.kind, self.shape, self.k, self.l, self.seed,
                              self.tokens)

    def request(self):
        """The :class:`repro.api.SolveRequest` the program receives."""
        from repro.api import SolveRequest

        return SolveRequest(kind=self.kind, shape=self.shape, k=self.k, l=self.l,
                            seed=self.seed, tokens=self.tokens, backend=self.backend)


# ----------------------------------------------------------------------
# solve_ladder
# ----------------------------------------------------------------------
def ladder_cells(quick: bool = False) -> Dict[tuple, List[Op]]:
    """(family, tier, k, l) -> the (backend-free) requests of that cell."""
    return {
        (family, tier, k, l): [
            Op("solve", FAMILIES[family][tier].format(s=shape_seed), k, l, seed,
               family=family, tier=tier)
            for shape_seed, seed in pairs
        ]
        for (family, tier, k, l), pairs in LADDER_CELLS.items()
        if not quick or tier == QUICK_TIER
    }


def ladder_pool() -> List[Op]:
    """Every (backend-free) request any seed may put on the ladder."""
    return [op for cell in ladder_cells().values() for op in cell]


def ladder_ops(seed: int, quick: bool = False) -> List[Op]:
    """One pass of the ladder: every rung once on each backend."""
    rng = random.Random(f"ladder:{seed}")
    ops = []
    for cell in ladder_cells(quick).values():
        pick = rng.choice(cell)
        ops += [replace(pick, backend=backend) for backend in BACKENDS]
    return ops


# ----------------------------------------------------------------------
# daemon_mix
# ----------------------------------------------------------------------
def warm_cells() -> Dict[tuple, List[Op]]:
    """(kind, n) -> candidates for the pre-solved (warm) key set."""
    return {
        (kind, n): [Op(kind, f"random:{n}:{s}", 1, 5, seed,
                       tokens=ROUTE_TOKENS if kind == "route" else 0)
                    for s, seed in pairs]
        for (kind, n), pairs in WARM_CELLS.items()
    }


def cold_cells() -> Dict[int, List[Op]]:
    """n -> fresh-seed solves the mix draws (without replacement) as cold work."""
    return {n: [Op("solve", f"random:{n}:{s}", 1, 5, seed) for s, seed in pairs]
            for n, pairs in COLD_CELLS.items()}


def warm_pool() -> List[Op]:
    return [op for cell in warm_cells().values() for op in cell]


def cold_pool() -> List[Op]:
    return [op for cell in cold_cells().values() for op in cell]


@dataclass
class MixPlan:
    """The warm key set plus, per pass, the segments both clients walk.

    Each pass is served by a fresh daemon, so its cold keys are cold
    again; ``passes[p][i][c]`` is client ``c``'s closed-loop op list in
    segment ``i`` of pass ``p``.  A segment is all warm or all cold, so
    a warm hit never shares the interpreter lock with a cold solve of
    the other client: mixed, warm latency measured lock hand-off timing
    (its median moved 2.3-5.5 ms between seeds) instead of HTTP, jobs
    and the store.
    ``daemon.run`` runs the clients of a cold segment concurrently and
    those of a warm segment in turn.
    """

    warm: List[Op]
    passes: List[List[List[List[Op]]]]


def daemon_mix(seed: int, ops_per_client: int, passes: int,
               clients: int = 2) -> MixPlan:
    """About 90% warm repeats of a pre-solved set, 10% fresh cold solves.

    Both classes are stratified over size and every client gets exactly
    the same number of cold ops, so seeds change instances and order
    but not the amount of work.  Every pass serves the same cold keys
    (``ops_per_client`` ops per client in all) in its own seeded order.
    """
    rng = random.Random(f"mix:{seed}")
    warm: List[Op] = []
    for (kind, _), cell in warm_cells().items():
        warm += rng.sample(cell, WARM_PER_CELL[kind])
    cold_segments = max(1, round(ops_per_client * COLD_FRACTION / COLD_SEGMENT_OPS))
    cold_total = clients * cold_segments * COLD_SEGMENT_OPS
    per_size = -(-cold_total // len(COLD_CELLS))
    cells = []
    for n, cell in cold_cells().items():
        if per_size > len(cell):
            raise ValueError(f"daemon_mix needs {per_size} fresh cold keys of size "
                             f"{n} but lists {len(cell)}; use fewer --seconds")
        cells.append(rng.sample(cell, len(cell)))
    keys = [cells[i % len(cells)].pop() for i in range(cold_total)]
    return MixPlan(warm=warm, passes=[
        _mix_segments(rng, warm, keys, ops_per_client, cold_segments, clients)
        for _ in range(passes)])


def _mix_segments(rng, warm, keys, ops_per_client, cold_segments, clients):
    draws = rng.sample(keys, len(keys))
    warm_ops = ops_per_client - cold_segments * COLD_SEGMENT_OPS
    kinds = ["cold"] * cold_segments + ["warm"] * -(-warm_ops // WARM_SEGMENT_OPS)
    rng.shuffle(kinds)
    segments = []
    for kind in kinds:
        if kind == "cold":
            segments.append([[draws.pop() for _ in range(COLD_SEGMENT_OPS)]
                             for _ in range(clients)])
        else:
            size = min(WARM_SEGMENT_OPS, warm_ops)
            warm_ops -= size
            segments.append([[rng.choice(warm) for _ in range(size)]
                             for _ in range(clients)])
    return segments


# ----------------------------------------------------------------------
# churn_campaign
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChurnTrial:
    """One campaign trial as the benchmark describes it."""

    churn: str
    shape: str
    k: int
    l: int
    seed: int
    placement: str
    steps: int
    batch: int

    @property
    def pin_id(self) -> str:
        return trial_pin_id(self.churn, self.shape, self.k, self.l, self.seed,
                            self.placement, self.steps, self.batch)


def churn_cells(quick: bool = False) -> Dict[tuple, List[ChurnTrial]]:
    """(churn kind, n) -> the trials of that cell."""
    return {
        (churn, n): [ChurnTrial(churn, f"random:{n}:{s}", *CHURN_KINDS[churn][:2], seed,
                                *CHURN_KINDS[churn][2:])
                     for s, seed in pairs]
        for (churn, n), pairs in CHURN_CELLS.items()
        if not quick or (churn, n) == QUICK_CHURN_CELL
    }


def churn_pool() -> List[ChurnTrial]:
    """Every trial any seed may put into the campaign."""
    return [t for cell in churn_cells().values() for t in cell]


def churn_campaign(seed: int, quick: bool = False):
    """The seeded churn grid as a :class:`repro.experiments.CampaignSpec`.

    One single-trial scenario per pick, so every (churn, size) cell
    draws its own shape seeds and trial seeds.
    """
    from repro.experiments import CampaignSpec, ScenarioSpec

    rng = random.Random(f"churn:{seed}")
    scenarios = []
    for (churn, n), cell in churn_cells(quick).items():
        for i, t in enumerate(rng.sample(cell, TRIALS_PER_CELL)):
            scenarios.append(ScenarioSpec(
                name=f"churn-{churn}-{n}-{i}", shape=t.shape, ks=(t.k,), ls=(t.l,),
                seeds=(t.seed,), placement=t.placement, churn=churn,
                churn_steps=t.steps, churn_batch=t.batch,
            ))
    return CampaignSpec(name=f"perfbench-churn-{seed}",
                        description="perfbench churn_campaign workload",
                        scenarios=tuple(scenarios))


def trial_of(spec) -> ChurnTrial:
    """The benchmark's description of a :class:`TrialSpec` (pin lookup)."""
    return ChurnTrial(spec.churn, spec.shape, spec.k, spec.l, spec.seed,
                      spec.placement, spec.churn_steps, spec.churn_batch)
