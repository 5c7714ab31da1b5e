"""The merging algorithm (Section 5.2, Lemma 42).

Given an S1-forest and an S2-forest over the same member set, PASC on
each forest's trees computes ``dist(S1, u)`` and ``dist(S2, u)`` for
every amoebot ``u`` (tree depth = source distance, Corollary 5); each
amoebot then keeps the parent from the forest whose sources are closer
(Lemma 41 shows that parent is feasible for ``S1 ∪ S2``).  All tree PASC
executions run in parallel: ``O(log n)`` rounds.
"""

from __future__ import annotations

from typing import Dict, List

from repro.pasc.runner import run_pasc
from repro.pasc.chain import PascRun
from repro.sim.engine import CircuitEngine
from repro.spf.types import Forest

_FOREST1_CHANNELS = (0, 1)
_FOREST2_CHANNELS = (2, 3)


def forest_distances(
    engine: CircuitEngine,
    forest: Forest,
    channels=(0, 1),
    tag: str = "fd",
    section: str = "forest_distances",
) -> Dict[int, int]:
    """``dist(S, u)`` for every member id via parallel tree PASC runs."""
    runs = _forest_runs(forest, channels, tag)
    if runs:
        run_pasc(engine, runs, section=section)
    return _collect(runs)


def _forest_runs(forest: Forest, channels, tag: str) -> List[PascRun]:
    """One tree run per source, over the forest's id parents."""
    index = forest.index
    nodes = index.nodes
    return [
        PascRun.tree(index, s, tree, channels, tag=f"{tag}:{nodes[s].x}:{nodes[s].y}")
        for s, tree in forest.trees().items()
    ]


def _collect(runs: List[PascRun]) -> Dict[int, int]:
    """Every unit's depth, keyed by its node id (one unit per amoebot)."""
    dist: Dict[int, int] = {}
    for run in runs:
        dist.update(zip(run.nids, run.values()))
    return dist


def merge_forests(
    engine: CircuitEngine,
    forest1: Forest,
    forest2: Forest,
    section: str = "merge",
) -> Forest:
    """Merge two forests over the same members (Lemma 42).

    Every amoebot closer to ``S1`` keeps its ``forest1`` parent, every
    amoebot closer to ``S2`` its ``forest2`` parent (ties favor
    ``forest1`` — both are feasible by Lemma 41).
    """
    if forest1.index is not forest2.index or forest1.member_ids() != forest2.member_ids():
        raise ValueError("merging requires identical member sets")

    with engine.rounds.section(section):
        runs1 = _forest_runs(forest1, _FOREST1_CHANNELS, "m1")
        runs2 = _forest_runs(forest2, _FOREST2_CHANNELS, "m2")
        run_pasc(engine, runs1 + runs2, section=f"{section}:pasc")
        dist1 = _collect(runs1)
        dist2 = _collect(runs2)
        engine.charge_local_round()  # the local parent comparison

    sources = set(forest1.source_ids).union(forest2.source_ids)
    parent1, parent2 = forest1.parent_ids, forest2.parent_ids
    parent: Dict[int, int] = {}
    for u, p in parent1.items():
        if u in sources:
            continue
        parent[u] = p if dist1[u] <= dist2[u] else parent2[u]
    return Forest(forest1.index, sources, parent)
