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

from repro.grid.coords import Node
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
) -> Dict[Node, int]:
    """``dist(S, u)`` for every member via parallel tree PASC runs."""
    runs = _forest_runs(engine, forest, channels, tag)
    if runs:
        run_pasc(engine, runs, section=section)
    return _collect(runs, forest)


def _forest_runs(engine: CircuitEngine, forest: Forest, channels, tag: str) -> List[PascRun]:
    """One tree run per source, its tree converted to ids once."""
    index = engine.structure.grid_index()
    return [
        PascRun.tree(index, source, parent_map, channels, tag=f"{tag}:{source.x}:{source.y}")
        for source, parent_map in forest.tree_parent_maps().items()
    ]


def _collect(runs: List[PascRun], forest: Forest) -> Dict[Node, int]:
    dist: Dict[Node, int] = {}
    for run in runs:
        dist.update(run.node_values())
    missing = forest.members - set(dist)
    if missing:
        raise AssertionError(f"forest distance missing for {sorted(missing)[:3]}")
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
    if forest1.members != forest2.members:
        raise ValueError("merging requires identical member sets")

    with engine.rounds.section(section):
        runs1 = _forest_runs(engine, forest1, _FOREST1_CHANNELS, "m1")
        runs2 = _forest_runs(engine, forest2, _FOREST2_CHANNELS, "m2")
        if runs1 or runs2:
            run_pasc(engine, runs1 + runs2, section=f"{section}:pasc")
        dist1 = _collect(runs1, forest1)
        dist2 = _collect(runs2, forest2)
        engine.charge_local_round()  # the local parent comparison

    sources = forest1.sources | forest2.sources
    parent: Dict[Node, Node] = {}
    for u in forest1.members:
        if u in sources:
            continue
        if dist1[u] <= dist2[u]:
            parent[u] = forest1.parent[u]
        else:
            parent[u] = forest2.parent[u]
    return Forest(sources=sources, parent=parent, members=set(forest1.members))
