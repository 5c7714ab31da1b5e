"""Naive sequential multi-source algorithm (top of Section 5).

Compute an ``{s}``-shortest path forest for one source at a time with
the Section 4 tree algorithm and fold it into the accumulated forest
with the merging algorithm: ``O(k log n)`` rounds.  This is the
baseline the divide & conquer approach improves to
``O(log n log² k)``; the ablation bench compares the two directly.
"""

from __future__ import annotations

from typing import Iterable

from repro.grid.coords import Node
from repro.grid.structure import AmoebotStructure
from repro.sim.engine import CircuitEngine
from repro.spf.merge import merge_forests
from repro.spf.spt import shortest_path_tree
from repro.spf.types import Forest


def sequential_merge_forest(
    engine: CircuitEngine,
    structure: AmoebotStructure,
    sources: Iterable[Node],
    section: str = "sequential_merge",
) -> Forest:
    """S-shortest path forest by k sequential SPT + merge steps."""
    source_list = list(dict.fromkeys(sources))
    if not source_list:
        raise ValueError("need at least one source")

    all_nodes = set(structure.nodes)
    accumulated: Forest | None = None
    with engine.rounds.section(section):
        for source in source_list:
            single = shortest_path_tree(
                engine,
                structure,
                source,
                all_nodes,
                section=f"{section}:spt",
            ).forest
            if accumulated is None:
                accumulated = single
            else:
                accumulated = merge_forests(
                    engine, accumulated, single, section=f"{section}:merge"
                )
    assert accumulated is not None
    return accumulated
