"""Randomized hole-free structure generators.

Structures are grown node by node from a seed.  A candidate node may be
added only if its occupied neighbors form one non-empty *contiguous arc*
around it.  On the triangular grid this is the standard simple-point
criterion of digital topology: growing a simply connected set by such
nodes keeps it simply connected, so the result is hole-free by
construction (and re-validated by :class:`AmoebotStructure`).
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from itertools import accumulate, islice
from typing import List, Optional, Set

from repro.grid.coords import Node
from repro.grid.directions import all_directions_ccw
from repro.grid.structure import AmoebotStructure

#: Packed sort key for frontier candidates: order-isomorphic to the
#: ``(x, y)`` order of :class:`Node` for any ``|y| < 2^32`` (python
#: ints, so no overflow anywhere).  Sorting ints instead of dataclasses
#: is what keeps the frontier maintainable by bisection.
_KEY_BIAS = 1 << 32
_KEY_SHIFT = 1 << 33


def _node_key(v: Node) -> int:
    return (v.x + _KEY_BIAS) * _KEY_SHIFT + (v.y + _KEY_BIAS)


def _occupied_mask(nodes: Set[Node], candidate: Node) -> List[bool]:
    """Occupancy of the six neighbors of ``candidate``, ccw order."""
    return [candidate.neighbor(d) in nodes for d in all_directions_ccw()]


def _is_contiguous_arc(mask: List[bool]) -> bool:
    """Whether the true entries of a cyclic mask form one contiguous run."""
    if not any(mask):
        return False
    if all(mask):
        return True
    # Count cyclic False->True transitions; exactly one means one arc.
    transitions = sum(
        1 for i in range(6) if not mask[i - 1] and mask[i]
    )
    return transitions == 1


def addable_nodes(nodes: Set[Node]) -> Set[Node]:
    """All unoccupied nodes whose addition provably keeps the set hole-free."""
    frontier: Set[Node] = set()
    for u in nodes:
        for v in u.neighbors():
            if v not in nodes:
                frontier.add(v)
    return {v for v in frontier if _is_contiguous_arc(_occupied_mask(nodes, v))}


def random_hole_free(
    n: int,
    seed: Optional[int] = None,
    compactness: float = 0.5,
) -> AmoebotStructure:
    """Grow a random hole-free structure with ``n`` amoebots.

    Parameters
    ----------
    n:
        Number of amoebots (>= 1).
    seed:
        Seed for reproducibility.
    compactness:
        In ``[0, 1]``.  1 prefers candidates with many occupied neighbors
        (round blobs); 0 prefers few (dendritic, snake-like structures).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= compactness <= 1.0:
        raise ValueError("compactness must lie in [0, 1]")
    rng = random.Random(seed)
    origin = Node(0, 0)
    nodes: Set[Node] = {origin}
    # The addable frontier, maintained incrementally *and in sorted
    # order*: adding a node only changes the occupancy masks of its own
    # six neighbors, so each step touches at most seven cells of three
    # parallel arrays (packed sort key, node, draw weight) kept aligned
    # by bisection.  The cumulative weights of the draw are
    # kept between draws too and recomputed only from the first index a
    # step changed, still summed left to right, so they equal the full
    # recomputation bit for bit.  Membership, candidate order, and
    # weights match the historical sorted(dict) re-scan exactly, and
    # each draw consumes exactly one ``rng.random()`` just like
    # ``rng.choices(...)`` did, so any given seed grows bit for bit the
    # same structure every prior implementation grew.
    cand_keys: List[int] = []
    cand_nodes: List[Node] = []
    cand_weights: List[float] = []
    cum: List[float] = []
    #: The first candidate index whose weight or position changed since
    #: ``cum`` was last brought up to date.
    dirty = 0

    def refresh(v: Node) -> None:
        nonlocal dirty
        key = _node_key(v)
        idx = bisect_left(cand_keys, key)
        present = idx < len(cand_keys) and cand_keys[idx] == key
        if v in nodes:
            mask = None
        else:
            mask = _occupied_mask(nodes, v)
            if not _is_contiguous_arc(mask):
                mask = None
        if mask is None:
            if present:
                del cand_keys[idx]
                del cand_nodes[idx]
                del cand_weights[idx]
                dirty = min(dirty, idx)
            return
        count = sum(mask)
        weight = base + compactness * (count * count)
        if present:
            if cand_weights[idx] != weight:
                cand_weights[idx] = weight
                dirty = min(dirty, idx)
        else:
            cand_keys.insert(idx, key)
            cand_nodes.insert(idx, v)
            cand_weights.insert(idx, weight)
            dirty = min(dirty, idx)

    base = 1.0 - compactness
    for v in origin.neighbors():
        refresh(v)
    while len(nodes) < n:
        if not cand_keys:  # pragma: no cover - cannot happen on the grid
            raise RuntimeError("growth stalled")
        # One weighted draw, replicating random.choices(k=1) exactly:
        # cumulative weights, one random() draw, right-bisection bounded
        # to the last index.  (Adding the 0.0 start is exact.)
        del cum[dirty:]
        tail = accumulate(islice(cand_weights, dirty, None), initial=cum[-1] if cum else 0.0)
        next(tail)
        cum.extend(tail)
        dirty = len(cum)
        x = rng.random() * (cum[-1] + 0.0)
        idx = bisect_right(cum, x, 0, len(cum) - 1)
        chosen = cand_nodes[idx]
        nodes.add(chosen)
        refresh(chosen)
        for v in chosen.neighbors():
            refresh(v)
    return AmoebotStructure(nodes)


def random_tree_like(n: int, seed: Optional[int] = None) -> AmoebotStructure:
    """A thin, dendritic hole-free structure (low compactness growth)."""
    return random_hole_free(n, seed=seed, compactness=0.05)
