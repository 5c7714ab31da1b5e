"""Randomized hole-free structure generators.

Structures are grown node by node from a seed.  A candidate node may be
added only if its occupied neighbors form one non-empty *contiguous arc*
around it.  On the triangular grid this is the standard simple-point
criterion of digital topology: growing a simply connected set by such
nodes keeps it simply connected, so the result is hole-free by
construction (and :class:`AmoebotStructure` checks it once more, on its
grid index's neighbor table).
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from itertools import accumulate, islice
from typing import List, Optional

from repro.grid.coords import KEY_STEPS, key_node, node_key
from repro.grid.directions import RING_ARCS
from repro.grid.structure import AmoebotStructure


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
    base = 1.0 - compactness
    # Draw weight of an unoccupied candidate by its ring mask (bit d =
    # neighbor in direction d occupied); None unless the occupied
    # neighbors form one contiguous arc.
    weight_of = [
        base + compactness * bin(mask).count("1") ** 2 if RING_ARCS[mask] == 1 else None
        for mask in range(64)
    ]
    e, ne, nw, w, sw, se = KEY_STEPS
    origin = node_key((0, 0))
    # Growth runs on packed int keys (:func:`node_key`, which is also the
    # candidates' sort order); keys become nodes once, at the end.
    occupied = {origin}
    grown = [origin]
    # The addable frontier, maintained incrementally *and in sorted
    # order*: adding a node only changes the occupancy masks of its own
    # six neighbors, so each step touches at most seven cells of two
    # parallel arrays (packed sort key, draw weight) kept aligned by
    # bisection.  The cumulative weights of the draw are
    # kept between draws too and recomputed only from the first index a
    # step changed, still summed left to right, so they equal the full
    # recomputation bit for bit.  Membership, candidate order, and
    # weights match the historical sorted(dict) re-scan exactly, and
    # each draw consumes exactly one ``rng.random()`` just like
    # ``rng.choices(...)`` did, so any given seed grows bit for bit the
    # same structure every prior implementation grew.
    cand_keys: List[int] = []
    cand_weights: List[float] = []
    cum: List[float] = []
    #: The first candidate index whose weight or position changed since
    #: ``cum`` was last brought up to date.
    dirty = 0

    def refresh(k: int) -> None:
        nonlocal dirty
        idx = bisect_left(cand_keys, k)
        present = idx < len(cand_keys) and cand_keys[idx] == k
        if k in occupied:
            weight = None
        else:
            weight = weight_of[
                (k + e in occupied)
                | (k + ne in occupied) << 1
                | (k + nw in occupied) << 2
                | (k + w in occupied) << 3
                | (k + sw in occupied) << 4
                | (k + se in occupied) << 5
            ]
        if weight is None:
            if present:
                del cand_keys[idx]
                del cand_weights[idx]
                dirty = min(dirty, idx)
            return
        if present:
            if cand_weights[idx] != weight:
                cand_weights[idx] = weight
                dirty = min(dirty, idx)
        else:
            cand_keys.insert(idx, k)
            cand_weights.insert(idx, weight)
            dirty = min(dirty, idx)

    for step in KEY_STEPS:
        refresh(origin + step)
    while len(grown) < n:
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
        chosen = cand_keys[idx]
        occupied.add(chosen)
        grown.append(chosen)
        refresh(chosen)
        for step in KEY_STEPS:
            refresh(chosen + step)
    # Nodes enter the set in growth order: the set's iteration order, and
    # with it every tie-break downstream, depends on insertion order.
    return AmoebotStructure({key_node(k) for k in grown})


def random_tree_like(n: int, seed: Optional[int] = None) -> AmoebotStructure:
    """A thin, dendritic hole-free structure (low compactness growth)."""
    return random_hole_free(n, seed=seed, compactness=0.05)
