"""Classic Euler-tour tree functions (Tarjan & Vishkin [28]).

Section 3.1 notes that the ETT "allows the computation of various tree
functions, e.g., computing a rooted version of a tree, a pre- and
postorder numbering of the nodes, the number of descendants of each
node, the level of each node, and the centroid(s)".  The paper only
needs the ``w_Q`` instances; this module provides the remaining
functions on the same strict machinery:

* :func:`descendant_counts` — one ETT with weight ``w_V`` (every node
  marks one out-edge): the subtree count of Lemma 17 with ``Q = V``.
* :func:`preorder_numbers` / :func:`postorder_numbers` — one ETT each:
  a node's preorder number is the number of first occurrences before
  its own first occurrence, i.e. the exclusive prefix sum read at that
  instance; postorder uses last occurrences.
* :func:`node_levels` — tree PASC (Corollary 5) over the tour's tree,
  its units read straight off the tour.

Each costs ``O(log n)`` rounds.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ett.technique import ETTOp
from repro.ett.tour import EulerTour
from repro.grid.coords import Node
from repro.pasc.runner import run_pasc
from repro.pasc.chain import PascRun
from repro.sim.engine import CircuitEngine


def descendant_counts(
    engine: CircuitEngine, tour: EulerTour, section: str = "ett_descendants"
) -> Dict[Node, int]:
    """Number of descendants (including itself) of every node.

    One ETT execution with ``Q = V``: the subtree count across the
    parent edge (Lemma 17 with full weights); the root reads ``n``.
    """
    if not tour.length:
        return {tour.root: 1}
    op = ETTOp(tour, tour.first_positions(), tag="desc")
    run_pasc(engine, [op.chain], section=section)
    result = op.result()

    nodes = tour.index.nodes
    nbr = tour.index.nbr
    counts: Dict[Node, int] = {tour.root: result.total}
    for i, e in enumerate(tour.edge_ids):
        if tour.twin[i] > i:  # e enters the child nbr[e] from its parent
            counts[nodes[nbr[e]]] = -result.diff_at(i)
    return counts


def preorder_numbers(
    engine: CircuitEngine, tour: EulerTour, section: str = "ett_preorder"
) -> Dict[Node, int]:
    """0-based preorder numbers with respect to the tour's rotation.

    Each node marks its *first* outgoing tour edge; the exclusive
    prefix sum at that instance counts the nodes first-visited earlier.
    """
    if not tour.length:
        return {tour.root: 0}
    first = tour.first_positions()
    op = ETTOp(tour, first, tag="pre")
    run_pasc(engine, [op.chain], section=section)
    values = op.chain.values()
    nodes = tour.index.nodes
    return {nodes[tour.edge_ids[i] // 6]: values[i] for i in first}


def postorder_numbers(
    engine: CircuitEngine, tour: EulerTour, section: str = "ett_postorder"
) -> Dict[Node, int]:
    """0-based postorder numbers with respect to the tour's rotation.

    Each non-root node marks its *last* outgoing tour edge — the one
    back to its parent: the tour leaves a node for good exactly when its
    subtree is complete, so the count of earlier last-departures is the
    postorder number.  The root, which has no departure after its last
    child, takes number ``n - 1``.
    """
    if not tour.length:
        return {tour.root: 0}
    twin = tour.twin
    last = [i for i in range(tour.length) if twin[i] < i]
    op = ETTOp(tour, last, tag="post")
    run_pasc(engine, [op.chain], section=section)
    inclusive = op.chain.inclusive_values()
    nodes = tour.index.nodes
    numbers = {nodes[tour.edge_ids[i] // 6]: inclusive[i] - 1 for i in last}
    numbers[tour.root] = len(tour.masks) - 1
    return numbers


def node_levels(
    engine: CircuitEngine, tour: EulerTour, section: str = "ett_levels"
) -> Dict[Node, int]:
    """Depth of every node below the tour root (Corollary 5).

    One unit per node, in the tour's preorder: every edge that enters a
    child for the first time is that child's parent link.
    """
    nbr = tour.index.nbr
    unit_of = {tour.root_id: 0}
    nids = [tour.root_id]
    links: List[int] = []
    parents: List[int] = []
    for i, e in enumerate(tour.edge_ids):
        if tour.twin[i] > i:
            parents.append(unit_of[e // 6])
            unit_of[nbr[e]] = len(nids)
            nids.append(nbr[e])
            links.append(e)
    run = PascRun(tour.index, nids, links, tag="lvl", parents=parents)
    run_pasc(engine, [run], section=section)
    return run.node_values()
