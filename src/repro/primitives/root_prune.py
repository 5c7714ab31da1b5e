"""The root and prune primitive (Section 3.2).

One ETT execution with the weight function :math:`w_Q`.  From the prefix
sum differences every amoebot decides locally (Corollary 18, Lemma 19):

* ``u \\in V_Q`` iff some neighbor difference is non-zero (the root
  instead checks ``|Q| > 0``, which it reads as the tour total);
* the parent of ``u \\in V_Q \\setminus \\{r\\}`` is the unique neighbor
  ``v`` with ``prefixsum(u,v) - prefixsum(v,u) > 0``;
* the degree of ``u`` in the pruned tree ``T_Q`` is the number of
  neighbors with non-zero difference, giving the augmentation set
  ``A_Q = \\{u : deg_Q(u) \\ge 3\\}`` (Lemma 26).

Costs ``O(log |Q|)`` rounds (Lemma 20).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Set

from repro.grid.coords import Node
from repro.ett.technique import ETTOp, ETTResult, mark_one_outgoing_edge
from repro.ett.tour import EulerTour, build_euler_tour
from repro.pasc.runner import run_pasc
from repro.primitives.scope import NodeScope
from repro.sim.engine import CircuitEngine


@dataclass
class RootPruneResult:
    """Everything the root and prune primitive reveals.

    Its units are nodes, or portals for the portal primitive (Lemma 33);
    the attributes below say "node" for either.

    Attributes
    ----------
    root:
        The node the tree was rooted at.
    in_vq:
        ``V_Q``: nodes whose subtree (w.r.t. the root) contains a node of
        ``Q`` — the nodes that survive pruning.
    parent:
        Parent pointers for every node of ``V_Q`` except the root.
    degree_q:
        Degree within the pruned tree ``T_Q`` for every node of ``V_Q``.
    augmentation:
        ``A_Q``: the ``V_Q``-nodes of ``T_Q``-degree at least three.
    q_size:
        ``|Q|`` (read by the root as the tour total, Corollary 15).
    ett:
        The underlying prefix sums (reused by callers such as the
        centroid primitive).
    """

    root: Node
    in_vq: Set[Node]
    parent: Dict[Node, Node]
    degree_q: Dict[Node, int]
    augmentation: Set[Node]
    q_size: int
    ett: ETTResult

    def children(self) -> Dict[Node, list]:
        """Child lists of the pruned tree ``T_Q``."""
        result: Dict[Node, list] = {u: [] for u in self.in_vq}
        for child, par in self.parent.items():
            result[par].append(child)
        return result


class RootPruneOp:
    """A root-and-prune execution exposable to the parallel runner.

    Several ops on edge-disjoint trees can share their rounds by passing
    their ``ett_op.chain`` objects to one :func:`run_pasc` call; the
    decomposition primitive relies on this.
    """

    def __init__(self, tour: EulerTour, q_nodes: Iterable[Node], tag: str = "rp"):
        self.tour = tour
        self.q_nodes = set(q_nodes)
        unknown = self.q_nodes.difference(tour.adjacency)
        if unknown:
            raise ValueError(f"Q contains non-tree nodes: {sorted(unknown)[:3]}")
        marked = mark_one_outgoing_edge(tour, self.q_nodes)
        self.ett_op = ETTOp(tour, marked, tag=tag)

    def result(self) -> RootPruneResult:
        """Decode V_Q, parents, and degrees once the ETT has finished."""
        return decode_root_prune(NodeScope(self.tour.adjacency), self)


def decode_root_prune(scope, op: RootPruneOp) -> RootPruneResult:
    """Decode a finished root-and-prune ETT on the units of a tree scope.

    ``op`` ran on ``scope``'s tour with the representatives of ``Q``
    marked; every unit decides from its :meth:`diff` to each neighbor.
    """
    ett = op.ett_op.result()
    root = scope.unit_of(op.tour.root)
    # A single-node tree has no tour: its root reads |Q| locally.
    q_size = ett.total if op.tour.edges else len(op.q_nodes)
    diff = scope.diff(ett)
    in_vq: Set = set()
    parent: Dict = {}
    degree_q: Dict = {}
    for u in scope.units:
        diffs = {v: diff(u, v) for v in scope.unit_adjacency[u]}
        nonzero = [v for v, d in diffs.items() if d != 0]
        if u == root:
            if q_size > 0:
                in_vq.add(u)
                degree_q[u] = len(nonzero)
        elif nonzero:
            in_vq.add(u)
            degree_q[u] = len(nonzero)
            parents = [v for v, d in diffs.items() if d > 0]
            if len(parents) != 1:
                raise AssertionError(
                    f"node {u} sees {len(parents)} positive differences; "
                    "ETT prefix sums are inconsistent"
                )
            parent[u] = parents[0]
    augmentation = {u for u, deg in degree_q.items() if deg >= 3}
    return RootPruneResult(
        root=root,
        in_vq=in_vq,
        parent=parent,
        degree_q=degree_q,
        augmentation=augmentation,
        q_size=q_size,
        ett=ett,
    )


def root_and_prune(
    engine: CircuitEngine,
    root: Node,
    adjacency: Dict[Node, list],
    q_nodes: Iterable[Node],
    tag: str = "rp",
    section: str = "root_prune",
) -> RootPruneResult:
    """Convenience wrapper: build the tour, run the ETT, decode.

    ``adjacency`` is the tree in rotation order (see
    :func:`repro.ett.tour.adjacency_from_edges`).
    """
    tour = build_euler_tour(root, adjacency)
    op = RootPruneOp(tour, q_nodes, tag=tag)
    if op.ett_op.chain is not None:
        run_pasc(engine, [op.ett_op.chain], section=section)
    return op.result()
