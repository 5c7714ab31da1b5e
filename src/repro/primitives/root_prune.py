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
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.grid.coords import Node
from repro.ett.technique import ETTOp, ETTResult, mark_one_outgoing_edge
from repro.ett.tour import EulerTour
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

    ``q_ids`` are the node ids (of the tour's index) of ``Q``, or of
    the representatives of ``Q``'s units.  Several ops on edge-disjoint
    trees can share their rounds by passing their ``ett_op.chain``
    objects to one :func:`run_pasc` call; the decomposition primitive
    relies on this.
    """

    def __init__(self, tour: EulerTour, q_ids: Iterable[int], tag: str = "rp"):
        self.tour = tour
        self.q_ids = set(q_ids)
        unknown = self.q_ids.difference(tour.masks)
        if unknown:
            raise ValueError(f"Q contains non-tree node ids: {sorted(unknown)[:3]}")
        marked = mark_one_outgoing_edge(tour, self.q_ids)
        self.ett_op = ETTOp(tour, marked, tag=tag)

    def result(self) -> RootPruneResult:
        """Decode V_Q, parents, and degrees once the ETT has finished."""
        return decode_root_prune(NodeScope(self.tour.index, self.tour.masks), self)


def unit_differences(
    unit_index: Mapping[int, int], tour: EulerTour, inclusive: Sequence[int]
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Per unit number, its nonzero prefix differences and its parent.

    Every tour edge joining two units carries the units' prefix
    difference ``inclusive[i] - inclusive[twin[i]]``; a unit's nonzero
    differences are its ``T_Q``-degree and its unique positive one
    points at its parent (Corollary 18, Lemma 19).  Returns
    ``(degree, parent)``, both keyed by unit number.
    """
    nbr = tour.index.nbr
    twin = tour.twin
    degree: Dict[int, int] = {}
    parent: Dict[int, int] = {}
    for i, e in enumerate(tour.edge_ids):
        d = inclusive[i] - inclusive[twin[i]]
        if not d:
            continue
        u = unit_index[e // 6]
        v = unit_index[nbr[e]]
        if u == v:
            continue
        degree[u] = degree.get(u, 0) + 1
        if d > 0:
            if u in parent:
                raise AssertionError(
                    f"unit {u} sees several positive differences; "
                    "ETT prefix sums are inconsistent"
                )
            parent[u] = v
    return degree, parent


def decode_root_prune(scope, op: RootPruneOp) -> RootPruneResult:
    """Decode a finished root-and-prune ETT on the units of a tree scope.

    ``op`` ran on ``scope``'s tour with the representatives of ``Q``
    marked; every unit decides from its differences to its neighbors.
    """
    ett = op.ett_op.result()
    tour = op.tour
    units = scope.unit_objects
    root = scope.unit_index[tour.root_id]
    # A single-node tree has no tour: its root reads |Q| locally.
    q_size = ett.total if tour.length else len(op.q_ids)
    degree, parent = unit_differences(scope.unit_index, tour, ett.inclusive)
    in_vq: Set = set()
    parent_of: Dict = {}
    degree_q: Dict = {}
    for u, count in degree.items():
        if u == root:
            continue
        if u not in parent:
            raise AssertionError(
                f"node {units[u]} sees no positive difference; ETT prefix sums are inconsistent"
            )
        unit = units[u]
        in_vq.add(unit)
        degree_q[unit] = count
        parent_of[unit] = units[parent[u]]
    if q_size > 0:
        in_vq.add(units[root])
        degree_q[units[root]] = degree.get(root, 0)
    augmentation = {u for u, deg in degree_q.items() if deg >= 3}
    return RootPruneResult(
        root=units[root],
        in_vq=in_vq,
        parent=parent_of,
        degree_q=degree_q,
        augmentation=augmentation,
        q_size=q_size,
        ett=ett,
    )


def root_and_prune(
    engine: CircuitEngine,
    root: Node,
    adjacency: Dict[Node, List[Node]],
    q_nodes: Iterable[Node],
    tag: str = "rp",
    section: str = "root_prune",
) -> RootPruneResult:
    """Convenience wrapper: build the tour, run the ETT, decode.

    ``adjacency`` is the tree in rotation order (see
    :func:`repro.ett.tour.adjacency_from_edges`).
    """
    scope = NodeScope.from_adjacency(engine.structure.grid_index(), adjacency)
    return root_and_prune_scope(engine, scope, root, q_nodes, tag, section)


def root_and_prune_scope(
    engine: CircuitEngine,
    scope: NodeScope,
    root: Node,
    q_nodes: Iterable[Node],
    tag: str = "rp",
    section: str = "root_prune",
) -> RootPruneResult:
    """:func:`root_and_prune` on a tree given as a :class:`NodeScope`."""
    op = RootPruneOp(scope.tour(root), scope.representative_ids(q_nodes), tag=tag)
    if op.ett_op.chain is not None:
        run_pasc(engine, [op.ett_op.chain], section=section)
    return decode_root_prune(scope, op)
