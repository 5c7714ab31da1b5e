"""The Q-centroid primitive (Section 3.4, Lemma 23).

A node ``u \\in Q`` is a *Q-centroid* iff removing it splits the tree
into components each containing at most ``|Q| / 2`` nodes of ``Q``.
Construction: one root-and-prune pass determines parents (first ETT), a
second ETT pass with the same weights lets every node compute, per
neighbor ``v``, the number of ``Q``-nodes in ``v``'s component after
``u``'s removal (Corollary 22):

* ``|Q| - (prefixsum(u,v) - prefixsum(v,u))`` when ``v`` is the parent,
* ``prefixsum(v,u) - prefixsum(u,v)`` when ``v`` is a child,

while the root broadcasts the bits of ``|Q|``.  Costs ``O(log |Q|)``
rounds.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.grid.coords import Node
from repro.ett.technique import ETTOp
from repro.ett.tour import EulerTour
from repro.pasc.runner import run_pasc
from repro.primitives.root_prune import RootPruneOp, unit_differences
from repro.primitives.scope import NodeScope
from repro.sim.engine import CircuitEngine


class CentroidOp:
    """A centroid computation exposable to the parallel runner.

    ``q_ids`` are node ids of ``Q`` (or of its units' representatives).
    Phases (both feed the shared PASC rounds when batched):

    1. :attr:`phase1` — the root-and-prune ETT (parents).
    2. :attr:`phase2` — the second ETT (component sizes + |Q| broadcast;
       the broadcast shares phase 2's iterations, costing no extra
       rounds, as in the paper).

    Call :meth:`prepare_phase2` between the phases and
    :meth:`centroids` at the end.
    """

    def __init__(self, tour: EulerTour, q_ids: Iterable[int], tag: str = "cen"):
        self.tour = tour
        self.q_ids = set(q_ids)
        if not self.q_ids:
            raise ValueError("Q must be non-empty for the centroid primitive")
        self.tag = tag
        self.phase1 = RootPruneOp(tour, self.q_ids, tag=f"{tag}1")
        self.phase2: ETTOp | None = None

    def prepare_phase2(self) -> None:
        """Build the second ETT, with the first one's weights."""
        self.phase2 = ETTOp(self.tour, self.phase1.ett_op.marked, tag=f"{self.tag}2")

    def centroids(self) -> Set[Node]:
        """The Q-centroids, from both phases' prefix sums."""
        nodes = self.tour.index.nodes
        scope = NodeScope(self.tour.index, self.tour.masks)
        return decode_centroids(scope, self, {nodes[n] for n in self.q_ids})


def decode_centroids(scope, op: CentroidOp, q_units: Set) -> Set:
    """Decode finished centroid ETTs on the units of a tree scope.

    ``op`` ran on ``scope``'s tour with the representatives of
    ``q_units`` marked; each unit of ``Q`` reads its neighbors'
    component sizes from its prefix differences (Corollary 22).
    """
    if op.phase2 is None:
        raise RuntimeError("run both phases before reading centroids")
    tour = op.tour
    if not tour.length:
        # Single-node tree: the node is trivially the centroid.
        return set(q_units)
    unit_index = scope.unit_index
    phase1 = op.phase1.ett_op.result()
    _degree, parent = unit_differences(unit_index, tour, phase1.inclusive)
    q_size = phase1.total
    q = {unit_index[nid] for nid in op.q_ids}
    inclusive = op.phase2.result().inclusive
    twin = tour.twin
    nbr = tour.index.nbr
    heavy: Set[int] = set()
    for i, e in enumerate(tour.edge_ids):
        u = unit_index[e // 6]
        if u not in q:
            continue
        v = unit_index[nbr[e]]
        if u == v:
            continue
        # The component behind v: everything but u's subtree when v is
        # u's parent, v's subtree otherwise.
        d = inclusive[i] - inclusive[twin[i]]
        size = q_size - d if parent.get(u) == v else -d
        if 2 * size > q_size:
            heavy.add(u)
    units = scope.unit_objects
    return {units[u] for u in q if u not in heavy}


def q_centroids(
    engine: CircuitEngine,
    root: Node,
    adjacency: Dict[Node, List[Node]],
    q_nodes: Iterable[Node],
    section: str = "centroid",
) -> Set[Node]:
    """Compute the Q-centroid(s) of a tree; ``O(log |Q|)`` rounds."""
    scope = NodeScope.from_adjacency(engine.structure.grid_index(), adjacency)
    op = CentroidOp(scope.tour(root), scope.representative_ids(q_nodes))
    run_centroid_phases(engine, [op], (section, section))
    return op.centroids()


def run_centroid_phases(
    engine: CircuitEngine, ops: Sequence[CentroidOp], sections: Tuple[str, str]
) -> None:
    """Run the ETTs of centroid ops on node-disjoint trees in shared rounds.

    Each phase's ETTs share one PASC execution, charged to that phase's
    section; decode each op afterwards.
    """
    chains = [op.phase1.ett_op.chain for op in ops if op.phase1.ett_op.chain]
    if chains:
        run_pasc(engine, chains, section=sections[0])
    for op in ops:
        op.prepare_phase2()
    chains = [op.phase2.chain for op in ops if op.phase2.chain]
    if chains:
        run_pasc(engine, chains, section=sections[1])


def brute_force_q_centroids(
    adjacency: Dict[Node, List[Node]], q_nodes: Iterable[Node]
) -> Set[Node]:
    """Reference implementation by explicit component counting (tests)."""
    q_set = set(q_nodes)
    q_size = len(q_set)
    result: Set[Node] = set()
    for u in q_set:
        worst = 0
        removed = {u}
        for v in adjacency[u]:
            # Flood the component of v in T - u.
            seen = {v}
            stack = [v]
            while stack:
                w = stack.pop()
                for x in adjacency[w]:
                    if x not in seen and x not in removed:
                        seen.add(x)
                        stack.append(x)
            worst = max(worst, len(seen & q_set))
        if 2 * worst <= q_size:
            result.add(u)
    return result
