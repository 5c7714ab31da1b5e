"""Running PASC over an Euler tour (Lemma 14).

Channel discipline: each undirected tree edge carries both directions of
the tour.  Directed edges pointing E/NE/NW use channels (0, 1) for their
primary/secondary wires, the opposite directions use (2, 3), so the two
traversals of one physical edge never collide.  Together with the
reserved termination channel this needs 5 of the engine's channels; the
paper's Remark 16 similarly charges O(1) links per edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.grid.coords import Node
from repro.grid.directions import Direction
from repro.ett.tour import DirectedEdge, EulerTour
from repro.pasc.chain import ChainLink, PascChainRun
from repro.pasc.runner import PascResult, run_pasc
from repro.sim.engine import CircuitEngine

def _channels_for(direction: Direction) -> Tuple[int, int]:
    # E, NE and NW are the direction values 0-2.
    return (0, 1) if direction < 3 else (2, 3)


def tour_links(tour: EulerTour) -> List[ChainLink]:
    """Chain links joining consecutive tour instances."""
    links = []
    for u, v in tour.edges:
        d = u.direction_to(v)
        pch, sch = _channels_for(d)
        links.append(ChainLink(u, d, pch, sch))
    return links


@dataclass
class ETTResult:
    """Prefix sums and derived quantities of one ETT execution.

    ``prefix[(u, v)]`` is :math:`prefixsum_{(u,v)} = \\sum_{j \\le i} w(e_j)`
    where ``(u, v)`` is the ``i``-th tour edge.  Both endpoint amoebots of
    the edge can compute it bit by bit (Lemma 14), so exposing it per
    directed edge matches what the distributed amoebots know.
    """

    tour: EulerTour
    prefix: Dict[DirectedEdge, int]
    total: int

    def diff(self, u: Node, v: Node) -> int:
        """``prefixsum(u, v) - prefixsum(v, u)`` for tree neighbors."""
        return self.prefix[(u, v)] - self.prefix[(v, u)]

    def subtree_count(self, child: Node, parent: Node) -> int:
        """Number of marked nodes in ``child``'s subtree (Lemma 17.1/3).

        ``parent`` must be ``child``'s parent with respect to the tour
        root; the count is then ``diff(child, parent) >= 0``.
        """
        return self.diff(child, parent)


class ETTOp:
    """One ETT execution, exposable to the parallel PASC runner.

    Build the op, feed :attr:`chain` (if any) to
    :func:`~repro.pasc.runner.run_pasc` — possibly together with the
    chains of other simultaneously running ETTs on disjoint trees — then
    call :meth:`result` to obtain the prefix sums.
    """

    def __init__(self, tour: EulerTour, marked: Iterable[DirectedEdge], tag: str = "ett"):
        self.tour = tour
        self.marked = set(marked)
        unknown = self.marked.difference(tour.edges)
        if unknown:
            raise ValueError(f"marked edges not on the tour: {sorted(unknown)[:3]}")
        if tour.edges:
            weights = [1 if e in self.marked else 0 for e in tour.edges] + [0]
            self.chain: Optional[PascChainRun] = PascChainRun(
                tour.units, tour_links(tour), weights=weights, tag=tag
            )
        else:
            # Single-node tree: nothing to communicate; W = 0 by definition.
            self.chain = None

    def result(self) -> ETTResult:
        """Decode the prefix sums once the PASC run has finished."""
        if self.chain is None:
            return ETTResult(tour=self.tour, prefix={}, total=0)
        inclusive = self.chain.inclusive_values()
        prefix: Dict[DirectedEdge, int] = {}
        for i, edge in enumerate(self.tour.edges):
            # prefixsum(e_i) = exclusive(v_i) + w(v_i) = exclusive(v_{i+1});
            # the source amoebot computes the former, the target the latter.
            prefix[edge] = inclusive[self.tour.units[i]]
        total = self.chain.values()[self.tour.units[-1]]
        return ETTResult(tour=self.tour, prefix=prefix, total=total)


def run_ett(
    engine: CircuitEngine,
    tour: EulerTour,
    marked: Iterable[DirectedEdge],
    tag: str = "ett",
    section: str = "ett",
) -> Tuple[ETTResult, PascResult]:
    """Execute the ETT with weight 1 on each directed edge in ``marked``.

    Returns the prefix sums per directed edge and the PASC statistics.
    Costs ``O(log W)`` rounds where ``W = |marked|`` (Lemma 14).
    """
    op = ETTOp(tour, marked, tag=tag)
    if op.chain is None:
        return op.result(), PascResult(0, 0)
    stats = run_pasc(engine, [op.chain], section=section)
    return op.result(), stats


def run_etts_parallel(
    engine: CircuitEngine,
    ops: Sequence["ETTOp"],
    section: str = "ett",
) -> Tuple[List[ETTResult], PascResult]:
    """Run several ETTs on edge-disjoint trees in the same rounds."""
    chains = [op.chain for op in ops if op.chain is not None]
    if chains:
        stats = run_pasc(engine, chains, section=section)
    else:
        stats = PascResult(0, 0)
    return [op.result() for op in ops], stats


def mark_one_outgoing_edge(
    tour: EulerTour, members: Iterable[Node]
) -> Set[DirectedEdge]:
    """The weight function :math:`w_Q`: every node of ``Q`` marks exactly
    one of its outgoing tour edges (Section 3.1).

    We deterministically mark the out-edge of the node's *first*
    occurrence on the tour, which every amoebot identifies locally.
    """
    members_set = set(members)
    unknown = members_set.difference(tour.adjacency)
    if unknown:
        raise ValueError(f"members not on the tree: {sorted(unknown)[:3]}")
    marked: Set[DirectedEdge] = set()
    claimed: Set[Node] = set()
    for edge in tour.edges:
        u = edge[0]
        if u in members_set and u not in claimed:
            marked.add(edge)
            claimed.add(u)
    missing = members_set - claimed
    if missing:
        # Only possible for a single-node tour (no edges at all).
        if tour.edges:
            raise AssertionError(f"nodes without outgoing tour edge: {missing}")
    return marked
