"""Running PASC over an Euler tour (Lemma 14).

Channel discipline: each undirected tree edge carries both directions of
the tour.  Directed edges pointing E/NE/NW use channels (0, 1) for their
primary/secondary wires, the opposite directions use (2, 3), so the two
traversals of one physical edge never collide.  Together with the
reserved termination channel this needs 5 of the engine's channels; the
paper's Remark 16 similarly charges O(1) links per edge.

Everything is tour positions and grid-index integers: the marked edges
of a weight function are tour positions, the ETT's chain is built from
the tour's edge ids, and :class:`ETTResult` keeps one prefix sum per
tour position, so a prefix difference across a tree edge is
``inclusive[i] - inclusive[twin[i]]``.  :attr:`ETTResult.prefix` and
:meth:`ETTResult.diff` are ``Node`` views for tests and observers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ett.tour import DirectedEdge, EulerTour
from repro.grid.coords import Node
from repro.pasc.chain import PascRun
from repro.pasc.runner import PascResult, run_pasc
from repro.sim.engine import CircuitEngine

#: ``(primary, secondary)`` channels of a tour link by its direction:
#: E, NE and NW (direction values 0-2) use (0, 1), the rest (2, 3).
ETT_CHANNELS: Tuple[Tuple[int, int], ...] = ((0, 1),) * 3 + ((2, 3),) * 3


class ETTResult:
    """Prefix sums and derived quantities of one ETT execution.

    ``inclusive[i]`` is :math:`prefixsum_{e_i} = \\sum_{j \\le i} w(e_j)`
    for the ``i``-th tour edge.  Both endpoint amoebots of the edge can
    compute it bit by bit (Lemma 14), so exposing it per tour position
    matches what the distributed amoebots know.
    """

    __slots__ = ("tour", "inclusive", "total", "_position")

    def __init__(self, tour: EulerTour, inclusive: List[int], total: int):
        self.tour = tour
        self.inclusive = inclusive
        self.total = total
        self._position: Optional[Dict[int, int]] = None

    def diff_at(self, i: int) -> int:
        """``prefixsum(e_i) - prefixsum(reverse of e_i)``."""
        return self.inclusive[i] - self.inclusive[self.tour.twin[i]]

    # ------------------------------------------------------------------
    # Node views (tests and observers)
    # ------------------------------------------------------------------
    @property
    def prefix(self) -> Dict[DirectedEdge, int]:
        """Prefix sum per directed tour edge, keyed by node pairs."""
        return dict(zip(self.tour.edges, self.inclusive))

    def diff(self, u: Node, v: Node) -> int:
        """``prefixsum(u, v) - prefixsum(v, u)`` for tree neighbors."""
        position = self._position
        if position is None:
            position = self._position = {e: i for i, e in enumerate(self.tour.edge_ids)}
        index = self.tour.index
        return self.diff_at(position[index.id_of(u) * 6 + u.direction_to(v)])

    def subtree_count(self, child: Node, parent: Node) -> int:
        """Number of marked nodes in ``child``'s subtree (Lemma 17.1/3).

        ``parent`` must be ``child``'s parent with respect to the tour
        root; the count is then ``diff(child, parent) >= 0``.
        """
        return self.diff(child, parent)


class ETTOp:
    """One ETT execution, exposable to the parallel PASC runner.

    ``marked`` are the tour positions of the edges of weight 1.  Build
    the op, feed :attr:`chain` (if any) to
    :func:`~repro.pasc.runner.run_pasc` — possibly together with the
    chains of other simultaneously running ETTs on disjoint trees — then
    call :meth:`result` to obtain the prefix sums.
    """

    def __init__(self, tour: EulerTour, marked: Iterable[int], tag: str = "ett"):
        self.tour = tour
        self.marked = sorted(set(marked))
        length = tour.length
        if self.marked and not (0 <= self.marked[0] and self.marked[-1] < length):
            raise ValueError(f"marked positions outside the tour of length {length}")
        if length:
            weights = [0] * (length + 1)
            for i in self.marked:
                weights[i] = 1
            self.chain: Optional[PascRun] = PascRun(
                tour.index,
                tour.unit_nids(),
                tour.edge_ids,
                channels=ETT_CHANNELS,
                weights=weights,
                tag=tag,
            )
        else:
            # Single-node tree: nothing to communicate; W = 0 by definition.
            self.chain = None

    def result(self) -> ETTResult:
        """Decode the prefix sums once the PASC run has finished."""
        if self.chain is None:
            return ETTResult(self.tour, [], 0)
        # prefixsum(e_i) = exclusive(v_i) + w(v_i) = exclusive(v_{i+1});
        # the source amoebot computes the former, the target the latter.
        inclusive = self.chain.inclusive_values()
        total = self.chain.values()[-1]
        inclusive.pop()
        return ETTResult(self.tour, inclusive, total)


def run_ett(
    engine: CircuitEngine,
    tour: EulerTour,
    marked: Iterable[int],
    tag: str = "ett",
    section: str = "ett",
) -> Tuple[ETTResult, PascResult]:
    """Execute the ETT with weight 1 on each marked tour position.

    Returns the prefix sums per tour position and the PASC statistics.
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


def mark_one_outgoing_edge(tour: EulerTour, member_ids: Iterable[int]) -> List[int]:
    """The weight function :math:`w_Q`: every node of ``Q`` marks exactly
    one of its outgoing tour edges (Section 3.1).

    ``member_ids`` are node ids of the tour's index.  We deterministically
    mark the out-edge of the node's *first* occurrence on the tour, which
    every amoebot identifies locally; the marked tour positions are
    returned in ascending order.
    """
    members = set(member_ids)
    unknown = members.difference(tour.masks)
    if unknown:
        raise ValueError(f"member node ids not on the tree: {sorted(unknown)[:3]}")
    edge_ids = tour.edge_ids
    return [i for i in tour.first_positions() if edge_ids[i] // 6 in members]
