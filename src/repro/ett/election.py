"""The simplified ETT used by the election primitive (Section 3.3).

Removing the marked tour edges splits the Euler tour into subpaths; each
subpath is wired into one circuit (a single wire suffices — no
primary/secondary pair), the root beeps, and only the first subpath
hears it.  The amoebot whose marked out-edge terminates that subpath is
elected.  One beep round total (Lemma 21).

Multiple elections on node-disjoint trees share the round:
:func:`elect_first_marked_many` wires all requests into one layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Set, Tuple

from repro.grid.coords import Node
from repro.ett.technique import _channels_for
from repro.ett.tour import DirectedEdge, EulerTour
from repro.sim.engine import CircuitEngine


@dataclass
class ElectionRequest:
    """One election: a tour plus the marked out-edges of the candidates."""

    tour: EulerTour
    marked: Set[DirectedEdge]

    def __post_init__(self) -> None:
        if not self.marked:
            raise ValueError("cannot elect from an empty candidate set")
        unknown = set(self.marked).difference(self.tour.edges)
        if unknown:
            raise ValueError(f"marked edges not on the tour: {sorted(unknown)[:3]}")


def elect_first_marked_many(
    engine: CircuitEngine,
    requests: Sequence[ElectionRequest],
    tag: str = "elect",
    section: str = "election",
) -> List[Node]:
    """Run all elections in one shared beep round.

    The requests' trees must be node-disjoint (they are in every use in
    this repository: parallel recursions of the decomposition primitive).
    Returns one winner per request, in order.  Costs one round (zero if
    ``requests`` is empty).
    """
    if not requests:
        return []
    with engine.rounds.section(section):
        # The wiring is fully determined by the tours and their marked
        # edges; deterministic algorithms (the recomputed decomposition
        # tree, repeated merge levels) re-issue identical elections, so
        # the layout is memoized in the engine's cache.
        key = (
            "elect", tag,
            tuple(
                (tuple(r.tour.edges), tuple(sorted(r.marked))) for r in requests
            ),
        )
        layout = engine.layouts.get_or_build(
            key, lambda: _election_layout(engine, requests, tag)
        )
        id_of = engine.structure.grid_index().id_of

        beeps = layout.set_ids(
            ((id_of(request.tour.root), f"{tag}:0") for request in requests), "beep on"
        )
        # Only the candidate units (marked outgoing edge) ever read the
        # result, so only their integer set-ids are resolved and read —
        # the simulator scans candidates in tour order, mirroring each
        # amoebot checking only its own occurrences.
        candidates: List[List[Node]] = []
        listen_keys: List[Tuple[int, str]] = []
        for request in requests:
            tour, marked = request.tour, request.marked
            per_request: List[Node] = []
            for i, (node, uid) in enumerate(tour.units):
                if i < len(tour.edges) and tour.edges[i] in marked:
                    per_request.append(node)
                    listen_keys.append((id_of(node), f"{tag}:{uid}"))
            candidates.append(per_request)
        listen = layout.set_ids(listen_keys, "listen on")
        bits = engine.run_round_indexed(layout, beeps, listen)

    winners: List[Node] = []
    cursor = 0
    for per_request in candidates:
        # The elected amoebot hears the beep at an occurrence whose
        # outgoing edge it marked (locally checkable): the first set bit
        # among this request's candidate occurrences.
        winner = None
        for offset, node in enumerate(per_request):
            if bits[cursor + offset]:
                winner = node
                break
        cursor += len(per_request)
        if winner is None:
            raise AssertionError("no unit identified itself as elected")
        winners.append(winner)
    return winners


def _election_layout(
    engine: CircuitEngine, requests: Sequence[ElectionRequest], tag: str
):
    """Build the shared subpath-circuit layout of all requests.

    Unit ``i`` joins its incoming wire and, unless ``e_i`` is marked,
    its outgoing wire into one partition set: subpath circuits.  Each
    tour edge uses its direction's primary channel (the ETT channel
    discipline), on both of its endpoints' pins.
    """
    layout = engine.new_layout()
    layout.assign_sets(_subpath_sets(engine.structure.grid_index(), requests, tag))
    layout.freeze()
    return layout


def _subpath_sets(index, requests: Sequence[ElectionRequest], tag: str):
    """Every unit's set with its pins, streamed into the layout."""
    id_of = index.id_of
    mate_edges = index.mate_edges()
    for request in requests:
        tour, marked = request.tour, request.marked
        nids = [id_of(node) for node, _ in tour.units]
        incoming: List[Tuple[int, int]] = []
        for i, (nid, (_, uid)) in enumerate(zip(nids, tour.units)):
            pins = incoming
            if i < len(tour.edges):
                edge = index.edge_between(nid, nids[i + 1])
                channel = _channels_for(edge % 6)[0]
                if tour.edges[i] not in marked:
                    pins = pins + [(edge, channel)]
                incoming = [(mate_edges[edge], channel)]
            yield nid, f"{tag}:{uid}", pins


def elect_first_marked(
    engine: CircuitEngine,
    tour: EulerTour,
    marked: Iterable[DirectedEdge],
    tag: str = "elect",
    section: str = "election",
) -> Node:
    """Elect the source of the first marked edge on the tour.

    The marked edges realize :math:`w_Q` (each candidate marks one
    outgoing edge), so the elected amoebot is a member of ``Q``.
    Costs exactly one round.
    """
    request = ElectionRequest(tour, set(marked))
    return elect_first_marked_many(engine, [request], tag=tag, section=section)[0]
