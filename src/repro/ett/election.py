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

from array import array
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.ett.technique import ETT_CHANNELS
from repro.ett.tour import EulerTour
from repro.pasc.chain import occurrences
from repro.sim.engine import CircuitEngine


@dataclass
class ElectionRequest:
    """One election: a tour plus the marked tour positions (the
    candidates' out-edges)."""

    tour: EulerTour
    marked: List[int]

    def __post_init__(self) -> None:
        self.marked = sorted(set(self.marked))
        if not self.marked:
            raise ValueError("cannot elect from an empty candidate set")
        if self.marked[0] < 0 or self.marked[-1] >= self.tour.length:
            raise ValueError(f"marked positions outside the tour of length {self.tour.length}")


def elect_first_marked_many(
    engine: CircuitEngine,
    requests: Sequence[ElectionRequest],
    tag: str = "elect",
    section: str = "election",
) -> List[int]:
    """Run all elections in one shared beep round.

    The requests' trees must be node-disjoint (they are in every use in
    this repository: parallel recursions of the decomposition primitive)
    and their tours built in the engine structure's grid index.
    Returns the node id of one winner per request, in order.  Costs one
    round (zero if ``requests`` is empty).
    """
    if not requests:
        return []
    index = engine.structure.grid_index()
    with engine.rounds.section(section):
        # The wiring is fully determined by the tours and their marked
        # positions; deterministic algorithms (the recomputed
        # decomposition tree, repeated merge levels) re-issue identical
        # elections, so the layout is memoized in the engine's cache.
        key = (
            "elect",
            tag,
            None if index.canonical else id(index.root),
            tuple(
                (
                    r.tour.root_id,
                    array("i", r.tour.edge_ids).tobytes(),
                    array("i", r.marked).tobytes(),
                )
                for r in requests
            ),
        )
        layout = engine.layouts.get_or_build(
            key, lambda: _election_layout(engine, requests, tag)
        )
        beeps = layout.set_ids(
            ((request.tour.root_id, f"{tag}:0") for request in requests), "beep on"
        )
        # Only the candidate units (marked outgoing edge) ever read the
        # result, so only their integer set-ids are resolved and read —
        # the simulator scans candidates in tour order, mirroring each
        # amoebot checking only its own occurrences.
        candidates: List[List[int]] = []
        listen_keys: List[Tuple[int, str]] = []
        for request in requests:
            nids = request.tour.unit_nids()
            occurrence = occurrences(nids)
            per_request = [nids[i] for i in request.marked]
            listen_keys.extend((nids[i], f"{tag}:{occurrence[i]}") for i in request.marked)
            candidates.append(per_request)
        listen = layout.set_ids(listen_keys, "listen on")
        bits = engine.run_round_indexed(layout, beeps, listen)

    winners: List[int] = []
    cursor = 0
    for per_request in candidates:
        # The elected amoebot hears the beep at an occurrence whose
        # outgoing edge it marked (locally checkable): the first set bit
        # among this request's candidate occurrences.
        winner = None
        for offset, nid in enumerate(per_request):
            if bits[cursor + offset]:
                winner = nid
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
    mate_edges = index.mate_edges()
    # An amoebot has at most six tree edges, so at most seven units.
    labels = [f"{tag}:{k}" for k in range(7)]
    for request in requests:
        tour = request.tour
        marked = set(request.marked)
        nids = tour.unit_nids()
        incoming: List[Tuple[int, int]] = []
        for i, (nid, k) in enumerate(zip(nids, occurrences(nids))):
            pins = incoming
            if i < len(tour.edge_ids):
                edge = tour.edge_ids[i]
                channel = ETT_CHANNELS[edge % 6][0]
                if i not in marked:
                    pins = pins + [(edge, channel)]
                incoming = [(mate_edges[edge], channel)]
            yield nid, labels[k], pins


def elect_first_marked(
    engine: CircuitEngine,
    tour: EulerTour,
    marked: Iterable[int],
    tag: str = "elect",
    section: str = "election",
) -> int:
    """Elect the source of the first marked tour position; its node id.

    The marked positions realize :math:`w_Q` (each candidate marks one
    outgoing edge), so the elected amoebot is a member of ``Q``.
    Costs exactly one round.
    """
    request = ElectionRequest(tour, list(marked))
    return elect_first_marked_many(engine, [request], tag=tag, section=section)[0]
