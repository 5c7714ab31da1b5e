"""Tree primitives lifted to portal graphs (Section 3.5).

The portal primitives *are* the node primitives of
:mod:`repro.primitives`, run on a :class:`PortalScope`: every ETT runs on
the node-level Euler tour of the *implicit* portal tree, each portal
acting through its representative amoebot, and by Lemma 32 the
portal-graph prefix difference between adjacent portals equals the
node-level difference across their unique connector edge — the one tour
edge joining them, which the decoders find through
:attr:`PortalScope.unit_index`.  The shared root-and-prune, centroid and
decomposition code therefore decides about portals exactly as it does
about nodes.  What remains is intra-portal communication:

* portal circuits (each portal fuses its portal-internal pins, Fig. 4a)
  broadcast membership bits in one round, and the portals whose end
  amoebots heard are the round's result;
* the parent direction is announced on per-directed-edge circuits
  (Fig. 4b) in one further round — charged explicitly;
* ``T_Q``-degrees are counted by PASC prefix sums along each portal
  (Lemma 34).  An amoebot has at most one north-side and one south-side
  connector role (the local tree rule picks at most one of NW/NE and one
  of SW/SE), so two parallel chains per portal avoid the paper's
  "simulate two amoebots" device while counting the same participants.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.grid.directions import Axis
from repro.ett.tour import EulerTour, euler_tour
from repro.pasc.chain import PascRun
from repro.pasc.runner import run_pasc
from repro.portals.portals import PortalSystem
from repro.primitives.centroid import CentroidOp, decode_centroids, run_centroid_phases
from repro.primitives.decomposition import DecompositionTree, decompose
from repro.primitives.election import elect_unit
from repro.primitives.root_prune import RootPruneOp, RootPruneResult, decode_root_prune
from repro.primitives.scope import restrict_masks
from repro.sim.circuits import CircuitLayout
from repro.sim.engine import CircuitEngine

PORTAL_CIRCUIT_CHANNEL = 4  # portal-internal broadcast wire
#: The one partition set per amoebot of a scope's portal-circuit layout.
PORTAL_LABEL = "portal"
# Two PASC pairs for degree counting; the ETT channels (0-3) are free
# again by the time the counting layout is built.
PORTAL_COUNT_CHANNELS = (0, 1, 2, 3)


class PortalScope:
    """A connected set of portals with its restricted implicit tree.

    The primitives all run either on the whole portal tree or on a
    connected portal subtree (the decomposition's recursions, the forest
    algorithm's regions); this helper owns the restriction plumbing.  It
    is the tree scope (see :mod:`repro.primitives.scope`) whose units
    are portals: a unit is a portal's number, its index into
    ``system.runs``.  The system is built over the engine structure's
    grid index, so the scope adopts its tree and portal numbering
    verbatim.
    """

    def __init__(self, system: PortalSystem, portals: Optional[Iterable[int]] = None):
        self.system = system
        self.index = system.structure.grid_index()
        # Whole-system views, adopted verbatim (read-only).
        self.runs: List[List[int]] = system.runs
        self.masks: Dict[int, int] = system.tree_masks
        self.unit_index = system.portal_index_of_id
        self.units: Set[int] = set(range(len(system.runs)))
        self.unit_adjacency: Mapping[int, List[int]] = system.portal_adjacency
        self._circuit_key: Optional[Tuple] = None
        #: ``(layout, portals, listen set-ids)``: the portals' end
        #: amoebots, resolved once per scope and layout.
        self._listeners: Optional[Tuple[CircuitLayout, List[int], List[int]]] = None
        if portals is not None:
            self._restrict_to(self.check(portals))

    def _restrict_to(self, portals: Set[int]) -> None:
        self.masks = restrict_masks(self.index, self.masks, self.node_ids_of(portals))
        self.unit_adjacency = {
            p: [q for q in self.unit_adjacency[p] if q in portals] for p in portals
        }
        self.units = portals
        self._circuit_key = None
        self._listeners = None

    def tour(self, root_portal: int) -> EulerTour:
        """Euler tour of the scope's implicit tree, rooted at the portal's representative."""
        if root_portal not in self.units:
            raise ValueError("root portal outside the scope")
        return euler_tour(self.index, self.runs[root_portal][0], self.masks)

    def representative_ids(self, portals: Iterable[int]) -> List[int]:
        """Node ids of the representative amoebots of the given portals."""
        runs = self.runs
        return [runs[p][0] for p in portals]

    def node_ids_of(self, portals: Iterable[int]) -> Set[int]:
        """The node ids of the given portals' amoebots."""
        runs = self.runs
        return {nid for p in portals for nid in runs[p]}

    def restrict(self, portals: Set[int]) -> "PortalScope":
        """The scope of a connected subset of this scope's portals."""
        scope = copy.copy(self)
        scope._restrict_to(self.check(portals))
        return scope

    def announce_winner(self, engine: CircuitEngine, winner_ids: Iterable[int]) -> Set[int]:
        """One portal-circuit round: each winning amoebot beeps, and the
        portals that hear are the winners."""
        return self.broadcast(engine, winner_ids)

    def check(self, portals: Iterable[int]) -> Set[int]:
        """``set(portals)``, or :class:`ValueError` if one lies outside."""
        portal_set = set(portals)
        if not portal_set <= self.units:
            raise ValueError("portals outside the scope")
        return portal_set

    def broadcast(self, engine: CircuitEngine, beepers: Iterable[int]) -> Set[int]:
        """One round on the scope's portal circuits: the portals that heard.

        The amoebots ``beepers`` (node ids) beep; both end amoebots of
        every portal listen (a one-amoebot portal's only amoebot listens
        alone).  A portal
        circuit spans its whole portal, so its ends hear alike; ends
        that disagree mean a split circuit, and the round raises naming
        the portal.
        """
        layout = self.portal_circuit_layout(engine)
        runs = self.runs
        if self._listeners is None or self._listeners[0] is not layout:
            portals = list(self.units)
            ends = []
            for p in portals:
                run = runs[p]
                ends.append((run[0], PORTAL_LABEL))
                if len(run) > 1:
                    ends.append((run[-1], PORTAL_LABEL))
            self._listeners = (layout, portals, layout.set_ids(ends, "listen on"))
        _layout, portals, listen = self._listeners
        beeps = layout.set_ids(((u, PORTAL_LABEL) for u in beepers), "beep on")
        bits = iter(engine.run_round_indexed(layout, beeps, listen))
        heard: Set[int] = set()
        for p in portals:
            bit = next(bits)
            if len(runs[p]) > 1 and next(bits) != bit:
                raise AssertionError(
                    f"portal circuit of portal {p} at {self.index.nodes[runs[p][0]]} "
                    "is split: its two ends heard different bits"
                )
            if bit:
                heard.add(p)
        return heard

    def portal_circuit_layout(self, engine: CircuitEngine):
        """One circuit per portal: its internal (axis-parallel) edges.

        One layout per scope wiring, whatever the round is for: every
        broadcast addresses the sets ``(amoebot, PORTAL_LABEL)`` of the
        same layout.  It is memoized by the engine's cache under a
        run-shaped key — one ``(representative id, length)`` pair per
        portal instead of one coordinate pair per edge — and on a miss
        built from the edge ids the key's runs name.
        """
        key = self._circuit_key
        if key is None:
            axis = self.system.axis
            key = self._circuit_key = portal_runs_key(
                engine, ((axis, self.runs[p]) for p in self.units)
            )
        return engine.edge_subset_layout(
            portal_run_edges(engine, key),
            label=PORTAL_LABEL,
            channel=PORTAL_CIRCUIT_CHANNEL,
            key=key,
        )


def portal_runs_key(
    engine: CircuitEngine, runs: Iterable[Tuple[Axis, Sequence[int]]]
) -> Tuple:
    """A cheap canonical cache key for a set of portal runs.

    A portal is a maximal contiguous run of grid cells, so ``(axis,
    representative id, length)`` triples — ids of the *engine
    structure's* grid index, which ``runs`` are given in — uniquely
    name its edge set without hashing per-edge coordinate pairs;
    single-amoebot runs have no edge and are left out, so scopes with
    the same edges share a key.
    From-scratch indexes assign ids canonically (sorted node order), so
    these keys may be shared across equal structures (the campaign
    workers' node-set-scoped layout cache relies on that); *derived*
    indexes (churn) are not canonical, so their keys carry the index's
    root identity and never collide across derive chains.  Used to key
    :meth:`CircuitEngine.edge_subset_layout` for portal circuits (here
    and in the propagation algorithm); :func:`portal_run_edges` lists
    the edges a key names.
    """
    index = engine.structure.grid_index()
    return (
        "pruns",
        None if index.canonical else id(index.root),
        frozenset((int(axis), run[0], len(run)) for axis, run in runs if len(run) > 1),
    )


def portal_run_edges(engine: CircuitEngine, key: Tuple) -> Iterator[int]:
    """The internal edge ids of the portal runs a :func:`portal_runs_key` names.

    Each run is walked from its representative in the positive axis
    direction over the engine structure's neighbor table, yielding
    ``id * 6 + pos_dir`` per edge.  Lazy: a cache hit never walks.
    """
    nbr = engine.structure.grid_index().nbr
    for axis, nid, length in key[2]:
        pos_d = int(Axis(axis).directions[0])
        for _ in range(length - 1):
            edge = nid * 6 + pos_d
            yield edge
            nid = nbr[edge]


def portal_root_and_prune(
    engine: CircuitEngine,
    system: PortalSystem,
    root_portal: int,
    q_portals: Iterable[int],
    scope: Optional[PortalScope] = None,
    compute_augmentation: bool = False,
    section: str = "portal_root_prune",
) -> RootPruneResult:
    """Root the portal tree, prune, optionally compute ``A_Q`` (Lemma 33/34).

    Portals are numbers of ``system``; ``O(log |Q|)`` rounds.
    """
    if scope is None:
        scope = PortalScope(system)
    q = scope.check(q_portals)
    op = RootPruneOp(scope.tour(root_portal), scope.representative_ids(q), tag="prp")
    with engine.rounds.section(section):
        if op.ett_op.chain is not None:
            run_pasc(engine, [op.ett_op.chain], section=f"{section}:ett")
        result = decode_root_prune(scope, op)
        # Fig. 4a: every V_Q portal's representative beeps on its portal
        # circuit, and V_Q is the set of portals that heard.  Fig. 4b:
        # the parent direction on per-directed-edge circuits, which carry
        # one beep each — charged as one more round.
        result.in_vq = scope.broadcast(engine, scope.representative_ids(result.in_vq))
        engine.charge_local_round()
        if compute_augmentation:
            _count_degrees(engine, scope, result, section=section)
    return result


def _count_degrees(
    engine: CircuitEngine,
    scope: PortalScope,
    result: RootPruneResult,
    section: str,
) -> None:
    """Count ``deg_Q`` by PASC prefix sums along the portals (Lemma 34).

    Each V_Q portal sums its connector roles with one PASC chain per
    side; the sums are cross-checked against the degrees ``result``
    decoded.  The portals of degree at least three then beep on their
    portal circuits, and ``result.augmentation`` (``A_Q``) becomes the
    set of portals that heard.
    """
    # Connector roles: the source amoebot of every tour edge that leaves
    # a V_Q portal toward a neighbor portal with a nonzero difference.
    tour = result.ett.tour
    inclusive = result.ett.inclusive
    twin = tour.twin
    unit_index = scope.unit_index
    index = scope.index
    nbr = index.nbr
    r = int(scope.system.axis)
    north_dirs = ((1 + r) % 6, (2 + r) % 6)  # the rotated NE and NW
    roles: Dict[int, Tuple[Set[int], Set[int]]] = {}
    for i, e in enumerate(tour.edge_ids):
        if inclusive[i] == inclusive[twin[i]]:
            continue
        p = unit_index[e // 6]
        if p == unit_index[nbr[e]] or p not in result.in_vq:
            continue
        north, south = roles.setdefault(p, (set(), set()))
        side = north if e % 6 in north_dirs else south
        if e // 6 in side:
            raise AssertionError("two same-side connector roles at one amoebot")
        side.add(e // 6)

    runs: List[PascRun] = []
    expected: List[Tuple[int, int]] = []
    pch, sch, pch2, sch2 = PORTAL_COUNT_CHANNELS
    pos_d = int(scope.system.axis.directions[0])
    for p in scope.units:
        nids = scope.runs[p]
        if p not in result.in_vq or len(nids) < 2:
            continue  # a single-amoebot portal counts its roles locally
        north, south = roles.get(p, ((), ()))
        out_edges = [nid * 6 + pos_d for nid in nids[:-1]]
        wn = [1 if nid in north else 0 for nid in nids]
        ws = [1 if nid in south else 0 for nid in nids]
        runs.append(PascRun(index, nids, out_edges, (pch, sch), wn, tag="degN"))
        runs.append(PascRun(index, nids, out_edges, (pch2, sch2), ws, tag="degS"))
        expected.append((p, len(north) + len(south)))
    if runs:
        run_pasc(engine, runs, section=f"{section}:degrees")
        for (p, want), run_n, run_s in zip(expected, runs[0::2], runs[1::2]):
            got = run_n.inclusive_values()[-1] + run_s.inclusive_values()[-1]
            if got != want:
                raise AssertionError(f"portal degree recount mismatch for {p}")
    # One more round: portals with degree >= 3 announce membership in A_Q
    # on their portal circuits.
    result.augmentation = scope.broadcast(engine, scope.representative_ids(result.augmentation))


def portal_elect(
    engine: CircuitEngine,
    system: PortalSystem,
    root_portal: int,
    q_portals: Iterable[int],
    scope: Optional[PortalScope] = None,
    section: str = "portal_election",
) -> int:
    """Elect one portal of ``Q`` in ``O(1)`` rounds (Lemma 35).

    The simplified ETT elects an amoebot among the representatives of
    ``Q``; it beeps on its portal circuit, and the one portal that hears
    is the winner.
    """
    candidates = set(q_portals)
    if not candidates:
        raise ValueError("portal election requires candidates")
    if scope is None:
        scope = PortalScope(system)
    with engine.rounds.section(section):
        winner = elect_unit(engine, scope, root_portal, candidates, f"{section}:ett")
        if len(scope.units) > 1:
            heard = scope.broadcast(engine, scope.representative_ids((winner,)))
            if len(heard) != 1:
                raise AssertionError(f"{len(heard)} portals heard the election winner")
            (winner,) = heard
    return winner


def portal_centroids(
    engine: CircuitEngine,
    system: PortalSystem,
    root_portal: int,
    q_portals: Iterable[int],
    scope: Optional[PortalScope] = None,
    section: str = "portal_centroid",
) -> Set[int]:
    """The portal Q-centroid(s); ``O(log |Q|)`` rounds (Lemma 36).

    Each centroid's representative beeps on its portal circuit; the
    portals that hear are returned.
    """
    if scope is None:
        scope = PortalScope(system)
    q = scope.check(q_portals)
    op = CentroidOp(scope.tour(root_portal), scope.representative_ids(q), tag="pc")
    with engine.rounds.section(section):
        run_centroid_phases(engine, [op], (f"{section}:ett1", f"{section}:ett2"))
        centroids = decode_centroids(scope, op, q)
        return scope.broadcast(engine, scope.representative_ids(centroids))


def portal_centroid_decomposition(
    engine: CircuitEngine,
    system: PortalSystem,
    root_portal: int,
    q_prime: Set[int],
    scope: Optional[PortalScope] = None,
    section: str = "portal_decomposition",
) -> DecompositionTree:
    """Iteratively compute the portal Q'-centroid decomposition tree.

    ``O(log² |Q'|)`` rounds (Lemma 37).  Deterministic, so repeated runs
    rebuild the identical tree — the forest algorithm's merging stage
    depends on that (Section 5.4.4).
    """
    if scope is None:
        scope = PortalScope(system)
    if not q_prime:
        raise ValueError("Q' must be non-empty")
    scope.check(q_prime)
    return decompose(
        engine,
        scope,
        root_portal,
        q_prime,
        section,
        sections="pdec",
        label="pdec",
        tag="pc",
    )
