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
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.grid.coords import Node
from repro.grid.directions import Axis
from repro.ett.tour import EulerTour, euler_tour
from repro.pasc.chain import PascChainRun
from repro.pasc.runner import run_pasc
from repro.portals.portals import Portal, PortalSystem
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


#: Portal-level root and prune outcome (Lemma 33 / 34): the node result
#: type, with portals as its units.
PortalRootPruneResult = RootPruneResult


class PortalScope:
    """A connected set of portals with its restricted implicit tree.

    The primitives all run either on the whole portal tree or on a
    connected portal subtree (the decomposition's recursions, the forest
    algorithm's regions); this helper owns the restriction plumbing.  It
    is the tree scope (see :mod:`repro.primitives.scope`) whose units
    are portals, numbered as in ``system.portals``.  ``index`` is the
    grid index of the structure the engine runs on (default: the
    system's own); the system's tree is carried over to it once.
    """

    def __init__(
        self,
        system: PortalSystem,
        portals: Optional[Iterable[Portal]] = None,
        index=None,
    ):
        self.system = system
        own = system.structure.grid_index()
        self.index = own if index is None else index
        self.unit_objects: List[Portal] = system.portals
        if self.index is own:
            # Whole-system views, adopted verbatim (read-only).
            self.masks: Dict[int, int] = system.tree_masks
            self.unit_index = system.portal_index_of_id
        else:
            id_of = self.index.id_of
            nodes = own.nodes
            portal_index = system.portal_index_of_id
            self.masks = {}
            self.unit_index = {}
            for nid, mask in system.tree_masks.items():
                moved = id_of(nodes[nid])
                self.masks[moved] = mask
                self.unit_index[moved] = portal_index[nid]
        self.portals = set(system.portals)
        self.unit_adjacency: Dict[Portal, List[Portal]] = system.portal_adjacency
        self._circuit_key: Optional[Tuple] = None
        #: ``(layout, portals, listen set-ids)``: the portals' end
        #: amoebots, resolved once per scope and layout.
        self._listeners: Optional[Tuple[CircuitLayout, List[Portal], List[int]]] = None
        if portals is not None:
            portal_set = set(portals)
            if not portal_set <= self.portals:
                raise ValueError("scope contains portals of a different system")
            self._restrict_to(portal_set)

    @property
    def units(self) -> Set[Portal]:
        return self.portals

    def _restrict_to(self, portals: Set[Portal]) -> None:
        self.masks = restrict_masks(self.index, self.masks, self.node_ids_of(portals))
        self.unit_adjacency = {
            p: [q for q in self.unit_adjacency[p] if q in portals] for p in portals
        }
        self.portals = portals
        self._circuit_key = None
        self._listeners = None

    def tour(self, root_portal: Portal) -> EulerTour:
        """Euler tour of the scope's implicit tree, rooted at the portal's representative."""
        if root_portal not in self.portals:
            raise ValueError("root portal outside the scope")
        root_id = self.index.id_of(root_portal.representative)
        return euler_tour(self.index, root_id, self.masks)

    def representative_ids(self, portals: Iterable[Portal]) -> List[int]:
        """Node ids of the representative amoebots of the given portals."""
        id_of = self.index.id_of
        return [id_of(p.representative) for p in portals]

    def unit_at(self, nid: int) -> Portal:
        """The portal an amoebot of the scope belongs to."""
        return self.unit_objects[self.unit_index[nid]]

    def node_ids_of(self, portals: Iterable[Portal]) -> Set[int]:
        """The node ids of the given portals' amoebots."""
        nbr = self.index.nbr
        id_of = self.index.id_of
        ids: Set[int] = set()
        for p in portals:
            pos_d = int(p.axis.directions[0])
            nid = id_of(p.representative)
            ids.add(nid)
            for _ in range(len(p.nodes) - 1):
                nid = nbr[nid * 6 + pos_d]
                ids.add(nid)
        return ids

    def restrict(self, portals: Set[Portal]) -> "PortalScope":
        """The scope of a connected subset of this scope's portals."""
        if not portals <= self.portals:
            raise ValueError("scope contains portals of a different system")
        scope = copy.copy(self)
        scope._restrict_to(set(portals))
        return scope

    def announce_winner(self, engine: CircuitEngine) -> None:
        """One portal-circuit round: each elected portal learns it won."""
        engine.charge_local_round()

    def check(self, portals: Iterable[Portal]) -> Set[Portal]:
        """``set(portals)``, or :class:`ValueError` if one lies outside."""
        portal_set = set(portals)
        if not portal_set <= self.units:
            raise ValueError("Q contains portals outside the scope")
        return portal_set

    def broadcast(self, engine: CircuitEngine, beepers: Iterable[Node]) -> Set[Portal]:
        """One round on the scope's portal circuits: the portals that heard.

        ``beepers`` beep; both end amoebots of every portal listen (a
        one-amoebot portal's only amoebot listens alone).  A portal
        circuit spans its whole portal, so its ends hear alike; ends
        that disagree mean a split circuit, and the round raises naming
        the portal.
        """
        layout = self.portal_circuit_layout(engine)
        id_of = engine.structure.grid_index().id_of
        if self._listeners is None or self._listeners[0] is not layout:
            portals = list(self.portals)
            ends = []
            for p in portals:
                ends.append((id_of(p.nodes[0]), PORTAL_LABEL))
                if len(p.nodes) > 1:
                    ends.append((id_of(p.nodes[-1]), PORTAL_LABEL))
            self._listeners = (layout, portals, layout.set_ids(ends, "listen on"))
        _layout, portals, listen = self._listeners
        beeps = layout.set_ids(((id_of(u), PORTAL_LABEL) for u in beepers), "beep on")
        bits = iter(engine.run_round_indexed(layout, beeps, listen))
        heard: Set[Portal] = set()
        for p in portals:
            bit = next(bits)
            if len(p.nodes) > 1 and next(bits) != bit:
                raise AssertionError(
                    f"portal circuit of {p} is split: its two ends heard different bits"
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
            key = self._circuit_key = portal_runs_key(
                engine, ((self.system.axis, p) for p in self.portals)
            )
        return engine.edge_subset_layout(
            portal_run_edges(engine, key),
            label=PORTAL_LABEL,
            channel=PORTAL_CIRCUIT_CHANNEL,
            key=key,
        )


def portal_runs_key(
    engine: CircuitEngine, runs: Iterable[Tuple[Axis, Portal]]
) -> Tuple:
    """A cheap canonical cache key for a set of portal runs.

    A portal is a maximal contiguous run of grid cells, so ``(axis,
    representative id, length)`` triples — ids taken from the *engine
    structure's* grid index — uniquely name its edge set without
    hashing per-edge coordinate pairs; single-amoebot runs have no
    edge and are left out, so scopes with the same edges share a key.
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
    id_of = index.id_of
    return (
        "pruns",
        None if index.canonical else id(index.root),
        frozenset(
            (int(axis), id_of(p.representative), len(p.nodes))
            for axis, p in runs
            if len(p.nodes) > 1
        ),
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
    root_portal: Portal,
    q_portals: Iterable[Portal],
    scope: Optional[PortalScope] = None,
    compute_augmentation: bool = False,
    section: str = "portal_root_prune",
) -> PortalRootPruneResult:
    """Root the portal tree, prune, optionally compute ``A_Q`` (Lemma 33/34).

    ``O(log |Q|)`` rounds.
    """
    if scope is None:
        scope = PortalScope(system, index=engine.structure.grid_index())
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
        result.in_vq = scope.broadcast(engine, (p.nodes[0] for p in result.in_vq))
        engine.charge_local_round()
        if compute_augmentation:
            _count_degrees(engine, scope, result, section=section)
    return result


def _count_degrees(
    engine: CircuitEngine,
    scope: PortalScope,
    result: PortalRootPruneResult,
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
    portals = scope.unit_objects
    index = scope.index
    nbr = index.nbr
    r = int(scope.system.axis)
    north_dirs = ((1 + r) % 6, (2 + r) % 6)  # the rotated NE and NW
    roles: Dict[Portal, Tuple[Set[int], Set[int]]] = {}
    for i, e in enumerate(tour.edge_ids):
        if inclusive[i] == inclusive[twin[i]]:
            continue
        u = unit_index[e // 6]
        if u == unit_index[nbr[e]]:
            continue
        p = portals[u]
        if p not in result.in_vq:
            continue
        north, south = roles.setdefault(p, (set(), set()))
        side = north if e % 6 in north_dirs else south
        if e // 6 in side:
            raise AssertionError("two same-side connector roles at one amoebot")
        side.add(e // 6)

    runs: List[PascChainRun] = []
    expected: List[Tuple[Portal, int]] = []
    pch, sch, pch2, sch2 = PORTAL_COUNT_CHANNELS
    for p in scope.portals:
        if p not in result.in_vq or len(p.nodes) < 2:
            continue  # a single-amoebot portal counts its roles locally
        north, south = roles.get(p, ((), ()))
        pos_d = int(p.axis.directions[0])
        nids = [index.id_of(p.representative)]
        for _ in range(len(p.nodes) - 1):
            nids.append(nbr[nids[-1] * 6 + pos_d])
        out_edges = [nid * 6 + pos_d for nid in nids[:-1]]
        wn = [1 if nid in north else 0 for nid in nids]
        ws = [1 if nid in south else 0 for nid in nids]
        runs.append(PascChainRun(index, nids, out_edges, (pch, sch), wn, tag="degN"))
        runs.append(PascChainRun(index, nids, out_edges, (pch2, sch2), ws, tag="degS"))
        expected.append((p, len(north) + len(south)))
    if runs:
        run_pasc(engine, runs, section=f"{section}:degrees")
        for (p, want), run_n, run_s in zip(expected, runs[0::2], runs[1::2]):
            got = run_n.inclusive_values()[-1] + run_s.inclusive_values()[-1]
            if got != want:
                raise AssertionError(f"portal degree recount mismatch for {p}")
    # One more round: portals with degree >= 3 announce membership in A_Q
    # on their portal circuits.
    result.augmentation = scope.broadcast(engine, (p.nodes[-1] for p in result.augmentation))


def portal_elect(
    engine: CircuitEngine,
    system: PortalSystem,
    root_portal: Portal,
    q_portals: Iterable[Portal],
    scope: Optional[PortalScope] = None,
    section: str = "portal_election",
) -> Portal:
    """Elect one portal of ``Q`` in ``O(1)`` rounds (Lemma 35).

    The simplified ETT elects an amoebot among the representatives of
    ``Q``; it beeps on its portal circuit, and the one portal that hears
    is the winner.
    """
    candidates = set(q_portals)
    if not candidates:
        raise ValueError("portal election requires candidates")
    if scope is None:
        scope = PortalScope(system, index=engine.structure.grid_index())
    with engine.rounds.section(section):
        winner = elect_unit(engine, scope, root_portal, candidates, f"{section}:ett")
        if len(scope.units) > 1:
            heard = scope.broadcast(engine, (winner.representative,))
            if len(heard) != 1:
                raise AssertionError(f"{len(heard)} portals heard the election winner")
            (winner,) = heard
    return winner


def portal_centroids(
    engine: CircuitEngine,
    system: PortalSystem,
    root_portal: Portal,
    q_portals: Iterable[Portal],
    scope: Optional[PortalScope] = None,
    section: str = "portal_centroid",
) -> Set[Portal]:
    """The portal Q-centroid(s); ``O(log |Q|)`` rounds (Lemma 36).

    Each centroid's representative beeps on its portal circuit; the
    portals that hear are returned.
    """
    if scope is None:
        scope = PortalScope(system, index=engine.structure.grid_index())
    q = scope.check(q_portals)
    op = CentroidOp(scope.tour(root_portal), scope.representative_ids(q), tag="pc")
    with engine.rounds.section(section):
        run_centroid_phases(engine, [op], (f"{section}:ett1", f"{section}:ett2"))
        centroids = decode_centroids(scope, op, q)
        return scope.broadcast(engine, (p.representative for p in centroids))


def portal_centroid_decomposition(
    engine: CircuitEngine,
    system: PortalSystem,
    root_portal: Portal,
    q_prime: Set[Portal],
    scope: Optional[PortalScope] = None,
    section: str = "portal_decomposition",
) -> DecompositionTree:
    """Iteratively compute the portal Q'-centroid decomposition tree.

    ``O(log² |Q'|)`` rounds (Lemma 37).  Deterministic, so repeated runs
    rebuild the identical tree — the forest algorithm's merging stage
    depends on that (Section 5.4.4).
    """
    if scope is None:
        scope = PortalScope(system, index=engine.structure.grid_index())
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
