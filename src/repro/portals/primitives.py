"""Tree primitives lifted to portal graphs (Section 3.5).

The portal primitives *are* the node primitives of
:mod:`repro.primitives`, run on a :class:`PortalScope`: every ETT runs on
the node-level Euler tour of the *implicit* portal tree, each portal
acting through its representative amoebot, and by Lemma 32 the
portal-graph prefix difference between adjacent portals equals the
node-level difference across their unique connector edge
(:meth:`PortalScope.diff`).  The shared root-and-prune, centroid and
decomposition code therefore decides about portals exactly as it does
about nodes.  What remains is intra-portal communication:

* portal circuits (each portal fuses its portal-internal pins, Fig. 4a)
  broadcast membership bits in one round;
* the parent direction is announced on per-directed-edge circuits
  (Fig. 4b) in one further round — charged explicitly;
* ``T_Q``-degrees are counted by PASC prefix sums along each portal
  (Lemma 34).  An amoebot has at most one north-side and one south-side
  connector role (the local tree rule picks at most one of NW/NE and one
  of SW/SE), so two parallel chains per portal avoid the paper's
  "simulate two amoebots" device while counting the same participants.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.grid.coords import Node
from repro.grid.directions import Axis, Direction
from repro.ett.technique import ETTResult
from repro.ett.tour import EulerTour, build_euler_tour
from repro.pasc.chain import PascChainRun, chain_links_for_nodes
from repro.pasc.runner import run_pasc
from repro.portals.portals import Portal, PortalSystem
from repro.primitives.centroid import CentroidOp, decode_centroids, run_centroid_phases
from repro.primitives.decomposition import DecompositionTree, decompose
from repro.primitives.election import elect_unit
from repro.primitives.root_prune import RootPruneOp, RootPruneResult, decode_root_prune
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
    are portals.
    """

    def __init__(self, system: PortalSystem, portals: Optional[Iterable[Portal]] = None):
        self.system = system
        if portals is None:
            # Whole-system scope: no filtering needed — adopt the
            # system's adjacency structures verbatim (read-only).
            self.portals = set(system.portals)
            self.adjacency: Dict[Node, List[Node]] = system.implicit_adjacency
            self.unit_adjacency: Dict[Portal, List[Portal]] = system.portal_adjacency
        else:
            self.portals = set(portals)
            unknown = self.portals.difference(system.portals)
            if unknown:
                raise ValueError("scope contains portals of a different system")
            nodes = self.nodes_of(self.portals)
            self.adjacency = {
                u: [v for v in system.implicit_adjacency[u] if v in nodes]
                for u in nodes
            }
            self.unit_adjacency = {
                p: [q for q in system.portal_adjacency[p] if q in self.portals]
                for p in self.portals
            }
        self.units = self.portals
        self._circuit_key: Optional[Tuple] = None

    def tour(self, root_portal: Portal) -> EulerTour:
        """Euler tour of the scope's implicit tree, rooted at the portal's representative."""
        if root_portal not in self.portals:
            raise ValueError("root portal outside the scope")
        return build_euler_tour(root_portal.representative, self.adjacency)

    def representatives(self, portals: Iterable[Portal]) -> Iterable[Node]:
        """Representative amoebots of the given portals, lazily."""
        return (p.representative for p in portals)

    def unit_of(self, node: Node) -> Portal:
        """The portal an amoebot of the scope belongs to."""
        return self.system.portal_of[node]

    def diff(self, ett: ETTResult) -> Callable[[Portal, Portal], int]:
        """Portal-graph prefix differences via connector edges (Lemma 32)."""
        connector = self.system.connector
        return lambda p, q: ett.diff(*connector[(p, q)])

    def nodes_of(self, portals: Iterable[Portal]) -> Set[Node]:
        """The amoebots of the given portals."""
        nodes: Set[Node] = set()
        for p in portals:
            nodes.update(p.nodes)
        return nodes

    def restrict(self, portals: Set[Portal]) -> "PortalScope":
        """The scope of a connected subset of this scope's portals."""
        return PortalScope(self.system, portals)

    def announce_winner(self, engine: CircuitEngine) -> None:
        """One portal-circuit round: each elected portal learns it won."""
        engine.charge_local_round()

    def check(self, portals: Iterable[Portal]) -> Set[Portal]:
        """``set(portals)``, or :class:`ValueError` if one lies outside."""
        portal_set = set(portals)
        if not portal_set <= self.units:
            raise ValueError("Q contains portals outside the scope")
        return portal_set

    def broadcast(self, engine: CircuitEngine, beepers: Iterable[Node]) -> None:
        """One round on the scope's portal circuits in which ``beepers`` beep.

        The simulator already knows what the round tells the portals; it
        is executed for its cost, so nothing is listened to.
        """
        layout = self.portal_circuit_layout(engine)
        id_of = engine.structure.grid_index().id_of
        beeps = layout.set_ids(((id_of(u), PORTAL_LABEL) for u in beepers), "beep on")
        engine.run_round_indexed(layout, beeps, ())

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
        scope = PortalScope(system)
    q = scope.check(q_portals)
    op = RootPruneOp(scope.tour(root_portal), scope.representatives(q), tag="prp")
    with engine.rounds.section(section):
        if op.ett_op.chain is not None:
            run_pasc(engine, [op.ett_op.chain], section=f"{section}:ett")
        result = decode_root_prune(scope, op)
        # Fig. 4a: V_Q membership beeps on the portal circuits.  Fig. 4b:
        # the parent direction on per-directed-edge circuits, which carry
        # one beep each — charged as one more round.
        scope.broadcast(engine, (p.nodes[0] for p in result.in_vq))
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
    """Recount ``deg_Q`` by PASC prefix sums along the portals (Lemma 34).

    The counts are already known to the simulator through ``result``;
    this runs the actual portal-chain PASC so the *round cost* of the
    degree computation is the real one, and cross-checks the counts.
    """
    diff = scope.diff(result.ett)
    runs: List[PascChainRun] = []
    expected: List[Tuple[Portal, int]] = []
    for p in scope.portals:
        if p not in result.in_vq:
            continue
        nodes = list(p.nodes)
        if len(nodes) < 2:
            continue  # single-amoebot portal counts its roles locally
        north_roles: Set[Node] = set()
        south_roles: Set[Node] = set()
        for q in scope.unit_adjacency[p]:
            if diff(p, q) == 0:
                continue
            u, v = scope.system.connector[(p, q)]
            side = north_roles if _is_north_side(scope.system, u, v) else south_roles
            if u in side:
                raise AssertionError("two same-side connector roles at one amoebot")
            side.add(u)
        pch, sch, pch2, sch2 = PORTAL_COUNT_CHANNELS
        links_n = chain_links_for_nodes(nodes, pch, sch)
        links_s = chain_links_for_nodes(nodes, pch2, sch2)
        wn = [1 if u in north_roles else 0 for u in nodes]
        ws = [1 if u in south_roles else 0 for u in nodes]
        runs.append(PascChainRun([(u, "n") for u in nodes], links_n, weights=wn, tag="degN"))
        runs.append(PascChainRun([(u, "s") for u in nodes], links_s, weights=ws, tag="degS"))
        expected.append((p, len(north_roles) + len(south_roles)))
    if runs:
        run_pasc(engine, runs, section=f"{section}:degrees")
        for (p, want), run_n, run_s in zip(expected, runs[0::2], runs[1::2]):
            got = (
                run_n.inclusive_values()[run_n.units[-1]]
                + run_s.inclusive_values()[run_s.units[-1]]
            )
            if got != want:
                raise AssertionError(f"portal degree recount mismatch for {p}")
    # One more round: portals with degree >= 3 announce membership in A_Q
    # on their portal circuits.
    scope.broadcast(engine, (p.nodes[-1] for p in result.augmentation))


def _is_north_side(system: PortalSystem, u: Node, v: Node) -> bool:
    """Whether connector edge u->v leaves on the rotated-north side."""
    d = u.direction_to(v)
    return d in (system.rotate(Direction.NW), system.rotate(Direction.NE))


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
    ``Q``; one portal-circuit beep announces the portal it belongs to.
    """
    candidates = set(q_portals)
    if not candidates:
        raise ValueError("portal election requires candidates")
    if scope is None:
        scope = PortalScope(system)
    with engine.rounds.section(section):
        winner = elect_unit(engine, scope, root_portal, candidates, f"{section}:ett")
        if len(scope.units) > 1:
            # Announce the winning portal on its portal circuit.
            scope.broadcast(engine, (winner.representative,))
    return winner


def portal_centroids(
    engine: CircuitEngine,
    system: PortalSystem,
    root_portal: Portal,
    q_portals: Iterable[Portal],
    scope: Optional[PortalScope] = None,
    section: str = "portal_centroid",
) -> Set[Portal]:
    """The portal Q-centroid(s); ``O(log |Q|)`` rounds (Lemma 36)."""
    if scope is None:
        scope = PortalScope(system)
    q = scope.check(q_portals)
    op = CentroidOp(scope.tour(root_portal), scope.representatives(q), tag="pc")
    with engine.rounds.section(section):
        run_centroid_phases(engine, [op], (f"{section}:ett1", f"{section}:ett2"))
        # Portals learn non-centroid status via one portal-circuit beep.
        scope.broadcast(engine, ())
    return decode_centroids(scope, op, q)


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
