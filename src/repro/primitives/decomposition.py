"""The Q'-centroid decomposition primitive (Section 3.4, Lemma 31).

The tree is decomposed recursively: each recursion computes the
``Q'``-centroids of its subtree (centroid primitive), elects one
(election primitive), splits the subtree at it, and recurses into every
component still containing ``Q'`` nodes.  All recursions of one level
run in parallel — their trees are node-disjoint, so their ETTs share the
same PASC rounds, their elections share one beep round, and the
"which components still hold Q' nodes" test shares one more.  After each
level a global circuit checks whether unelected ``Q'`` nodes remain.

``Q'`` must be an *augmented* set (``Q ∪ A_Q``, Lemma 27) so every
recursion is guaranteed a centroid inside ``Q'`` (Corollary 28).  The
decomposition tree has height ``O(log |Q'|)`` (Lemma 30) and the whole
primitive costs ``O(log² |Q'|)`` rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.grid.coords import Node
from repro.ett.election import ElectionRequest, elect_first_marked_many
from repro.ett.technique import mark_one_outgoing_edge
from repro.primitives.centroid import CentroidOp, decode_centroids, run_centroid_phases
from repro.primitives.scope import NodeScope, split_components
from repro.sim.engine import CircuitEngine


@dataclass
class DecompositionTree:
    """A Q'-centroid decomposition tree (the paper's ``DT(T)``).

    Its members are nodes, or portals for the portal decomposition
    (Lemma 37); ``subtree_units`` maps each member to the units of the
    recursion that elected it.
    """

    levels: List[List[Hashable]] = field(default_factory=list)
    parent: Dict[Hashable, Optional[Hashable]] = field(default_factory=dict)
    subtree_units: Dict[Hashable, Set[Hashable]] = field(default_factory=dict)

    @property
    def height(self) -> int:
        return len(self.levels)

    def members(self) -> Set[Hashable]:
        """All units elected into the decomposition tree."""
        return set(self.parent)

    def depth_of(self, unit: Hashable) -> int:
        """Depth of a unit in the decomposition tree."""
        for depth, level in enumerate(self.levels):
            if unit in level:
                return depth
        raise KeyError(f"{unit} is not a decomposition-tree node")


@dataclass
class _Recursion:
    scope: object  # the recursion's subtree, see repro.primitives.scope
    root: Hashable
    q: Set[Hashable]
    caller: Optional[Hashable]


def centroid_decomposition(
    engine: CircuitEngine,
    root: Node,
    adjacency: Dict[Node, List[Node]],
    q_prime: Set[Node],
    section: str = "decomposition",
) -> DecompositionTree:
    """Compute a Q'-centroid decomposition tree (Lemma 31).

    ``adjacency`` is the full tree in rotation order; ``q_prime`` the
    augmented set.  Deterministic: re-running yields the same tree, which
    the divide & conquer forest algorithm relies on (Section 5.4.4).
    """
    if not q_prime:
        raise ValueError("Q' must be non-empty")
    unknown = q_prime.difference(adjacency)
    if unknown:
        raise ValueError(f"Q' contains non-tree nodes: {sorted(unknown)[:3]}")
    return decompose(
        engine,
        NodeScope.from_adjacency(engine.structure.grid_index(), adjacency),
        root,
        q_prime,
        section,
        sections="decomposition",
        label="decomp",
        tag="cen",
    )


def decompose(
    engine: CircuitEngine,
    scope,
    root: Hashable,
    q_prime: Set[Hashable],
    section: str,
    sections: str,
    label: str,
    tag: str,
) -> DecompositionTree:
    """The level loop of Lemmas 31 and 37 on any tree scope.

    Each level runs every recursion's centroid computation, elects one
    centroid per recursion, splits at it and keeps the components that
    still hold ``Q'`` units; a global circuit then checks whether
    unelected ``Q'`` units remain.  Level rounds are charged to
    ``{sections}:ett1``, ``:ett2`` and ``:elect``, circuits use the
    partition sets ``{label}:term`` and ``{label}:comp``, and the
    centroid ETTs are tagged ``{tag}1`` and ``{tag}2``.
    """
    tree = DecompositionTree()
    active: List[_Recursion] = [
        _Recursion(scope=scope, root=root, q=set(q_prime), caller=None)
    ]
    remaining = set(q_prime)
    guard = 2 * len(q_prime).bit_length() + 4

    # The termination circuit never changes: built (or cache-hit) once,
    # reused by every level's check.  It is global, so listening on a
    # single probe set is equivalent to scanning all of them.
    term_label = f"{label}:term"
    term_layout = engine.global_layout(label=term_label)
    probe_nid = next(iter(engine.structure.grid_index().live_ids()))
    term_probe = term_layout.set_ids([(probe_nid, term_label)], "listen on")

    with engine.rounds.section(section):
        level_index = 0
        while active:
            if level_index > guard:
                raise RuntimeError("decomposition exceeded its level guard")
            level_centroids, next_active = _run_level(
                engine, scope, active, tree, sections, label, tag
            )
            tree.levels.append(level_centroids)
            remaining.difference_update(level_centroids)
            # Termination check: a global circuit where every unelected
            # Q' unit beeps; silence ends the primitive.
            beeps = term_layout.set_ids(
                ((nid, term_label) for nid in scope.representative_ids(remaining)),
                "beep on",
            )
            received = engine.run_round_indexed(term_layout, beeps, term_probe)
            active = next_active
            if not received[0]:
                break
            level_index += 1

    if remaining:
        raise AssertionError(
            f"decomposition ended with unelected Q' nodes: {sorted(remaining)[:3]}"
        )
    return tree


def _run_level(
    engine: CircuitEngine,
    scope,
    recursions: Sequence[_Recursion],
    tree: DecompositionTree,
    sections: str,
    label: str,
    tag: str,
) -> Tuple[List[Hashable], List[_Recursion]]:
    """Execute all recursions of one level (subtrees of ``scope``) together."""
    ops = [
        CentroidOp(rec.scope.tour(rec.root), rec.scope.representative_ids(rec.q), tag=tag)
        for rec in recursions
    ]
    # Both ETT phases of all recursions share their rounds.
    run_centroid_phases(engine, ops, (f"{sections}:ett1", f"{sections}:ett2"))

    # Elect one centroid per recursion in one shared round.
    requests: List[Optional[ElectionRequest]] = []
    centroid_sets: List[Set[Hashable]] = []
    for op, rec in zip(ops, recursions):
        centroids = decode_centroids(rec.scope, op, rec.q)
        if not centroids:
            raise AssertionError("a recursion found no Q'-centroid; Q' was not augmented")
        centroid_sets.append(centroids)
        tour = op.tour
        if tour.length:
            marked = mark_one_outgoing_edge(tour, rec.scope.representative_ids(centroids))
            requests.append(ElectionRequest(tour, marked))
        else:
            requests.append(None)  # single-node tree elects itself
    winners = elect_first_marked_many(
        engine,
        [r for r in requests if r is not None],
        section=f"{sections}:elect",
    )
    winner_iter = iter(winners)
    elected: List[Hashable] = []
    for req, centroids, rec in zip(requests, centroid_sets, recursions):
        if req is None:
            choice = next(iter(centroids))
        else:
            choice = rec.scope.unit_at(next(winner_iter))
        elected.append(choice)
        tree.parent[choice] = rec.caller
        tree.subtree_units[choice] = set(rec.scope.units)
    scope.announce_winner(engine)  # every recursion's winner, in parallel

    # Split at the elected centroids; one shared beep round on component
    # circuits (the union of each component's tree edges) decides which
    # components still hold Q' units.
    comp_label = f"{label}:comp"
    specs: List[Tuple[_Recursion, Hashable, Set[Hashable]]] = []
    for rec, choice in zip(recursions, elected):
        for component in split_components(rec.scope.unit_adjacency, choice):
            specs.append((rec, choice, component))
    nbr = engine.structure.grid_index().nbr
    edges = []
    for rec, _choice, component in specs:
        ids = rec.scope.node_ids_of(component)
        masks = rec.scope.masks
        for nid in ids:
            # Each tree edge once, from the endpoint it leaves E/NE/NW.
            mask = masks[nid]
            for d in (0, 1, 2):
                if mask >> d & 1 and nbr[nid * 6 + d] in ids:
                    edges.append(nid * 6 + d)
    layout = engine.edge_subset_layout(edges, label=comp_label, channel=0)
    beeps = layout.set_ids(
        (
            (nid, comp_label)
            for rec, choice, component in specs
            for nid in rec.scope.representative_ids((rec.q - {choice}) & component)
        ),
        "beep on",
    )
    # Each component circuit carries one bit; one probe per component
    # suffices (bits align with the spec order read below).
    listen = layout.set_ids(
        (
            (rec.scope.representative_ids((next(iter(component)),))[0], comp_label)
            for rec, _choice, component in specs
        ),
        "listen on",
    )
    received = engine.run_round_indexed(layout, beeps, listen)

    next_active: List[_Recursion] = []
    for heard, (rec, choice, component) in zip(received, specs):
        q_in_component = (rec.q - {choice}) & component
        if heard != bool(q_in_component):
            raise AssertionError("component beep disagrees with membership")
        if not q_in_component:
            continue
        # The centroid's neighbor inside the component roots the next
        # recursion (the paper's r_{Z_u} = u).
        sub_root = next(v for v in rec.scope.unit_adjacency[choice] if v in component)
        next_active.append(
            _Recursion(
                scope=rec.scope.restrict(component),
                root=sub_root,
                q=q_in_component,
                caller=choice,
            )
        )
    return elected, next_active
