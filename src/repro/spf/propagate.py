"""The propagation algorithm (Section 5.3, Lemma 50).

A portal ``P`` divides the structure into the side ``A ∪ P`` already
covered by a forest (``S ⊆ A ∪ P``) and the remainder ``B``; the
algorithm extends the forest into ``B`` in ``O(log n)`` rounds.  ``B``
is simply the set of amoebots not yet in the forest — this also covers
structures that wrap around an end of ``P``.

Phase 1 — the visibility region ``B' = B ∩ vis(P)``:
  one beep round on the transversal (y-/z-) portal circuits: every
  ``p ∈ P`` beeps on both of its portals and every ``B``-amoebot
  listens on both of its own, so what it hears says whether it is
  visible along its y-portal, its z-portal, or both.
  Single-sided amoebots take the neighbor toward their sole projection
  as parent (Lemma 47).  Double-sided amoebots learn
  ``dist(S, proj_y)`` and ``dist(S, proj_z)`` — PASC over the existing
  forest computes ``dist(S, ·)`` and the portal circuits forward the
  bits in the same iterations — and take the neighbor toward the closer
  projection (Lemma 46).

Phase 2 — the shadowed remainder ``B'' = B \\ vis(P)``:
  every connected component ``Z`` of ``B''`` is reached through the
  gateway amoebot ``s_Z`` of ``Z`` closest to ``P``'s grid line (Lemmas
  48/49); ``s_Z`` hooks onto its closest-to-``P`` visible neighbor and a
  shortest path tree with source ``s_Z`` covers ``Z`` (Theorem 39).
  All components run in parallel.

Scheduler contract: every round runs through the engine's hooks
(``run_round_indexed`` / ``charge_local_round``), so the
propagation runs unchanged under the event-driven engines of
:mod:`repro.sched` — delayed amoebots delay epochs, never outcomes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.grid.coords import Node
from repro.grid.directions import Axis, Direction
from repro.grid.structure import AmoebotStructure
from repro.portals.portals import PortalSystem
from repro.portals.primitives import portal_run_edges, portal_runs_key
from repro.sim.engine import CircuitEngine
from repro.spf.merge import forest_distances
from repro.spf.types import Forest


def _line_coordinate(node: Node, axis: Axis) -> int:
    """Coordinate identifying the ``axis``-parallel line of a node."""
    return node.axis_coordinate(axis)


def _toward_direction(axis: Axis, other: Axis, gap_sign: int) -> Direction:
    """Direction along ``other`` that moves toward the portal's line.

    ``gap_sign`` is the sign of ``coord(u) - coord(P)`` on ``axis``;
    stepping in the returned direction shrinks the gap.
    """
    pos, neg = other.directions
    pos_delta = _line_coordinate(Node(0, 0).neighbor(pos), axis)
    if pos_delta == -gap_sign:
        return pos
    return neg


def _vis_label(axis: Axis) -> str:
    return f"vis:{axis.name}"


def visibility_layout(engine: CircuitEngine, systems: Dict[Axis, PortalSystem]):
    """The transversal portal circuits of Phase 1, one per portal.

    Each axis of ``systems`` wires its portals' internal edges into its
    own partition set per amoebot (label ``vis:<axis>``), so the two
    axes' circuits stay apart where they cross, and one layout carries
    both: one round lets every ``p`` in ``P`` beep on both its circuits.
    """
    keys = {
        _vis_label(d): portal_runs_key(engine, ((d, p) for p in system.portals))
        for d, system in systems.items()
    }
    return engine.edge_subsets_layout(
        {label: portal_run_edges(engine, key) for label, key in keys.items()},
        channel=4,
        key=tuple(keys.values()),
    )


def propagate_forest(
    engine: CircuitEngine,
    structure: AmoebotStructure,
    portal_nodes: Sequence[Node],
    forest: Forest,
    axis: Axis = Axis.X,
    section: str = "propagate",
    systems: Optional[Dict[Axis, PortalSystem]] = None,
) -> Forest:
    """Extend an ``A ∪ P`` forest across portal ``P`` into the rest.

    ``portal_nodes`` is the portal run ``P`` inside ``structure`` (all
    on one ``axis``-parallel line, all forest members).  ``B`` is the
    complement of the forest's members.  Returns an S-forest covering
    the whole structure (Lemma 50).

    ``systems`` holds portal systems of ``structure`` that the caller
    already has; the transversal axes missing from it are built and
    added, so a caller propagating several forests over one structure
    builds each system once.
    """
    portal = list(portal_nodes)
    if not portal:
        raise ValueError("portal must be non-empty")
    line = _line_coordinate(portal[0], axis)
    if any(_line_coordinate(p, axis) != line for p in portal):
        raise ValueError("portal nodes do not share a grid line")
    portal_set = set(portal)
    if not portal_set <= forest.members:
        raise ValueError("the portal must be covered by the forest")
    if not forest.members <= structure.nodes:
        raise ValueError("forest members outside the structure")

    b_nodes = structure.nodes - forest.members
    if not b_nodes:
        return forest

    other_axes = axis.others
    if systems is None:
        systems = {}
    for d in other_axes:
        if d not in systems:
            systems[d] = PortalSystem(structure, d)

    with engine.rounds.section(section):
        # ---- Phase 1: visibility + parents inside B' ------------------
        # One beep round: every p in P beeps on its two transversal
        # portal circuits and every B-amoebot listens on both of its
        # own; it hears on an axis iff its portal on that axis meets P.
        layout = visibility_layout(engine, systems)
        id_of = engine.structure.grid_index().id_of
        labels = [_vis_label(d) for d in other_axes]
        ordered = sorted(b_nodes)
        beeps = ((id_of(p), label) for p in portal for label in labels)
        listen = ((id_of(u), label) for u in ordered for label in labels)
        bits = engine.run_round_indexed(
            layout, layout.set_ids(beeps, "beep on"), layout.set_ids(listen, "listen on")
        )
        visible: Dict[Node, List[Axis]] = {}
        for i, u in enumerate(ordered):
            axes = [d for j, d in enumerate(other_axes) if bits[2 * i + j]]
            if axes:
                visible[u] = axes
        b_prime = set(visible)
        b_shadow = b_nodes - b_prime

        parent: Dict[Node, Node] = dict(forest.parent)

        # Distances on P via PASC over the existing forest; the portal
        # circuits forward the bits to doubly-visible amoebots within
        # the same iterations (no extra rounds, per the paper), so
        # ``meets`` only names the projection whose distance arrives:
        # where each transversal portal meets P.
        meets: Dict[Axis, List[Optional[Node]]] = {}
        dist_on_p: Dict[Node, int] = {}
        if any(len(axes) == 2 for axes in visible.values()):
            for d in other_axes:
                meets[d] = [
                    next((p for p in run.nodes if p in portal_set), None)
                    for run in systems[d].portals
                ]
            all_dist = forest_distances(
                engine, forest, channels=(0, 1), tag="prop", section=f"{section}:pasc"
            )
            dist_on_p = {p: all_dist[p] for p in portal}

        grid = structure.grid_index()
        for u, axes in visible.items():
            gap_sign = 1 if _line_coordinate(u, axis) > line else -1
            d = axes[0]
            if len(axes) == 2:
                nid = grid.id_of(u)
                p1, p2 = (meets[e][systems[e].portal_index_of_id[nid]] for e in axes)
                # Prefer the first transversal axis on ties, matching the
                # paper's "chooses n_y(u) if dist(S, proj_y) <= dist(S,
                # proj_z)".
                if dist_on_p[p1] > dist_on_p[p2]:
                    d = axes[1]
            parent[u] = u.neighbor(_toward_direction(axis, d, gap_sign))
        engine.charge_local_round()

        # ---- Phase 2: shadowed components -----------------------------
        components = _shadow_components(structure, b_shadow)
        with engine.rounds.parallel() as group:
            for component in components:
                with group.branch():
                    _propagate_into_shadow(
                        engine,
                        structure,
                        component,
                        b_prime,
                        parent,
                        axis,
                        line,
                        section=section,
                    )

    return Forest(
        sources=set(forest.sources),
        parent=parent,
        members=set(structure.nodes),
    )


def _shadow_components(
    structure: AmoebotStructure, shadow: Set[Node]
) -> List[Set[Node]]:
    """Connected components of ``B''`` inside the structure."""
    remaining = set(shadow)
    components = []
    while remaining:
        start = remaining.pop()
        component = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in structure.neighbors(u):
                if v in remaining:
                    remaining.discard(v)
                    component.add(v)
                    stack.append(v)
        components.append(component)
    return components


def _propagate_into_shadow(
    engine: CircuitEngine,
    structure: AmoebotStructure,
    component: Set[Node],
    b_prime: Set[Node],
    parent: Dict[Node, Node],
    axis: Axis,
    line: int,
    section: str,
) -> None:
    """Phase 2 for one shadowed component ``Z`` (mutates ``parent``)."""
    # Local import: propagate and spt call each other across the two
    # halves of the algorithm (SPT never propagates, so no cycle).
    from repro.spf.spt import shortest_path_tree

    def level(u: Node) -> int:
        return abs(_line_coordinate(u, axis) - line)

    gateway_candidates = {
        u for u in component if any(v in b_prime for v in structure.neighbors(u))
    }
    if not gateway_candidates:
        raise AssertionError("shadow component without visible neighbors")
    s_z = min(gateway_candidates, key=lambda u: (level(u), u.x, u.y))
    visible_neighbors = [v for v in structure.neighbors(s_z) if v in b_prime]
    b_z = min(visible_neighbors, key=lambda v: (level(v), v.x, v.y))
    parent[s_z] = b_z

    if len(component) == 1:
        engine.charge_local_round()
        return

    # Shortest path tree with source s_Z inside Z (Theorem 39 on the
    # component sub-structure, destinations = all of Z).  The component
    # was flood-filled, so it is connected and the trusted constructor
    # skips re-validation.
    sub = AmoebotStructure.from_validated(component)
    spt = shortest_path_tree(
        engine,
        sub,
        s_z,
        component,
        section=f"{section}:shadow_spt",
    )
    for u, p in spt.parent.items():
        parent[u] = p
