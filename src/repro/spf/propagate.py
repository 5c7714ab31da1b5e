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

import functools
from typing import Dict, List, Optional, Sequence, Set

from repro.grid.coords import Node
from repro.grid.directions import DIRECTION_OFFSETS, Axis, Direction
from repro.grid.structure import AmoebotStructure
from repro.portals.portals import PortalSystem
from repro.portals.primitives import portal_run_edges, portal_runs_key
from repro.sim.engine import CircuitEngine
from repro.spf.merge import forest_distances
from repro.spf.types import Forest


@functools.lru_cache(maxsize=None)
def _toward_direction(axis: Axis, other: Axis, gap_sign: int) -> Direction:
    """Direction along ``other`` that moves toward the portal's line.

    ``gap_sign`` is the sign of ``coord(u) - coord(P)`` on ``axis``;
    stepping in the returned direction shrinks the gap.
    """
    pos, neg = other.directions
    dx, dy = DIRECTION_OFFSETS[pos]
    pos_delta = (dy, dx, dx + dy)[axis]  # Node.axis_coordinate of the step
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
        _vis_label(d): portal_runs_key(engine, ((d, run) for run in system.runs))
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
) -> Forest:
    """Extend an ``A ∪ P`` forest across portal ``P`` into the rest.

    The ``Node`` boundary of :func:`propagate_forest_ids`: ``structure``
    is the engine's structure or a connected, hole-free sub-structure
    of it, and ``portal_nodes`` the portal run ``P`` inside it; both
    are converted to grid-index ids once.
    """
    id_of = engine.structure.grid_index().id_of
    members = None if structure is engine.structure else {id_of(u) for u in structure}
    portal_ids = [id_of(p) for p in portal_nodes]
    if None in portal_ids:
        raise ValueError("portal nodes outside the structure")
    return propagate_forest_ids(engine, members, portal_ids, forest, axis, section)


def propagate_forest_ids(
    engine: CircuitEngine,
    members: Optional[Set[int]],
    portal_ids: Sequence[int],
    forest: Forest,
    axis: Axis = Axis.X,
    section: str = "propagate",
    systems: Optional[Dict[Axis, PortalSystem]] = None,
) -> Forest:
    """Extend an ``A ∪ P`` forest across portal ``P`` into the rest.

    ``members`` is a connected, hole-free set of ids of the engine
    structure's grid index (``None``: all of them), and ``portal_ids``
    the portal run ``P`` inside it (all on one ``axis``-parallel line,
    all forest members).  ``B`` is the complement of the forest's
    members, visited in id order.  Returns an S-forest covering all of
    ``members`` (Lemma 50), in the engine's ids like ``forest``.

    ``systems`` holds portal systems over ``members`` that the caller
    already has; the transversal axes missing from it are built and
    added, so a caller propagating several forests over one member set
    builds each system once.
    """
    portal = list(portal_ids)
    if not portal:
        raise ValueError("portal must be non-empty")
    grid = engine.structure.grid_index()
    nodes = grid.nodes
    line = nodes[portal[0]].axis_coordinate(axis)
    if any(nodes[p].axis_coordinate(axis) != line for p in portal):
        raise ValueError("portal nodes do not share a grid line")
    covered = forest.member_ids()
    if not covered.issuperset(portal):
        raise ValueError("the portal must be covered by the forest")
    if members is None:
        members = set(grid.live_ids())
    if not covered <= members:
        raise ValueError("forest members outside the structure")

    b_ids = sorted(members - covered)
    if not b_ids:
        return forest

    other_axes = axis.others
    if systems is None:
        systems = {}
    for d in other_axes:
        if d not in systems:
            systems[d] = PortalSystem(engine.structure, d, members)

    with engine.rounds.section(section):
        # ---- Phase 1: visibility + parents inside B' ------------------
        # One beep round: every p in P beeps on its two transversal
        # portal circuits and every B-amoebot listens on both of its
        # own; it hears on an axis iff its portal on that axis meets P.
        layout = visibility_layout(engine, systems)
        labels = [_vis_label(d) for d in other_axes]
        beeps = ((p, label) for p in portal for label in labels)
        listen = ((u, label) for u in b_ids for label in labels)
        bits = engine.run_round_indexed(
            layout, layout.set_ids(beeps, "beep on"), layout.set_ids(listen, "listen on")
        )
        visible: Dict[int, List[Axis]] = {}
        for i, u in enumerate(b_ids):
            axes = [d for j, d in enumerate(other_axes) if bits[2 * i + j]]
            if axes:
                visible[u] = axes
        b_prime = set(visible)
        b_shadow = set(b_ids).difference(b_prime)

        parent: Dict[int, int] = dict(forest.parent_ids)

        # Distances on P via PASC over the existing forest; the portal
        # circuits forward the bits to doubly-visible amoebots within
        # the same iterations (no extra rounds, per the paper), so
        # ``meets`` only names the projection whose distance arrives:
        # a transversal portal crosses P's line once, at one p in P.
        meets: Dict[Axis, Dict[int, int]] = {}
        dist: Dict[int, int] = {}
        if any(len(axes) == 2 for axes in visible.values()):
            for d in other_axes:
                index_of = systems[d].portal_index_of_id
                meets[d] = {index_of[p]: p for p in portal}
            dist = forest_distances(
                engine, forest, channels=(0, 1), tag="prop", section=f"{section}:pasc"
            )

        nbr = grid.nbr
        for u, axes in visible.items():
            gap_sign = 1 if nodes[u].axis_coordinate(axis) > line else -1
            d = axes[0]
            if len(axes) == 2:
                p1, p2 = (meets[e][systems[e].portal_index_of_id[u]] for e in axes)
                # Prefer the first transversal axis on ties, matching the
                # paper's "chooses n_y(u) if dist(S, proj_y) <= dist(S,
                # proj_z)".
                if dist[p1] > dist[p2]:
                    d = axes[1]
            # The step toward P stays on u's transversal portal, which
            # meets P: the neighbor is a member.
            parent[u] = nbr[u * 6 + _toward_direction(axis, d, gap_sign)]
        engine.charge_local_round()

        # ---- Phase 2: shadowed components -----------------------------
        components = _shadow_components(grid, b_shadow)
        with engine.rounds.parallel() as group:
            for component in components:
                with group.branch():
                    _propagate_into_shadow(
                        engine,
                        component,
                        b_prime,
                        parent,
                        axis,
                        line,
                        section=section,
                    )

    return Forest(grid, forest.source_ids, parent)


def _shadow_components(grid, shadow: Set[int]) -> List[Set[int]]:
    """Connected components of ``B''`` (engine ids)."""
    nbr = grid.nbr
    remaining = set(shadow)
    components = []
    while remaining:
        start = remaining.pop()
        component = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in nbr[u * 6 : u * 6 + 6]:
                if v in remaining:
                    remaining.discard(v)
                    component.add(v)
                    stack.append(v)
        components.append(component)
    return components


def _propagate_into_shadow(
    engine: CircuitEngine,
    component: Set[int],
    b_prime: Set[int],
    parent: Dict[int, int],
    axis: Axis,
    line: int,
    section: str,
) -> None:
    """Phase 2 for one shadowed component ``Z`` (mutates ``parent``)."""
    # Local import: propagate and spt call each other across the two
    # halves of the algorithm (SPT never propagates, so no cycle).
    from repro.spf.spt import shortest_path_tree_ids

    grid = engine.structure.grid_index()
    nodes = grid.nodes
    nbr = grid.nbr

    def closest(candidates: List[int]) -> int:
        """The candidate closest to P's line, ties by node order."""
        return min(
            candidates,
            key=lambda u: (abs(nodes[u].axis_coordinate(axis) - line), nodes[u]),
        )

    gateway_candidates = [u for u in component if any(v in b_prime for v in nbr[u * 6 : u * 6 + 6])]
    if not gateway_candidates:
        raise AssertionError("shadow component without visible neighbors")
    s_z = closest(gateway_candidates)
    parent[s_z] = closest([v for v in nbr[s_z * 6 : s_z * 6 + 6] if v in b_prime])

    if len(component) == 1:
        engine.charge_local_round()
        return

    # Shortest path tree with source s_Z inside Z (Theorem 39 on the
    # component's amoebots, destinations = all of Z; the component was
    # flood-filled, so it is connected).
    spt = shortest_path_tree_ids(
        engine, component, s_z, component, section=f"{section}:shadow_spt"
    )
    parent.update(spt.forest.parent_ids)
