"""The divide & conquer shortest path forest algorithm (Section 5.4).

Outline (Theorem 56, ``O(log n log² k)`` rounds):

1. **Divide** (§5.4.1): the source portals ``Q`` of the x-axis are the
   portals that hear their sources beep (one round); compute their
   augmentation ``A_Q`` (portal root-and-prune, Lemma 51), and split the
   structure into regions along ``Q' = Q ∪ A_Q`` so that every region
   touches at most two ``Q'`` portals (Lemma 52).
2. **Base case** (§5.4.2): per region — all regions in parallel — run
   the line algorithm on the region's LCA boundary portal, propagate
   inward, repeat from the second boundary portal if present, and merge
   (Lemma 54).  Regions without sources keep an empty forest; sources
   reach them during merging.
3. **Conquer** (§5.4.3/5.4.4): walk the ``Q'``-centroid decomposition
   tree of the portal graph from its deepest level to the root —
   recomputed each iteration, as the amoebots cannot store it — and
   merge, for every portal of the current level in parallel, all
   regions touching that portal: pairwise along each side using the
   PASC-parity pairing across marked amoebots, then across the portal
   with two propagations and a merge (Lemma 55).
4. **Prune** (Corollary 57): one batched node-level root-and-prune per
   tree removes branches without destinations.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.grid.coords import Node
from repro.grid.directions import Axis
from repro.grid.structure import AmoebotStructure
from repro.pasc.runner import run_pasc
from repro.portals.portals import PortalSystem
from repro.portals.primitives import (
    PortalScope,
    portal_centroid_decomposition,
    portal_elect,
    portal_root_and_prune,
)
from repro.primitives.root_prune import RootPruneOp
from repro.sim.engine import CircuitEngine
from repro.spf.line import line_forest_ids
from repro.spf.merge import merge_forests
from repro.spf.propagate import propagate_forest_ids
from repro.spf.regions import Region, RegionDecomposition, SubPortal
from repro.spf.spt import shortest_path_tree_ids
from repro.spf.types import Forest


def shortest_path_forest(
    engine: CircuitEngine,
    structure: AmoebotStructure,
    sources: Iterable[Node],
    destinations: Optional[Iterable[Node]] = None,
    axis: Axis = Axis.X,
    section: str = "forest",
) -> Forest:
    """Compute an (S, D)-shortest path forest (Theorem 56 / Cor. 57).

    ``destinations`` defaults to the whole structure (no final pruning).
    """
    source_set = set(sources)
    if not source_set:
        raise ValueError("need at least one source")
    missing = source_set - structure.nodes
    if missing:
        raise ValueError(f"sources outside the structure: {sorted(missing)[:3]}")
    dest_set = set(destinations) if destinations is not None else set(structure.nodes)

    index = engine.structure.grid_index()
    id_of = index.id_of
    source_ids = {id_of(s) for s in source_set}
    system = PortalSystem(engine.structure, axis)
    root_portal = system.portal_index_of_id[id_of(structure.westernmost())]

    with engine.rounds.section(section):
        # ---- Step 1: Q, A_Q, Q' (Lemma 51) ----------------------------
        scope = PortalScope(system)
        # Every source beeps on its portal circuit; Q is the set of
        # portals that heard.
        q_portals = scope.broadcast(engine, source_ids)

        rp = portal_root_and_prune(
            engine,
            system,
            root_portal,
            q_portals,
            scope=scope,
            compute_augmentation=True,
            section=f"{section}:q_prime",
        )
        q_prime = q_portals | rp.augmentation

        # ---- Step 2: regions (Lemma 52; O(1) rounds) ------------------
        decomposition = RegionDecomposition(system, q_prime, rp.in_vq)
        regions = decomposition.build_regions()
        engine.charge_local_round()  # unmark-westernmost beep (§5.4.1)

        # ---- Step 3: base case (Lemma 54) ------------------------------
        r_prime = portal_elect(
            engine, system, root_portal, q_prime, scope=scope,
            section=f"{section}:elect",
        )
        rooted = portal_root_and_prune(
            engine,
            system,
            r_prime,
            q_prime,
            scope=scope,
            section=f"{section}:root_at_rprime",
        )
        engine.charge_local_round()  # P_DSC-presence beep per region
        with engine.rounds.parallel() as group:
            for region in regions:
                with group.branch():
                    region.forest = _base_case(
                        engine, region, source_ids, r_prime, rooted.parent,
                        axis, section,
                    )

        # ---- Step 4: merging along the decomposition tree --------------
        if len(q_prime) == 1:
            _merge_at_portal(engine, decomposition, next(iter(q_prime)), axis, section)
        else:
            dt = portal_centroid_decomposition(
                engine, system, r_prime, q_prime, scope=scope,
                section=f"{section}:decomposition",
            )
            height = dt.height
            for iteration in range(height):
                level = height - 1 - iteration
                if iteration > 0:
                    # The amoebots cannot store the decomposition tree;
                    # it is recomputed every iteration (§5.4.4) and the
                    # binary-counter technique selects the right level.
                    dt = portal_centroid_decomposition(
                        engine, system, r_prime, q_prime, scope=scope,
                        section=f"{section}:decomposition",
                    )
                with engine.rounds.parallel() as group:
                    for portal in dt.levels[level]:
                        with group.branch():
                            _merge_at_portal(
                                engine, decomposition, portal, axis, section
                            )

        final_regions = {id(decomposition.region_of_vertex(v)): decomposition.region_of_vertex(v)
                         for sides in decomposition.vertices_of
                         for vs in sides.values() for v in vs}
        forests = [r.forest for r in final_regions.values()]
        if len(forests) != 1 or forests[0] is None:
            raise AssertionError(
                f"merging left {len(forests)} regions; expected one with a forest"
            )
        forest = forests[0]
        if len(forest) != len(structure):
            raise AssertionError("final forest does not cover the structure")

        # ---- Step 5: prune to the destinations (Corollary 57) ----------
        if dest_set != structure.nodes:
            dest_ids = {id_of(d) for d in dest_set}
            forest = _prune_to_destinations(engine, forest, dest_ids, section)

    return forest


# ----------------------------------------------------------------------
# base case
# ----------------------------------------------------------------------


def _base_case(
    engine: CircuitEngine,
    region: Region,
    source_ids: Set[int],
    r_prime: int,
    portal_parent: Dict[int, int],
    axis: Axis,
    section: str,
) -> Optional[Forest]:
    """Lemma 54: an (S ∩ Y)-forest for one region (or None if S∩Y = ∅)."""
    boundary = region.boundary_vertices()
    if not boundary:
        raise AssertionError("region without boundary portal")
    portals_of_region = {v.portal for v in region.vertices}

    def is_lca(portal: int) -> bool:
        if portal == r_prime:
            return True
        parent = portal_parent.get(portal)
        return parent not in portals_of_region

    boundary_portals = sorted({v.portal for v in boundary})
    lca_candidates = [p for p in boundary_portals if is_lca(p)]
    if len(lca_candidates) != 1:
        raise AssertionError(
            f"region has {len(lca_candidates)} LCA portals (Lemma 53 violated)"
        )
    lca = lca_candidates[0]
    ordered = [v for v in boundary if v.portal == lca] + [
        v for v in boundary if v.portal != lca
    ]

    # Regions are connected by construction (components of the split
    # portal graph, adjacent vertices sharing connector edges).
    systems: Dict[Axis, PortalSystem] = {}  # over region.nodes, built on demand
    forest: Optional[Forest] = None
    for vertex in ordered:
        line_ids = vertex.nodes
        line_sources = [u for u in line_ids if u in source_ids]
        if not line_sources:
            continue
        partial = line_forest_ids(engine, line_ids, line_sources, section=f"{section}:line")
        partial = propagate_forest_ids(
            engine,
            region.nodes,
            line_ids,
            partial,
            axis=axis,
            section=f"{section}:base_propagate",
            systems=systems,
        )
        forest = (
            partial
            if forest is None
            else merge_forests(engine, forest, partial, section=f"{section}:base_merge")
        )
    return forest


# ----------------------------------------------------------------------
# merging along one portal (§5.4.3)
# ----------------------------------------------------------------------


def _merge_at_portal(
    engine: CircuitEngine,
    decomposition: RegionDecomposition,
    portal: int,
    axis: Axis,
    section: str,
) -> None:
    """Lemma 55: merge all regions touching ``portal`` into one."""
    merged_inputs: List[Region] = []
    side_regions: Dict[str, Optional[Region]] = {}
    for side in ("N", "S"):
        vertices = decomposition.side_vertices(portal, side)
        region, consumed = _merge_side(engine, vertices, decomposition, section)
        side_regions[side] = region
        merged_inputs.extend(consumed)

    north = side_regions["N"]
    south = side_regions["S"]
    assert north is not None and south is not None

    # Phase 2: merge the two sides across the portal with two
    # propagations and a merge (or fewer when a side has no sources).
    combined_nodes = north.nodes | south.nodes
    portal_ids = decomposition.system.runs[portal]
    if not north.nodes.intersection(south.nodes).issuperset(portal_ids):
        raise AssertionError("portal is not shared by both side regions")
    # Both side regions are connected and share the portal, so their
    # union is connected.
    systems: Dict[Axis, PortalSystem] = {}  # over combined_nodes, built on demand

    forests = []
    for forest in (north.forest, south.forest):
        if forest is None:
            continue
        forests.append(
            propagate_forest_ids(
                engine,
                combined_nodes,
                portal_ids,
                forest,
                axis=axis,
                section=f"{section}:merge_propagate",
                systems=systems,
            )
        )
    if len(forests) == 2:
        merged_forest: Optional[Forest] = merge_forests(
            engine, forests[0], forests[1], section=f"{section}:merge_merge"
        )
    elif len(forests) == 1:
        merged_forest = forests[0]
    else:
        merged_forest = None

    merged_region = Region(
        vertices=north.vertices + [v for v in south.vertices if v not in north.vertices],
        nodes=combined_nodes,
        forest=merged_forest,
    )
    decomposition.replace_regions(merged_inputs + [north, south], merged_region)


def _merge_side(
    engine: CircuitEngine,
    vertices: Sequence[SubPortal],
    decomposition: RegionDecomposition,
    section: str,
) -> Tuple[Region, List[Region]]:
    """Phase 1 of Lemma 55 for one side of a portal (its ``vertices``).

    Iteratively pair-merges the side's regions across the marked
    amoebots using the PASC-parity pairing until one region remains.
    Returns the surviving region and the list of consumed input regions.
    """
    groups: List[Region] = []
    for vertex in vertices:
        region = decomposition.region_of_vertex(vertex)
        if not groups or groups[-1] is not region:
            groups.append(region)
    consumed = list(groups)
    # Every interval but the westernmost starts at a marked amoebot.
    marks = [vertex.nodes[0] for vertex in vertices[1:]]
    if len(marks) != len(groups) - 1:
        raise AssertionError("marks and side regions are inconsistent")

    while marks:
        # Termination test + one PASC iteration for the parity pairing.
        # Charged through the engine (not the raw counter) so an
        # event-driven engine simulates the activation epochs too.
        engine.charge_local_round(1)  # beep: are marked amoebots left?
        engine.charge_local_round(2)  # one PASC iteration on P with M
        # M' = the odd-parity marks (every other one, starting with the
        # westernmost); pair the regions around each of them.
        with engine.rounds.parallel() as group:
            merged_pairs: Dict[int, Region] = {}
            for j in range(0, len(marks), 2):
                west, east = groups[j], groups[j + 1]
                with group.branch():
                    merged_pairs[j] = _merge_pair(engine, west, east, marks[j], section)
        rebuilt: List[Region] = []
        new_marks: List[int] = []
        for j in range(0, len(marks), 2):
            rebuilt.append(merged_pairs[j])
            if j + 1 < len(marks):
                new_marks.append(marks[j + 1])
        if len(marks) % 2 == 0:
            rebuilt.append(groups[-1])
        groups = rebuilt
        marks = new_marks
    engine.charge_local_round(1)  # final silence on the termination circuit
    return groups[0], consumed


def _merge_pair(
    engine: CircuitEngine,
    west: Region,
    east: Region,
    mark: int,
    section: str,
) -> Region:
    """Merge two regions sharing exactly the marked amoebot (§5.4.3).

    Every shortest path between the regions passes the marked amoebot,
    so each forest extends into the other region via a shortest path
    tree rooted there (Theorem 39), and the merging algorithm combines
    the two extensions (Lemma 42).
    """
    overlap = west.nodes & east.nodes
    if mark not in overlap:
        raise AssertionError("paired regions do not share their marked amoebot")
    combined = west.nodes | east.nodes

    def extend(forest: Optional[Forest], into: Region) -> Optional[Forest]:
        if forest is None:
            return None
        # A region's node set is connected (see _base_case).
        spt = shortest_path_tree_ids(
            engine, into.nodes, mark, into.nodes, section=f"{section}:pair_spt"
        )
        parent = dict(forest.parent_ids)
        parent.update(spt.forest.parent_ids)
        return Forest(forest.index, forest.source_ids, parent)

    extended_west = extend(west.forest, east)
    extended_east = extend(east.forest, west)
    if extended_west is not None and extended_east is not None:
        forest: Optional[Forest] = merge_forests(
            engine, extended_west, extended_east, section=f"{section}:pair_merge"
        )
    else:
        forest = extended_west or extended_east

    return Region(
        vertices=west.vertices + [v for v in east.vertices if v not in west.vertices],
        nodes=combined,
        forest=forest,
    )


# ----------------------------------------------------------------------
# final pruning (Corollary 57)
# ----------------------------------------------------------------------


def _prune_to_destinations(
    engine: CircuitEngine,
    forest: Forest,
    destinations: Set[int],
    section: str,
) -> Forest:
    """Batched root-and-prune on every tree with Q = D (Corollary 57)."""
    index = forest.index
    nodes = index.nodes
    with engine.rounds.section(f"{section}:prune"):
        ops = [
            RootPruneOp.of_tree(index, s, tree, destinations, tag=f"pr{nodes[s].x}_{nodes[s].y}")
            for s, tree in forest.trees().items()
        ]
        chains = [op.ett_op.chain for op in ops if op.ett_op.chain is not None]
        if chains:
            run_pasc(engine, chains, section=f"{section}:prune_pasc")

    parent: Dict[int, int] = {}
    for op in ops:
        parent.update(op.result().parent)
    return Forest(index, forest.source_ids, parent)
