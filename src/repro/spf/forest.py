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
from repro.ett.tour import edge_masks, euler_tour
from repro.pasc.runner import run_pasc
from repro.portals.portals import Portal, PortalSystem
from repro.portals.primitives import (
    PortalScope,
    portal_centroid_decomposition,
    portal_elect,
    portal_root_and_prune,
)
from repro.primitives.root_prune import RootPruneOp
from repro.sim.engine import CircuitEngine
from repro.spf.line import line_forest
from repro.spf.merge import merge_forests
from repro.spf.propagate import propagate_forest
from repro.spf.regions import Region, RegionDecomposition, SubPortal
from repro.spf.spt import shortest_path_tree
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

    system = PortalSystem(structure, axis)
    leader = structure.westernmost()
    root_portal = system.portal_of[leader]

    with engine.rounds.section(section):
        # ---- Step 1: Q, A_Q, Q' (Lemma 51) ----------------------------
        scope = PortalScope(system, index=engine.structure.grid_index())
        # Every source beeps on its portal circuit; Q is the set of
        # portals that heard.
        q_portals = scope.broadcast(engine, source_set)

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
                        engine, region, source_set, r_prime, rooted.parent,
                        axis, section,
                    )

        # ---- Step 4: merging along the decomposition tree --------------
        if len(q_prime) == 1:
            _merge_at_portal(
                engine, decomposition, next(iter(q_prime)), source_set, axis, section
            )
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
                                engine, decomposition, portal, source_set,
                                axis, section,
                            )

        final_regions = {id(decomposition.region_of_vertex(v)): decomposition.region_of_vertex(v)
                         for sides in decomposition.vertices_of.values()
                         for vs in sides.values() for v in vs}
        forests = [r.forest for r in final_regions.values()]
        if len(forests) != 1 or forests[0] is None:
            raise AssertionError(
                f"merging left {len(forests)} regions; expected one with a forest"
            )
        forest = forests[0]
        if forest.members != structure.nodes:
            raise AssertionError("final forest does not cover the structure")

        # ---- Step 5: prune to the destinations (Corollary 57) ----------
        if dest_set != structure.nodes:
            forest = _prune_to_destinations(engine, forest, dest_set, section)

    return forest


# ----------------------------------------------------------------------
# base case
# ----------------------------------------------------------------------


def _base_case(
    engine: CircuitEngine,
    region: Region,
    source_set: Set[Node],
    r_prime: Portal,
    portal_parent: Dict[Portal, Portal],
    axis: Axis,
    section: str,
) -> Optional[Forest]:
    """Lemma 54: an (S ∩ Y)-forest for one region (or None if S∩Y = ∅)."""
    boundary = region.boundary_vertices()
    if not boundary:
        raise AssertionError("region without boundary portal")
    portals_of_region = {v.portal for v in region.vertices}

    def is_lca(portal: Portal) -> bool:
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
    # portal graph, adjacent vertices sharing connector edges), so the
    # trusted constructor skips the O(n) re-validation flood fill.
    sub_structure = AmoebotStructure.from_validated(region.nodes)
    systems: Dict[Axis, PortalSystem] = {}  # of sub_structure, built on demand
    forest: Optional[Forest] = None
    for vertex in ordered:
        line_nodes = list(vertex.nodes)
        line_sources = [u for u in line_nodes if u in source_set]
        if not line_sources:
            continue
        partial = line_forest(
            engine, line_nodes, line_sources, section=f"{section}:line"
        )
        partial = propagate_forest(
            engine,
            sub_structure,
            line_nodes,
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
    portal: Portal,
    source_set: Set[Node],
    axis: Axis,
    section: str,
) -> None:
    """Lemma 55: merge all regions touching ``portal`` into one."""
    merged_inputs: List[Region] = []
    side_regions: Dict[str, Optional[Region]] = {}
    for side in ("N", "S"):
        vertices = decomposition.side_vertices(portal, side)
        region, consumed = _merge_side(
            engine, decomposition, portal, side, vertices, source_set, axis, section
        )
        side_regions[side] = region
        merged_inputs.extend(consumed)

    north = side_regions["N"]
    south = side_regions["S"]
    assert north is not None and south is not None

    # Phase 2: merge the two sides across the portal with two
    # propagations and a merge (or fewer when a side has no sources).
    combined_nodes = north.nodes | south.nodes
    overlap = north.nodes & south.nodes
    if not set(portal.nodes) <= overlap:
        raise AssertionError("portal is not shared by both side regions")
    # Both side regions are connected and share the portal, so their
    # union is connected: the trusted constructor applies.
    structure = AmoebotStructure.from_validated(combined_nodes)
    systems: Dict[Axis, PortalSystem] = {}  # of structure, built on demand

    forests = []
    for forest in (north.forest, south.forest):
        if forest is None:
            continue
        forests.append(
            propagate_forest(
                engine,
                structure,
                list(portal.nodes),
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
    decomposition: RegionDecomposition,
    portal: Portal,
    side: str,
    vertices: Sequence[SubPortal],
    source_set: Set[Node],
    axis: Axis,
    section: str,
) -> Tuple[Region, List[Region]]:
    """Phase 1 of Lemma 55 for one side of the portal.

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
    marks = [
        portal.nodes[i] for i in decomposition.marks.get((portal, side), [])
    ]
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
                    merged_pairs[j] = _merge_pair(
                        engine, west, east, marks[j], source_set, section
                    )
        rebuilt: List[Region] = []
        new_marks: List[Node] = []
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
    mark: Node,
    source_set: Set[Node],
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
        target_nodes = into.nodes
        # A region's node set is connected (see _base_case).
        sub = AmoebotStructure.from_validated(target_nodes)
        spt = shortest_path_tree(
            engine, sub, mark, target_nodes, section=f"{section}:pair_spt"
        )
        parent = dict(forest.parent)
        parent.update(spt.parent)
        return Forest(sources=set(forest.sources), parent=parent, members=combined)

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
    destinations: Set[Node],
    section: str,
) -> Forest:
    """Batched root-and-prune on every tree with Q = D (Corollary 57)."""
    ops: List[Tuple[Node, RootPruneOp]] = []
    index = engine.structure.grid_index()
    with engine.rounds.section(f"{section}:prune"):
        for source, parent_map in forest.tree_parent_maps().items():
            tree_nodes = {source} | set(parent_map)
            q = (destinations & tree_nodes) | {source}
            masks = edge_masks(index, parent_map.items(), (source,))
            tour = euler_tour(index, index.id_of(source), masks)
            q_ids = [index.id_of(u) for u in q]
            ops.append((source, RootPruneOp(tour, q_ids, tag=f"pr{source.x}_{source.y}")))
        chains = [op.ett_op.chain for _s, op in ops if op.ett_op.chain is not None]
        if chains:
            run_pasc(engine, chains, section=f"{section}:prune_pasc")

    parent: Dict[Node, Node] = {}
    members: Set[Node] = set(forest.sources)
    for source, op in ops:
        result = op.result()
        for u in result.in_vq:
            members.add(u)
            if u != source:
                parent[u] = result.parent[u]
    return Forest(sources=set(forest.sources), parent=parent, members=members)
