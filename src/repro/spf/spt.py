"""The shortest path tree algorithm for a single source (Section 4).

Pipeline (Theorem 39, ``O(log l)`` rounds overall):

1. One beep round per axis: destinations beep on their portal circuits,
   and the portals that hear are the destination portals.
2. For each of the three axes, the portal root-and-prune primitive roots
   the portal tree at the source's portal and prunes subtrees without
   destination portals (Lemma 33).
3. Every amoebot picks a *feasible parent* locally: neighbor ``v`` is
   feasible iff, for both axes not parallel to the edge ``(u, v)``,
   ``v``'s portal is the parent of ``u``'s portal (Equation 1 via
   Lemma 11).  Amoebots on source-destination shortest paths always find
   one (Lemma 38); others may not, or may form stray subtrees.
4. The chosen parent edges form a forest in which distances to the
   source strictly decrease along parents; a node-level root-and-prune
   on the source's component extracts the shortest path tree and prunes
   subtrees without destinations.  Components not containing the source
   hear no signals during that pass and drop out.

Scheduler contract: every step runs through the engine's round hooks
(``run_round_indexed`` for beep rounds, ``charge_local_round`` for pure
local recomputation), never the raw counter — so executing on an
event-driven :class:`~repro.sched.ActivationEngine` simulates one
activation epoch per round and the algorithm is correct under any
scheduler via round synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.grid.coords import Node
from repro.grid.directions import Axis
from repro.grid.structure import AmoebotStructure
from repro.ett.tour import edge_masks
from repro.portals.portals import Portal, PortalSystem
from repro.portals.primitives import PortalScope, portal_root_and_prune
from repro.primitives.root_prune import root_and_prune_scope
from repro.primitives.scope import NodeScope
from repro.sim.engine import CircuitEngine


@dataclass
class SPTResult:
    """Output of the shortest path tree algorithm."""

    source: Node
    destinations: Set[Node]
    parent: Dict[Node, Node]
    members: Set[Node]
    #: Parent choices before the final pruning pass (Figure 5b); kept for
    #: figures and white-box tests.
    raw_parent: Dict[Node, Node] = field(default_factory=dict)

    def path_from(self, node: Node) -> List[Node]:
        """The tree path from ``node`` up to the source."""
        path = [node]
        while path[-1] != self.source:
            path.append(self.parent[path[-1]])
        return path


def feasible_parents(
    structure: AmoebotStructure,
    systems: Dict[Axis, PortalSystem],
    portal_parents: Dict[Axis, Dict[Portal, Portal]],
    node: Node,
) -> List[Node]:
    """All feasible parents of ``node`` per Equation 1.

    The edge to neighbor ``v`` is parallel to exactly one axis, on which
    both endpoints share a portal; ``v`` is feasible iff on the two
    remaining axes the parent of ``node``'s portal is ``v``'s portal.
    """
    result = []
    for v in structure.neighbors(node):
        edge_axis = node.direction_to(v).axis
        ok = True
        for axis in edge_axis.others:
            parents = portal_parents[axis]
            pu = systems[axis].portal_of[node]
            pv = systems[axis].portal_of[v]
            if parents.get(pu) != pv:
                ok = False
                break
        if ok:
            result.append(v)
    return result


def shortest_path_tree(
    engine: CircuitEngine,
    structure: AmoebotStructure,
    source: Node,
    destinations: Iterable[Node],
    systems: Optional[Dict[Axis, PortalSystem]] = None,
    section: str = "spt",
) -> SPTResult:
    """Compute an ``({s}, D)``-shortest path forest (Theorem 39).

    ``systems`` may carry precomputed portal systems (the forest
    algorithm reuses them across many invocations on sub-structures).
    """
    dest_set = set(destinations)
    if not dest_set:
        raise ValueError("destination set must be non-empty")
    if source not in structure:
        raise ValueError("source must belong to the structure")
    missing = {d for d in dest_set if d not in structure}
    if missing:
        raise ValueError(f"destinations outside the structure: {sorted(missing)[:3]}")
    if systems is None:
        systems = {axis: PortalSystem(structure, axis) for axis in Axis}

    with engine.rounds.section(section):
        portal_parents: Dict[Axis, Dict[Portal, Portal]] = {}
        for axis in Axis:
            system = systems[axis]
            scope = PortalScope(system, index=engine.structure.grid_index())
            # One beep round: every destination beeps on its portal
            # circuit, and Q is the set of portals that heard.  The
            # source's own portal counts as populated even without
            # destinations, so the root is never pruned away.
            q_portals = scope.broadcast(engine, dest_set)
            rp = portal_root_and_prune(
                engine,
                system,
                system.portal_of[source],
                q_portals | {system.portal_of[source]},
                scope=scope,
                section=f"{section}:portal_rp",
            )
            portal_parents[axis] = rp.parent

        # Local parent choice (one local round: no beeps involved),
        # evaluated over the grid index: Equation 1 becomes a handful
        # of integer array reads per (node, neighbor) pair.  Equivalent
        # to calling :func:`feasible_parents` per node and taking the
        # first hit — neighbor ids ascend in direction order, which is
        # exactly the ccw-from-East order ``structure.neighbors`` uses.
        grid = structure.grid_index()
        nbr = grid.nbr
        nodes_of = grid.nodes
        portal_idx = [systems[axis].portal_index_of_id for axis in Axis]
        parent_idx: List[List[int]] = []
        for axis in Axis:
            portals = systems[axis].portals
            position = {p: i for i, p in enumerate(portals)}
            row = [-1] * len(portals)
            for child, par in portal_parents[axis].items():
                row[position[child]] = position[par]
            parent_idx.append(row)
        raw_parent: Dict[Node, Node] = {}
        source_id = grid.id_of(source)
        for nid in grid.live_ids():
            if nid == source_id:
                continue
            base = nid * 6
            for d in range(6):
                vid = nbr[base + d]
                if vid < 0:
                    continue
                # The edge's axis value is d % 3; the two other axes
                # must both see v's portal as the parent of u's.
                edge_axis = d % 3
                feasible = True
                for axis_value in (0, 1, 2):
                    if axis_value == edge_axis:
                        continue
                    idx = portal_idx[axis_value]
                    if parent_idx[axis_value][idx[nid]] != idx[vid]:
                        feasible = False
                        break
                if feasible:
                    raw_parent[nodes_of[nid]] = nodes_of[vid]
                    break
        engine.charge_local_round()

        # Final pruning: root-and-prune on the source's parent-edge
        # component with Q = D ∪ {s} (the source must stay in V_Q even
        # when it is not a destination).
        component = _component_of(source, raw_parent)
        edges = [
            (u, p) for u, p in raw_parent.items() if u in component and p in component
        ]
        index = engine.structure.grid_index()
        rp = root_and_prune_scope(
            engine,
            NodeScope(index, edge_masks(index, edges, (source,))),
            source,
            (dest_set & component) | {source},
            section=f"{section}:final_rp",
        )

        parent = {u: raw_parent[u] for u in rp.in_vq if u != source}
        members = set(rp.in_vq) | {source}

    unreached = dest_set - members
    if unreached:
        raise AssertionError(
            f"destinations missing from the shortest path tree: {sorted(unreached)[:3]}"
        )
    return SPTResult(
        source=source,
        destinations=dest_set,
        parent=parent,
        members=members,
        raw_parent=raw_parent,
    )


def _component_of(source: Node, parent: Dict[Node, Node]) -> Set[Node]:
    """Nodes connected to ``source`` in the undirected parent-edge graph."""
    adjacency: Dict[Node, List[Node]] = {}
    for u, p in parent.items():
        adjacency.setdefault(u, []).append(p)
        adjacency.setdefault(p, []).append(u)
    component = {source}
    stack = [source]
    while stack:
        u = stack.pop()
        for v in adjacency.get(u, []):
            if v not in component:
                component.add(v)
                stack.append(v)
    return component
