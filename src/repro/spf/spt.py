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
from repro.pasc.runner import run_pasc
from repro.portals.portals import PortalSystem
from repro.portals.primitives import PortalScope, portal_root_and_prune
from repro.primitives.root_prune import RootPruneOp
from repro.sim.engine import CircuitEngine
from repro.spf.types import Forest


@dataclass
class SPTResult:
    """Output of the shortest path tree algorithm: the ``({s},
    D)``-shortest path tree, in the engine structure's grid-index ids."""

    forest: Forest
    #: Parent choices before the final pruning pass (Figure 5b), in
    #: engine ids; kept for figures and white-box tests.
    raw_parent_ids: Dict[int, int] = field(default_factory=dict)

    @property
    def source(self) -> Node:
        """The tree's source ``s``."""
        return self.forest.index.nodes[self.forest.source_ids[0]]

    @property
    def raw_parent(self) -> Dict[Node, Node]:
        """``Node`` view of :attr:`raw_parent_ids`."""
        nodes = self.forest.index.nodes
        return {nodes[u]: nodes[p] for u, p in self.raw_parent_ids.items()}

    def path_from(self, node: Node) -> List[Node]:
        """The tree path from ``node`` up to the source."""
        path = [node]
        while path[-1] != self.source:
            path.append(self.forest.parent[path[-1]])
        return path


def shortest_path_tree(
    engine: CircuitEngine,
    structure: AmoebotStructure,
    source: Node,
    destinations: Iterable[Node],
    section: str = "spt",
) -> SPTResult:
    """Compute an ``({s}, D)``-shortest path forest (Theorem 39).

    The ``Node`` boundary of :func:`shortest_path_tree_ids`:
    ``structure`` is the engine's structure or a connected, hole-free
    sub-structure of it, converted to grid-index ids once.
    """
    dest_set = set(destinations)
    if not dest_set:
        raise ValueError("destination set must be non-empty")
    if source not in structure:
        raise ValueError("source must belong to the structure")
    missing = {d for d in dest_set if d not in structure}
    if missing:
        raise ValueError(f"destinations outside the structure: {sorted(missing)[:3]}")
    id_of = engine.structure.grid_index().id_of
    members = None if structure is engine.structure else {id_of(u) for u in structure}
    return shortest_path_tree_ids(
        engine, members, id_of(source), {id_of(d) for d in dest_set}, section
    )


def shortest_path_tree_ids(
    engine: CircuitEngine,
    members: Optional[Set[int]],
    source_id: int,
    dest_ids: Set[int],
    section: str = "spt",
) -> SPTResult:
    """Theorem 39 on the amoebots ``members`` of the engine's structure.

    ``members`` is a connected, hole-free set of ids of the engine
    structure's grid index (``None``: all of them), holding the source
    ``source_id`` and the destinations ``dest_ids``.
    """
    index = engine.structure.grid_index()
    systems = [PortalSystem(engine.structure, axis, members) for axis in Axis]
    inside = systems[0].inside
    if not inside[source_id] or not all(inside[d] for d in dest_ids):
        raise ValueError("source and destinations must be members")

    with engine.rounds.section(section):
        # Per axis: node id -> portal number, and portal number -> the
        # number of its parent portal (-1 for the root and the pruned).
        portal_idx: List[List[int]] = []
        parent_idx: List[List[int]] = []
        for system in systems:
            scope = PortalScope(system)
            # One beep round: every destination beeps on its portal
            # circuit, and Q is the set of portals that heard.  The
            # source's own portal counts as populated even without
            # destinations, so the root is never pruned away.
            q_portals = scope.broadcast(engine, dest_ids)
            root = system.portal_index_of_id[source_id]
            rp = portal_root_and_prune(
                engine,
                system,
                root,
                q_portals | {root},
                scope=scope,
                section=f"{section}:portal_rp",
            )
            row = [-1] * system.portal_count()
            for child, par in rp.parent.items():
                row[child] = par
            portal_idx.append(system.portal_index_of_id)
            parent_idx.append(row)

        # Local parent choice (one local round: no beeps involved),
        # evaluated over the grid index: Equation 1 becomes a handful of
        # integer array reads per (node, neighbor) pair, and every
        # amoebot takes its first feasible neighbor in direction order
        # (ccw from East).  A neighbor outside the members is no
        # candidate: its portal number -1 would match the root's.
        nbr = index.nbr
        raw_parent: Dict[int, int] = {}
        for u in systems[0].ids:
            if u == source_id:
                continue
            base = u * 6
            for d in range(6):
                v = nbr[base + d]
                if not inside[v]:
                    continue
                # The edge's axis value is d % 3; the two other axes
                # must both see v's portal as the parent of u's.
                edge_axis = d % 3
                feasible = True
                for axis_value in (0, 1, 2):
                    if axis_value == edge_axis:
                        continue
                    idx = portal_idx[axis_value]
                    if parent_idx[axis_value][idx[u]] != idx[v]:
                        feasible = False
                        break
                if feasible:
                    raw_parent[u] = v
                    break
        engine.charge_local_round()

        # Final pruning: root-and-prune on the source's tree of parent
        # edges (parents strictly decrease the distance, so the parent
        # edges form a forest) with Q = D ∪ {s} (the source must stay in
        # V_Q even when it is not a destination).
        roots = set(raw_parent.values()).difference(raw_parent)
        roots.add(source_id)
        tree = Forest(index, roots, raw_parent).trees()[source_id]
        op = RootPruneOp.of_tree(index, source_id, tree, dest_ids)
        if op.ett_op.chain is not None:
            run_pasc(engine, [op.ett_op.chain], section=f"{section}:final_rp")
        forest = Forest(index, (source_id,), op.result().parent)

    unreached = sorted(index.nodes[u] for u in set(dest_ids).difference(forest.member_ids()))
    if unreached:
        raise AssertionError(f"destinations missing from the shortest path tree: {unreached[:3]}")
    return SPTResult(forest=forest, raw_parent_ids=raw_parent)
