"""Self-healing shortest path forests under structure churn.

:class:`DynamicSPF` keeps an (S, D)-shortest-path forest valid while
the underlying :class:`~repro.grid.structure.AmoebotStructure` evolves
through :class:`~repro.dynamics.edits.EditBatch` steps.  Instead of
re-solving from scratch after every batch it

1. repairs the multi-source BFS labels *incrementally*
   (:func:`update_distances`): a support-lost cascade bounds the set of
   amoebots whose distance may have grown, and a bounded Dijkstra pass
   over that set plus the added amoebots (and any amoebot a new
   shortcut improves) settles the new labels — work proportional to
   the *changed* region, never to the structure;
2. re-labels the changed region with a **timed beep wave** executed as
   real synchronous rounds on the engine: boundary amoebots whose
   labels survived beep in the round matching their distance, and each
   dirty amoebot adopts the first counterclockwise neighbor it hears as
   its parent — which reproduces, bit for bit, the parent choice of
   the static solver (see below); waves over disjoint dirty components
   run under the round counter's parallel-group accounting;
3. falls back to a full re-solve (:func:`repro.spf.api.solve_spf`)
   only when the dirty region exceeds a configurable fraction of the
   structure.

**Exactness.**  The paper's shortest path tree algorithm picks, for
every amoebot, the first *feasible* parent in counterclockwise order
(Section 4, Equation 1); on hole-free structures this is exactly the
first counterclockwise neighbor one hop closer to the source — the
*canonical* parent rule of :func:`canonical_parent`.  The repaired
forest therefore equals a from-scratch ``solve_spf`` on the edited
structure for ``k = 1`` (property-tested in
``tests/test_dynamics.py``).  For ``k >= 2`` the divide & conquer
forest algorithm breaks ties differently, so :class:`DynamicSPF`
re-points the solved forest to the canonical rule once after each full
solve (one charged local round — distance comparisons between
neighbors are local given the distance bits the solve establishes);
the maintained forest is then the deterministic
:func:`canonical_forest` at all times.

**Layout reuse.**  The repair wave runs on a singleton-pin layout that
is *patched* across structure versions through
:meth:`CircuitLayout.derive_for` — departed amoebots release their
partition sets, attached ones assign theirs — so repairs show up in
:data:`~repro.sim.circuits.LAYOUT_STATS` as incremental builds, never
as from-scratch rebuilds.

**Fault tolerance.**  An optional
:class:`~repro.dynamics.faults.FaultInjector` is armed during repair
waves: crashed amoebots stay silent and beeps may drop.  Wave labels
are verified against the incremental oracle labels after each wave;
every fault-damaged label is detected, counted
(:attr:`RepairStats.corrected`), and healed, so the maintained forest
stays exact even under injected faults.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.baselines.bfs_wave import build_wave_layout, wave_set_label
from repro.dynamics.edits import EditBatch, EditError, EditScript, StructureEditor
from repro.grid.coords import Node
from repro.grid.directions import opposite
from repro.grid.oracle import bfs_distances
from repro.grid.structure import AmoebotStructure
from repro.motion.routing import RoutingPlan, RoutingStats, route_tokens
from repro.obs.trace import trace_span
from repro.sim.circuits import CircuitLayout, LayoutCache
from repro.sim.engine import CircuitEngine
from repro.spf.types import Forest


def canonical_parent(
    structure: AmoebotStructure, dist: Dict[Node, int], u: Node
) -> Node:
    """First counterclockwise neighbor of ``u`` one hop closer to ``S``.

    This is the parent the static SPT algorithm selects (its Equation 1
    feasibility reduces to exactly this on hole-free structures), which
    is what lets the dynamics layer patch parents locally.
    """
    target = dist[u] - 1
    for v in structure.neighbors(u):
        if dist.get(v) == target:
            return v
    raise EditError(f"{u} has no neighbor closer to the sources")


def canonical_forest(
    structure: AmoebotStructure,
    sources: Iterable[Node],
    destinations: Optional[Iterable[Node]] = None,
) -> Forest:
    """The deterministic canonical (S, D)-shortest-path forest.

    Parents follow :func:`canonical_parent`; members are the sources
    plus the parent chains of every destination (every node when
    ``destinations`` is ``None``).  For ``k = 1`` this coincides with
    the static solver's output exactly.
    """
    source_set = set(sources)
    if not source_set:
        raise ValueError("need at least one source")
    dist = bfs_distances(structure, source_set)
    parent_all = {
        u: canonical_parent(structure, dist, u)
        for u in structure
        if u not in source_set
    }
    return _chain_forest(source_set, parent_all, destinations, structure)


def _chain_forest(
    source_set: Set[Node],
    parent_all: Dict[Node, Node],
    destinations: Optional[Iterable[Node]],
    structure: AmoebotStructure,
) -> Forest:
    """Restrict a total parent map to the destination chains."""
    if destinations is None:
        return Forest(
            sources=set(source_set),
            parent=dict(parent_all),
            members=set(structure.nodes),
        )
    members: Set[Node] = set(source_set)
    for d in destinations:
        cur = d
        while cur not in members:
            members.add(cur)
            cur = parent_all[cur]
    parent = {u: parent_all[u] for u in members if u not in source_set}
    return Forest(sources=set(source_set), parent=parent, members=members)


def update_distances(
    dist: Dict[Node, int],
    structure: AmoebotStructure,
    sources: FrozenSet[Node],
    added: Iterable[Node],
    removed: Iterable[Node],
) -> Tuple[Set[Node], Set[Node], int]:
    """Incrementally repair multi-source BFS labels after an edit batch.

    ``dist`` (mutated in place) must hold exact labels for the
    pre-edit structure; ``structure`` is the post-edit structure.
    Returns ``(region, changed, cascade_layers)``:

    * ``region`` — every node that was re-settled (labels possibly
      rewritten): the support-lost cascade, the added nodes, and any
      node a new shortcut improved.  Work is proportional to this
      region plus its boundary.
    * ``changed`` — the subset whose label actually differs (including
      all added nodes).
    * ``cascade_layers`` — synchronous-round depth of the support-lost
      cascade (each layer is one round of "my support vanished"
      propagation in the distributed view).
    """
    nodes = structure.nodes
    added = tuple(added)
    removed = tuple(removed)
    for r in removed:
        dist.pop(r, None)

    # -- phase 1: support-lost cascade (deletions may raise labels) ---
    affected: Set[Node] = set()
    frontier: Set[Node] = set()
    for r in removed:
        for v in r.neighbors():
            if v in nodes and v not in sources:
                frontier.add(v)

    def unsupported(u: Node) -> bool:
        du = dist.get(u)
        if du is None:
            return False
        for v in structure.neighbors(u):
            if v not in affected and dist.get(v) == du - 1:
                return False
        return True

    cascade_layers = 0
    while frontier:
        newly = {
            u
            for u in frontier
            if u not in affected and u not in sources and unsupported(u)
        }
        if not newly:
            break
        affected |= newly
        cascade_layers += 1
        frontier = set()
        for u in newly:
            du = dist[u]
            for w in structure.neighbors(u):
                if w not in affected and w not in sources and dist.get(w) == du + 1:
                    frontier.add(w)

    # -- phase 2: bounded Dijkstra over the open region ----------------
    INF = float("inf")
    old: Dict[Node, Optional[int]] = {}
    tent: Dict[Node, float] = {}
    for u in affected:
        old[u] = dist.pop(u)
        tent[u] = INF
    for a in added:
        old[a] = None
        tent[a] = INF

    heap: List[Tuple[float, int, int, Node]] = []

    def relax(u: Node, nd: float) -> None:
        if u in tent and nd < tent[u]:
            tent[u] = nd
            heapq.heappush(heap, (nd, u.x, u.y, u))

    for u in list(tent):
        for v in structure.neighbors(u):
            dv = dist.get(v)
            if dv is not None:
                relax(u, dv + 1)

    region: Set[Node] = set()
    while heap:
        d, _x, _y, u = heapq.heappop(heap)
        if u not in tent or tent[u] < d:
            continue
        del tent[u]
        dist[u] = int(d)
        region.add(u)
        nd = int(d) + 1
        for v in structure.neighbors(u):
            if v in tent:
                relax(v, nd)
            else:
                dv = dist.get(v)
                if dv is not None and dv > nd and v not in sources:
                    # A repaired/added label opens a shortcut: pull the
                    # improved node into the region and resettle it.
                    old.setdefault(v, dv)
                    del dist[v]
                    tent[v] = INF
                    relax(v, nd)
    if tent:
        raise EditError(
            f"distance repair left {len(tent)} unreachable nodes "
            "(structure disconnected?)"
        )
    changed = {u for u in region if old.get(u) != dist[u]}
    return region, changed, cascade_layers


@dataclass
class RepairStats:
    """Outcome of one :meth:`DynamicSPF.apply` call."""

    batch_ops: int
    structure_size: int
    region: int          #: nodes whose distance label was re-settled
    dirty: int           #: nodes whose parent pointer was re-examined
    mode: str            #: ``"patch"`` or ``"full"``
    rounds: int          #: synchronous rounds charged for the repair
    wave_rounds: int     #: beep rounds of the regional repair wave
    cascade_rounds: int  #: rounds of the support-lost cascade
    corrected: int = 0   #: fault-damaged wave labels detected and healed

    @property
    def dirty_fraction(self) -> float:
        """Dirty parent pointers as a fraction of the structure."""
        return self.dirty / max(self.structure_size, 1)


class DynamicSPF:
    """An (S, D)-shortest-path forest maintained under structure edits.

    Parameters
    ----------
    structure:
        The initial structure (hole-free; the editor keeps it so).
    sources / destinations:
        The SPF instance.  ``destinations=None`` means every node (the
        SSSP setting).  Sources are always protected from removal;
        explicit destinations are too.
    engine:
        The engine over ``structure`` that the initial solve and every
        repair charge (default: a plain ``CircuitEngine(structure)``);
        ``Session.run`` passes a churn request's engine, so its round
        counter keeps running.  An engine over another structure is a
        :class:`ValueError`.
    session:
        Alternatively, a :class:`repro.api.Session` supplying the
        engine (``session.engine_for(structure)``).
    threshold:
        Dirty fraction above which a batch triggers a full re-solve
        instead of a regional repair wave.
    faults:
        Optional :class:`~repro.dynamics.faults.FaultInjector`, armed
        during repair waves only (the static solve algorithms are not
        fault-tolerant; the wave is, by verification).
    """

    def __init__(
        self,
        structure: AmoebotStructure,
        sources: Iterable[Node],
        destinations: Optional[Iterable[Node]] = None,
        threshold: float = 0.2,
        faults: Optional[object] = None,
        *,
        engine: Optional[CircuitEngine] = None,
        session: Optional[object] = None,
    ):
        self.sources: FrozenSet[Node] = frozenset(sources)
        if not self.sources:
            raise ValueError("need at least one source")
        missing = [s for s in self.sources if s not in structure]
        if missing:
            raise ValueError(f"sources outside the structure: {missing[:3]}")
        self.destinations: Optional[FrozenSet[Node]] = (
            frozenset(destinations) if destinations is not None else None
        )
        if self.destinations is not None:
            if not self.destinations:
                raise ValueError("destination set must be non-empty")
            bad = [d for d in self.destinations if d not in structure]
            if bad:
                raise ValueError(f"destinations outside the structure: {bad[:3]}")
        protected = set(self.sources)
        if self.destinations is not None:
            protected |= self.destinations
        self._editor = StructureEditor(structure, protected=protected)
        self.structure = structure
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self.threshold = threshold
        self.faults = faults
        self._layout_cache = LayoutCache(maxsize=32)
        self._version = 0
        if engine is None:
            engine = CircuitEngine(structure) if session is None else session.engine_for(structure)
        elif session is not None:
            raise ValueError("pass engine= or session=, not both")
        elif engine.structure is not structure:
            raise ValueError("engine belongs to a different structure")
        self.engine = engine
        self.engine.rebind(structure, self._layout_cache.scoped(self._version))
        self.repairs: List[RepairStats] = []
        self.forest: Forest
        self.dist: Dict[Node, int]
        self._parent: Dict[Node, Node] = {}
        self._solve_full()
        self._wave_layout = build_wave_layout(self.engine, self.structure)

    @property
    def protected(self) -> FrozenSet[Node]:
        """Nodes churn generators must never remove."""
        return self._editor.protected

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def _solve_full(self) -> None:
        """Distributed solve on the current structure + canonical re-point."""
        from repro.spf.api import solve_spf

        dest = (
            set(self.destinations)
            if self.destinations is not None
            else set(self.structure.nodes)
        )
        solve_spf(self.structure, self.sources, dest, engine=self.engine)
        # Canonical re-point: every amoebot adopts the first CCW
        # neighbor one hop closer as parent (one local round; a no-op
        # re-statement of the solver's own choice when k = 1).
        self.engine.charge_local_round()
        self.dist = bfs_distances(self.structure, self.sources)
        self._parent = {
            u: canonical_parent(self.structure, self.dist, u)
            for u in self.structure
            if u not in self.sources
        }
        self._refresh_forest()

    def _refresh_forest(self) -> None:
        self.forest = _chain_forest(
            set(self.sources), self._parent, self.destinations, self.structure
        )

    # ------------------------------------------------------------------
    # wave layout maintenance (derive chain across structure versions)
    # ------------------------------------------------------------------
    def _derive_wave_layout(
        self,
        old_structure: AmoebotStructure,
        new_structure: AmoebotStructure,
        added: Tuple[Node, ...],
        removed: Tuple[Node, ...],
    ) -> CircuitLayout:
        """Patch the singleton wave layout across one edit batch.

        Departed amoebots release their per-direction sets (and their
        surviving neighbors release the pin toward the vacated cell);
        attached amoebots assign theirs (and their neighbors gain the
        facing pin).  Everything untouched is carried by the derive
        chain — this is the ``derive()``-instead-of-rebuild integration
        the layout-reuse machinery was built for.
        """
        clone = self._wave_layout.derive_for(new_structure)
        for r in removed:
            for d in old_structure.occupied_directions(r):
                clone.release(r, wave_set_label(d))
                v = r.neighbor(d)
                if v in new_structure:
                    clone.release(v, wave_set_label(opposite(d)))
        for a in added:
            for d in new_structure.occupied_directions(a):
                clone.assign(a, wave_set_label(d), [(d, 0)])
                back = opposite(d)
                clone.assign(a.neighbor(d), wave_set_label(back), [(back, 0)])
        clone.freeze()
        return clone

    # ------------------------------------------------------------------
    # edit application
    # ------------------------------------------------------------------
    def apply(self, batch: EditBatch) -> RepairStats:
        """Apply one validated edit batch and repair the forest.

        Raises :class:`EditError` (leaving the structure untouched) if
        the batch is illegal; sources and explicit destinations are
        protected.  Each batch is one ``repair`` telemetry span
        (no-op unless a tracer is active) carrying the repair mode and
        round cost.
        """
        with trace_span("repair", ops=batch.size) as span:
            stats = self._apply(batch)
            span.set(mode=stats.mode, rounds=stats.rounds, region=stats.region)
            return stats

    def _apply(self, batch: EditBatch) -> RepairStats:
        """The untraced edit-application body (see :meth:`apply`)."""
        start_rounds = self.engine.rounds.total
        old_structure = self.structure
        removed = tuple(batch.remove)
        added = tuple(batch.add)
        self._editor.apply(batch)
        new_structure = self._editor.structure(
            basis=old_structure, dirty=removed + added
        )
        self._version += 1
        self.engine.rebind(
            new_structure, self._layout_cache.scoped(self._version)
        )
        self.structure = new_structure

        region, changed, cascade_layers = update_distances(
            self.dist, new_structure, self.sources, added, removed
        )
        # Parent pointers to re-examine: the relabeled region, its
        # neighbors (their first-CCW-closer choice may involve a
        # relabeled node), and survivors next to a vacated cell (their
        # neighborhood shrank even if no label moved).
        recompute: Set[Node] = set(region)
        for u in region:
            recompute.update(new_structure.neighbors(u))
        for r in removed:
            for v in r.neighbors():
                if v in new_structure:
                    recompute.add(v)
        recompute -= self.sources

        wave_rounds = 0
        corrected = 0
        dirty_fraction = len(recompute) / len(new_structure)
        self._wave_layout = self._derive_wave_layout(
            old_structure, new_structure, added, removed
        )
        if dirty_fraction > self.threshold:
            mode = "full"
            self._solve_full()
        else:
            mode = "patch"
            # One round to announce the edit locally, the cascade's
            # rounds, the regional wave's beep rounds (ticked by the
            # engine), and one round for the termination/prune beep.
            self.engine.charge_local_round(1 + cascade_layers)
            if region:
                wave_rounds, corrected = self._repair_wave(new_structure, region)
            self.engine.charge_local_round(1)
            for r in removed:
                self._parent.pop(r, None)
            for u in recompute:
                self._parent[u] = canonical_parent(new_structure, self.dist, u)
            self._refresh_forest()

        stats = RepairStats(
            batch_ops=batch.size,
            structure_size=len(new_structure),
            region=len(region),
            dirty=len(recompute),
            mode=mode,
            rounds=self.engine.rounds.total - start_rounds,
            wave_rounds=wave_rounds,
            cascade_rounds=cascade_layers,
            corrected=corrected,
        )
        self.repairs.append(stats)
        return stats

    def apply_script(self, script: EditScript) -> List[RepairStats]:
        """Apply every batch of a script; returns the per-batch stats."""
        return [self.apply(batch) for batch in script]

    # ------------------------------------------------------------------
    # the regional repair wave (real beep rounds)
    # ------------------------------------------------------------------
    def _repair_wave(
        self, structure: AmoebotStructure, region: Set[Node]
    ) -> Tuple[int, int]:
        """Re-label the dirty region with timed beep waves.

        One wave per connected dirty component, executed under the
        parallel-group accounting (disjoint components repair in the
        same synchronous rounds).  Returns ``(wave_rounds,
        corrected)`` where ``corrected`` counts wave labels that did
        not match the incremental oracle (possible only under injected
        faults) and were healed.
        """
        engine = self.engine
        layout = self._wave_layout
        index = layout.compiled().index

        components: List[List[Node]] = []
        pending = set(region)
        while pending:
            seed = pending.pop()
            comp = [seed]
            stack = [seed]
            while stack:
                u = stack.pop()
                for v in structure.neighbors(u):
                    if v in pending:
                        pending.discard(v)
                        comp.append(v)
                        stack.append(v)
            components.append(comp)

        wave_parent: Dict[Node, Node] = {}
        wave_label: Dict[Node, int] = {}
        if self.faults is not None:
            engine.fault_injector = self.faults
        start = engine.rounds.total
        try:
            with engine.rounds.parallel() as group:
                for comp in components:
                    with group.branch():
                        self._wave_component(
                            layout, index, structure, comp, wave_parent, wave_label
                        )
        finally:
            if self.faults is not None:
                engine.fault_injector = None
        wave_rounds = engine.rounds.total - start

        # Verification (self-healing): labels are checked against the
        # incremental oracle; in the distributed view each amoebot
        # cross-checks its label against its neighbors' during the wave
        # itself, so no extra rounds are charged.
        corrected = 0
        for u in region:
            if (
                wave_label.get(u) != self.dist[u]
                or wave_parent.get(u) != canonical_parent(structure, self.dist, u)
            ):
                corrected += 1
        return wave_rounds, corrected

    def _wave_component(
        self,
        layout: CircuitLayout,
        index,
        structure: AmoebotStructure,
        comp: List[Node],
        wave_parent: Dict[Node, Node],
        wave_label: Dict[Node, int],
    ) -> None:
        comp_set = set(comp)
        supports: Dict[Node, int] = {}
        for u in comp:
            for v in structure.neighbors(u):
                if v not in comp_set:
                    supports[v] = self.dist[v]
        if not supports:
            return  # cannot happen on connected structures below threshold
        base = min(supports.values())
        max_d = max(self.dist[u] for u in comp)

        def slots(u: Node) -> List[Tuple[object, int]]:
            return [
                (d, index.index_of((u, wave_set_label(d)), "wave on"))
                for d in structure.occupied_directions(u)
            ]

        slot_cache = {u: slots(u) for u in comp_set | set(supports)}
        labels: Dict[Node, int] = dict(supports)
        pending_nodes = set(comp_set)
        engine = self.engine
        cap = max_d - base + 3
        t = 0
        while pending_nodes and t < cap:
            t += 1
            level = base + t - 1
            beeps = [
                i
                for u, lab in labels.items()
                if lab == level
                for _d, i in slot_cache[u]
            ]
            ordered = sorted(pending_nodes)
            listen = [i for u in ordered for _d, i in slot_cache[u]]
            bits = engine.run_round_indexed(layout, beeps, listen)
            cursor = 0
            newly: List[Node] = []
            for u in ordered:
                u_slots = slot_cache[u]
                for offset, (d, _i) in enumerate(u_slots):
                    if bits[cursor + offset]:
                        wave_parent[u] = u.neighbor(d)  # type: ignore[arg-type]
                        wave_label[u] = base + t
                        labels[u] = base + t
                        newly.append(u)
                        break
                cursor += len(u_slots)
            pending_nodes.difference_update(newly)
        # Nodes never labeled (all supporting beeps faulted away) stay
        # out of wave_label and are healed by the verification pass.


def route_under_churn(
    dyn: DynamicSPF,
    origins: Iterable[Node],
    script: EditScript,
    edit_every: int = 1,
    max_steps: Optional[int] = None,
) -> Tuple[RoutingStats, int]:
    """Route tokens while the forest is being edited and repaired.

    Every ``edit_every`` routing steps the next batch of ``script`` is
    applied through ``dyn`` and the (repaired) forest is handed back to
    the router mid-flight; tokens stranded off the new forest are
    re-seated (counted in ``RoutingStats.rescued``).  Returns the
    routing stats and how many batches were applied before the tokens
    drained.
    """
    if edit_every < 1:
        raise ValueError("edit_every must be positive")
    batches = list(script)
    cursor = 0

    def on_step(step: int) -> Optional[Forest]:
        nonlocal cursor
        if cursor < len(batches) and step % edit_every == 0:
            dyn.apply(batches[cursor])
            cursor += 1
            return dyn.forest
        return None

    stats = route_tokens(
        RoutingPlan(dyn.forest, list(origins)),
        max_steps=max_steps,
        on_step=on_step,
    )
    return stats, cursor
