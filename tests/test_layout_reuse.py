"""Regression tests for the layout-reuse contract (derive/cache/listen).

Guards three things the refactor promised:

(a) freezing a layout twice never recomputes its components;
(b) ``run_pasc`` on a fixed structure performs exactly one from-scratch
    layout build per execution — every further iteration derives or
    cache-hits, never rebuilds — counted via the ``LAYOUT_STATS`` probe;
(c) round totals of the end-to-end algorithms are bit-identical to the
    seed implementation (this was a simulator-cost fix, not an algorithm
    change): SPSP/SSSP/SPT/forest/ETT-election on ``hexagon:3`` and
    ``lollipop:2:8``, with the totals pinned from the seed revision.
"""

from __future__ import annotations

import pytest

from repro.grid.coords import Node
from repro.grid.structure import AmoebotStructure
from repro.ett.election import elect_first_marked
from repro.ett.technique import mark_one_outgoing_edge
from repro.pasc.runner import run_pasc
from repro.pasc.chain import PascRun
from repro.sim.circuits import LAYOUT_STATS, CircuitLayout, LayoutCache
from repro.sim.engine import CircuitEngine
from repro.spf.api import solve_spf
from repro.spf.forest import shortest_path_forest
from repro.spf.spt import shortest_path_tree
from repro.workloads import hexagon, line_structure
from repro.workloads.specs import build_structure

from tests.conftest import bfs_tree_adjacency, edge_ids, exchange_pins, node_chain, node_ids, node_tour
from tests.node_oracles import assign, node_tree_run, reassign, release, run_round


def line_nodes(n):
    return [Node(i, 0) for i in range(n)]


# ----------------------------------------------------------------------
# (a) freeze idempotence
# ----------------------------------------------------------------------


class TestFreezeIdempotence:
    def test_freezing_twice_does_not_recompute(self):
        engine = CircuitEngine(hexagon(2))
        LAYOUT_STATS.reset()
        layout = engine.new_layout()
        for node in engine.structure:
            pins = [(d, 0) for d in engine.structure.occupied_directions(node)]
            assign(layout, node, "g", pins)
        layout.freeze()
        assert LAYOUT_STATS.total_builds() == 1
        before = layout.component_map()
        layout.freeze()
        layout.freeze()
        assert LAYOUT_STATS.total_builds() == 1
        assert layout.component_map() is before

    def test_repeated_rounds_share_one_computation(self):
        engine = CircuitEngine(hexagon(2))
        LAYOUT_STATS.reset()
        layout = engine.global_layout(label="t")
        probe = (next(iter(engine.structure)), "t")
        for _ in range(10):
            run_round(engine, layout, [probe])
        assert LAYOUT_STATS.total_builds() == 1


# ----------------------------------------------------------------------
# derive / reassign correctness
# ----------------------------------------------------------------------


def _partition(layout: CircuitLayout):
    """Canonical view of the circuits (independent of index numbering)."""
    return {frozenset(circuit) for circuit in layout.circuits()}


class TestDerive:
    def test_derived_rewiring_matches_from_scratch(self):
        structure = line_structure(8)
        nodes = line_nodes(8)
        engine = CircuitEngine(structure)

        run = node_chain(structure, nodes)
        base = engine.new_layout()
        run.contribute_layout(base)
        base.freeze()

        # Flip some units and re-wire incrementally...
        run._active[2] = False
        run._active[5] = False
        run._flipped = [2, 5]
        derived = base.derive()
        run.rewire_layout(derived)
        derived.freeze()

        # ...and compare against a from-scratch build of the same state.
        fresh = engine.new_layout()
        run.contribute_layout(fresh)
        fresh.freeze()
        assert _partition(derived) == _partition(fresh)
        assert derived.partition_sets() == fresh.partition_sets()
        assert derived.wiring_fingerprint() == fresh.wiring_fingerprint()
        assert derived.wiring_fingerprint() != base.wiring_fingerprint()
        # Index maps agree as functions up to renumbering: same grouping.
        assert len(derived.circuits()) == len(fresh.circuits())

    def test_derive_without_changes_adopts_components(self):
        engine = CircuitEngine(hexagon(2))
        LAYOUT_STATS.reset()
        base = engine.global_layout(label="noop")
        derived = base.derive()
        derived.freeze()
        assert LAYOUT_STATS.noop_freezes == 1
        assert _partition(derived) == _partition(base)

    def test_base_layout_survives_derived_rewiring(self):
        structure = line_structure(4)
        nodes = line_nodes(4)
        engine = CircuitEngine(structure)
        run = node_chain(structure, nodes)
        base = engine.new_layout()
        run.contribute_layout(base)
        base.freeze()
        snapshot = _partition(base)

        run._active[1] = False
        run._flipped = [1]
        derived = base.derive()
        run.rewire_layout(derived)
        derived.freeze()
        assert _partition(base) == snapshot  # untouched by the derivation

    def test_duplicate_assign_is_idempotent_under_exchange(self):
        # Re-assigning a pin to its own set must be a no-op: a stale
        # ownership record left behind would feed a phantom edge to the
        # derived freeze (merging circuits never wired).
        engine = CircuitEngine(line_structure(3))
        a, b = Node(0, 0), Node(1, 0)
        d = a.direction_to(b)
        layout = engine.new_layout()
        assign(layout, a, "a", [(d, 0)])
        assign(layout, a, "a", [(d, 0)])  # idempotent no-op
        assign(layout, a, "b", ())
        assign(layout, b, "x", [(b.direction_to(a), 0)])
        layout.freeze()
        derived = layout.derive()
        exchange_pins(derived, a, "a", "b", [(d, 0)])
        derived.freeze()

        fresh = engine.new_layout()
        assign(fresh, a, "a", ())
        assign(fresh, a, "b", [(d, 0)])
        assign(fresh, b, "x", [(b.direction_to(a), 0)])
        fresh.freeze()
        assert _partition(derived) == _partition(fresh)

    def test_release_frees_exactly_the_released_pins(self):
        # The pin table is the one record of pin ownership: a derived
        # exchange rewrites the clone's copy only, and release_sets finds
        # a set's pins by probing its amoebot's pin ids.
        structure = line_structure(4)
        engine = CircuitEngine(structure)
        w, a, b, gone = line_nodes(4)
        east, west = a.direction_to(b), a.direction_to(w)
        base = engine.new_layout()
        assign(base, a, "p", [(east, 0), (west, 1)])
        assign(base, a, "s", [(east, 1), (west, 0)])
        assign(base, b, "p", [(b.direction_to(a), 0), (b.direction_to(a), 1)])
        assign(base, w, "p", [(w.direction_to(a), 0), (w.direction_to(a), 1)])
        base.freeze()
        pins, fingerprint, compiled = (
            base.pin_assignments(),
            base.wiring_fingerprint(),
            base.compiled(),
        )
        derived = base.derive()
        exchange_pins(derived, a, "p", "s", [(east, 0), (east, 1)])
        derived.freeze()
        assert base.pin_assignments() == pins
        assert base.wiring_fingerprint() == fingerprint
        assert base.compiled() is compiled
        swapped = derived.pin_assignments()
        assert swapped != pins and swapped.keys() == pins.keys()

        edited = AmoebotStructure.from_validated(line_nodes(3), basis=structure, dirty=[gone])
        clone = derived.derive_for(edited)
        release(clone, a, "s")
        clone.freeze()
        owned = {pin for pin, owner in swapped.items() if owner == (a, "s")}
        assert len(owned) == 2
        assert clone.pin_assignments() == {
            pin: owner for pin, owner in swapped.items() if pin not in owned
        }
        assert (a, "s") not in clone.partition_sets()
        assert derived.pin_assignments() == swapped
        assert gone not in edited

    def test_released_set_disappears(self):
        engine = CircuitEngine(line_structure(3))
        layout = engine.new_layout()
        a, b = Node(0, 0), Node(1, 0)
        assign(layout, a, "x", [(a.direction_to(b), 0)])
        assign(layout, b, "x", [(b.direction_to(a), 0)])
        layout.freeze()
        derived = layout.derive()
        release(derived, b, "x")
        derived.freeze()
        assert (b, "x") not in derived.partition_sets()
        assert (b, "x") not in derived.component_map()
        assert (a, "x") in derived.component_map()


# ----------------------------------------------------------------------
# (b) one layout build per distinct wiring in run_pasc
# ----------------------------------------------------------------------


class TestPascLayoutReuse:
    def test_one_full_build_then_derivations(self):
        structure = line_structure(64)
        nodes = line_nodes(64)
        engine = CircuitEngine(structure)
        run = node_chain(structure, nodes)
        LAYOUT_STATS.reset()
        result = run_pasc(engine, [run])
        assert run.node_values() == {u: i for i, u in enumerate(nodes)}
        # Exactly two from-scratch builds: the runs' layout (iteration
        # 0) and the engine-cached global termination layout, built
        # once per engine.  Every other iteration has a distinct wiring
        # and gets exactly one *incremental* computation — never a
        # rebuild per iteration.
        assert LAYOUT_STATS.full_builds == 2
        assert LAYOUT_STATS.total_builds() == result.iterations + 1
        # The compile contract rides along: every component build lowers
        # to flat arrays exactly once, and the PASC loop runs two rounds
        # per iteration.
        assert LAYOUT_STATS.compiles == LAYOUT_STATS.total_builds()
        assert LAYOUT_STATS.indexed_rounds == 2 * result.iterations

    def test_derived_layouts_keep_integer_ids_stable(self):
        structure = line_structure(16)
        nodes = line_nodes(16)
        engine = CircuitEngine(structure)
        run = node_chain(structure, nodes)
        base = engine.new_layout()
        run.contribute_layout(base)
        base.freeze()
        index = base.compiled().index
        run._active[3] = False
        run._flipped = [3]
        derived = base.derive()
        run.rewire_layout(derived)
        derived.freeze()
        # Same universe -> the very same index object: integer set-ids
        # resolved against the base stay valid for the whole chain.
        assert derived.compiled().index is index
        # ...but dropping a set forces a fresh index.
        shrunk = derived.derive()
        release(shrunk, nodes[0], "pasc:0:p")
        shrunk.freeze()
        assert shrunk.compiled().index is not index

    def test_repeated_execution_hits_the_layout_cache(self):
        structure = line_structure(32)
        nodes = line_nodes(32)
        engine = CircuitEngine(structure)
        first = node_chain(structure, nodes)
        run_pasc(engine, [first])
        second = node_chain(structure, nodes)
        LAYOUT_STATS.reset()
        result = run_pasc(engine, [second])
        # The initial wiring cache-hits (only iteration 0 is cached, by
        # design — see runner docstring); iterations 1+ derive as usual,
        # so no from-scratch build happens at all.
        assert LAYOUT_STATS.full_builds == 0
        assert LAYOUT_STATS.total_builds() <= result.iterations - 1
        assert second.node_values() == {u: i for i, u in enumerate(nodes)}
        assert result.rounds == 2 * result.iterations

    def test_tree_runs_reuse_layouts_too(self):
        structure = hexagon(2)
        root = structure.westernmost()
        _adjacency, parent = bfs_tree_adjacency(structure, root)
        engine = CircuitEngine(structure)
        run = node_tree_run(structure.grid_index(), root, parent)
        LAYOUT_STATS.reset()
        run_pasc(engine, [run])
        # Runs' layout + the engine's global termination layout.
        assert LAYOUT_STATS.full_builds == 2
        # Depths must match the BFS tree depths.
        values = run.node_values()
        for child, par in parent.items():
            assert values[child] == values[par] + 1

    def test_runs_on_reserved_termination_channel_fail_fast(self):
        # The termination circuit executes on its own engine-cached
        # layout; a run wiring the reserved channel would silently
        # double-drive the same physical pins, so the runner rejects it.
        from repro.sim.errors import PinConfigurationError

        structure = line_structure(4)
        nodes = line_nodes(4)
        engine = CircuitEngine(structure)
        term_channel = engine.channels - 1
        run = node_chain(structure, nodes, (term_channel - 1, term_channel))
        with pytest.raises(PinConfigurationError, match="reserved"):
            run_pasc(engine, [run])

    def test_inclusive_iteration_cap(self):
        structure = line_structure(4)
        nodes = line_nodes(4)
        engine = CircuitEngine(structure)

        class NeverDone(PascRun):
            def active_ids(self):
                return [self.nids[0]]

        index = structure.grid_index()
        nids = [index.id_of(u) for u in nodes]
        run = NeverDone(index, nids, [nid * 6 + u.direction_to(v) for nid, u, v in zip(nids, nodes, nodes[1:])])
        with pytest.raises(RuntimeError, match=r"4 amoebots"):
            run_pasc(engine, [run], max_iterations=5)
        # The cap is inclusive: exactly max_iterations iterations ran
        # (2 rounds each) before the guard tripped.
        assert engine.rounds.total == 10


# ----------------------------------------------------------------------
# engine cache and listen subset
# ----------------------------------------------------------------------


class TestEngineLayoutCache:
    def test_global_layout_is_cached(self):
        engine = CircuitEngine(hexagon(2))
        assert engine.global_layout(label="g") is engine.global_layout(label="g")
        assert engine.global_layout(label="g") is not engine.global_layout(label="h")

    def test_edge_subset_layout_cached_by_content(self):
        engine = CircuitEngine(hexagon(2))
        edges = edge_ids(engine.structure, [(Node(0, 0), Node(1, 0))])
        first = engine.edge_subset_layout(edges, label="e")
        second = engine.edge_subset_layout(list(edges), label="e")
        assert first is second

    def test_listen_subset_matches_full_result(self):
        engine = CircuitEngine(hexagon(2))
        layout = engine.global_layout(label="g")
        beeps = [(next(iter(engine.structure)), "g")]
        full = run_round(engine, layout, beeps)
        listen = sorted(full)[:3]
        subset = run_round(engine, layout, beeps, listen=listen)
        assert subset == {set_id: full[set_id] for set_id in listen}
        assert run_round(engine, layout, beeps, listen=()) == {}

    def test_cache_eviction_is_bounded(self):
        cache = LayoutCache(maxsize=2)
        engine = CircuitEngine(line_structure(3))
        for i in range(4):
            cache.put(i, engine.global_layout(label=f"l{i}"))
        assert len(cache) == 2
        assert cache.get(0) is None and cache.get(3) is not None

    def test_cache_stats_are_surfaced(self):
        LAYOUT_STATS.reset()
        cache = LayoutCache(maxsize=2)
        engine = CircuitEngine(line_structure(3))
        layouts = [engine.global_layout(label=f"s{i}") for i in range(3)]
        hits0, misses0 = LAYOUT_STATS.cache_hits, LAYOUT_STATS.cache_misses
        for i, layout in enumerate(layouts):
            cache.put(i, layout)
        assert cache.evictions == 1  # layout 0 fell out of the LRU
        assert LAYOUT_STATS.cache_evictions == 1
        assert cache.get(2) is not None
        assert cache.get(0) is None
        assert (cache.hits, cache.misses) == (1, 1)
        # The process-wide probe mirrors the per-instance counters
        # (every cache in the process ticks it, hence the deltas).
        assert LAYOUT_STATS.cache_hits - hits0 == 1
        assert LAYOUT_STATS.cache_misses - misses0 == 1

    def test_scoped_cache_separates_structures(self):
        backing = LayoutCache(maxsize=8)
        engine = CircuitEngine(line_structure(3))
        scope_a = backing.scoped("a")
        scope_b = backing.scoped("b")
        layout = engine.global_layout(label="shared")
        scope_a.put("k", layout)
        assert scope_a.get("k") is layout
        assert scope_b.get("k") is None
        assert len(backing) == 1


# ----------------------------------------------------------------------
# (c) round totals bit-identical to seed
# ----------------------------------------------------------------------

# Captured from the seed revision (commit 2191028) before the
# layout-reuse refactor; these totals must never drift.  The comb and
# random:120 rows were captured later, before the numpy kernels were
# deleted, and hold the same way.
SEED_ROUNDS = {
    "hexagon:3": {"spsp": 24, "sssp": 40, "spt": 40, "forest": 54, "election": 1},
    "lollipop:2:8": {"spsp": 24, "sssp": 42, "spt": 42, "forest": 219, "election": 1},
    "comb:6:8": {"spsp": 26, "sssp": 54, "spt": 54, "forest": 231, "election": 1},
    "random:120:4": {"spsp": 26, "sssp": 54, "spt": 54, "forest": 295, "election": 1},
}
SEED_WINNERS = {
    "hexagon:3": Node(-2, 0),
    "lollipop:2:8": Node(-1, 1),
    "comb:6:8": Node(0, 2),
    "random:120:4": Node(-8, 4),
}


@pytest.mark.parametrize("spec", sorted(SEED_ROUNDS))
class TestRoundTotalsMatchSeed:
    def test_spsp_and_sssp(self, spec):
        structure = build_structure(spec)
        nodes = sorted(structure.nodes)
        src, dst = nodes[0], nodes[-1]
        engine = CircuitEngine(structure)
        spsp = solve_spf(structure, [src], [dst], engine=engine)
        assert spsp.rounds == SEED_ROUNDS[spec]["spsp"]
        engine = CircuitEngine(structure)
        sssp = solve_spf(structure, [src], list(structure.nodes), engine=engine)
        assert sssp.rounds == SEED_ROUNDS[spec]["sssp"]

    def test_spt(self, spec):
        structure = build_structure(spec)
        nodes = sorted(structure.nodes)
        engine = CircuitEngine(structure)
        shortest_path_tree(engine, structure, nodes[0], set(nodes))
        assert engine.rounds.total == SEED_ROUNDS[spec]["spt"]

    def test_forest(self, spec):
        structure = build_structure(spec)
        nodes = sorted(structure.nodes)
        sources = [nodes[0], nodes[-1], nodes[len(nodes) // 2]]
        engine = CircuitEngine(structure)
        shortest_path_forest(engine, structure, sources)
        assert engine.rounds.total == SEED_ROUNDS[spec]["forest"]

    def test_ett_election(self, spec):
        structure = build_structure(spec)
        nodes = sorted(structure.nodes)
        root = structure.westernmost()
        adjacency, _ = bfs_tree_adjacency(structure, root)
        tour = node_tour(structure, root, adjacency)
        engine = CircuitEngine(structure)
        marked = mark_one_outgoing_edge(tour, node_ids(structure, [nodes[2], nodes[5]]))
        winner = structure.grid_index().nodes[elect_first_marked(engine, tour, marked)]
        assert engine.rounds.total == SEED_ROUNDS[spec]["election"]
        assert winner == SEED_WINNERS[spec]

    def test_solves_ride_the_grid_index_build_path(self, spec):
        # The seed-identical round totals above must be produced by the
        # int-indexed build path: the structure builds its GridIndex
        # exactly once, with the structure, and the solve neither
        # rebuilds nor derives one.
        from repro.grid.compiled import GRID_STATS

        GRID_STATS.reset()
        structure = build_structure(spec)
        assert GRID_STATS.full_builds == 1
        nodes = sorted(structure.nodes)
        engine = CircuitEngine(structure)
        solution = solve_spf(structure, [nodes[0]], list(structure.nodes), engine=engine)
        assert solution.rounds == SEED_ROUNDS[spec]["sssp"]
        assert GRID_STATS.full_builds == 1  # none inside the solve
        assert GRID_STATS.derives == 0  # no edits, so no derived indexes


class TestLayoutStatsChainConsistency:
    """LAYOUT_STATS invariants across long derive()/release() chains.

    The counters are the probe CI uses to catch per-round rebuilds, so
    their algebra must stay consistent no matter how long a derive
    chain runs or how the universe changes along it:

    * every freeze is counted exactly once, as full, incremental, or
      no-op;
    * ``compiles`` equals the non-noop freezes (noop freezes adopt the
      base arrays without compiling);
    * derive chains never count as from-scratch builds, even when
      ``release`` shrinks the partition-set universe (the fallback
      relower is still an incremental build).
    """

    def _snapshot(self):
        return (
            LAYOUT_STATS.full_builds,
            LAYOUT_STATS.incremental_builds,
            LAYOUT_STATS.noop_freezes,
            LAYOUT_STATS.compiles,
        )

    def test_long_rewire_chain_counts_one_incremental_per_freeze(self):
        structure = hexagon(3)
        engine = CircuitEngine(structure)
        nodes = sorted(structure.nodes)
        layout = engine.global_layout("chain")
        LAYOUT_STATS.reset()
        current = layout
        hops = 12
        for i in range(hops):
            clone = current.derive()
            node = nodes[i % len(nodes)]
            pins = [(d, 1) for d in structure.occupied_directions(node)]
            reassign(clone, node, "chain", pins if i % 2 == 0 else [])
            clone.freeze()
            current = clone
        assert LAYOUT_STATS.full_builds == 0
        assert LAYOUT_STATS.incremental_builds == hops
        assert LAYOUT_STATS.noop_freezes == 0
        assert LAYOUT_STATS.compiles == hops

    def test_noop_freezes_adopt_without_compiling(self):
        structure = hexagon(2)
        engine = CircuitEngine(structure)
        layout = engine.global_layout("noop")
        LAYOUT_STATS.reset()
        current = layout
        for _ in range(5):
            clone = current.derive()
            clone.freeze()  # no re-wiring at all
            current = clone
        assert LAYOUT_STATS.noop_freezes == 5
        assert LAYOUT_STATS.compiles == 0
        assert LAYOUT_STATS.total_builds() == 0

    def test_release_chain_shrinking_universe_stays_incremental(self):
        structure = hexagon(2)
        engine = CircuitEngine(structure)
        nodes = sorted(structure.nodes)
        layout = engine.new_layout()
        for u in structure:
            pins = [(d, 0) for d in structure.occupied_directions(u)]
            assign(layout, u, "net", pins)
        layout.freeze()
        LAYOUT_STATS.reset()
        current = layout
        released = 0
        for u in nodes[: len(nodes) // 2]:
            clone = current.derive()
            release(clone, u, "net")
            clone.freeze()
            released += 1
            current = clone
        # Universe changes force the relower fallback, but a derive is
        # never miscounted as a from-scratch build.
        assert LAYOUT_STATS.full_builds == 0
        assert LAYOUT_STATS.incremental_builds == released
        assert LAYOUT_STATS.compiles == released
        assert len(current.partition_sets()) == len(nodes) - released

    def test_mixed_chain_totals_add_up(self):
        structure = hexagon(2)
        engine = CircuitEngine(structure)
        nodes = sorted(structure.nodes)
        layout = engine.global_layout("mix")
        LAYOUT_STATS.reset()
        current = layout
        freezes = 0
        for i, u in enumerate(nodes[:9]):
            clone = current.derive()
            if i % 3 == 0:
                pass  # noop freeze
            elif i % 3 == 1:
                reassign(clone, u, "mix", [(structure.occupied_directions(u)[0], 2)])
            else:
                release(clone, u, "mix")
                assign(clone, u, "mix", ())  # re-declared empty: same universe
            clone.freeze()
            freezes += 1
            current = clone
        assert (
            LAYOUT_STATS.total_builds() + LAYOUT_STATS.noop_freezes == freezes
        )
        assert LAYOUT_STATS.compiles == LAYOUT_STATS.total_builds()
        assert LAYOUT_STATS.full_builds == 0
