"""Tests for the dynamics subsystem: edits, repair, and churn integration.

The centerpiece is the acceptance property: for every generated edit
script, incremental repair yields a forest **identical** (same parent
pointers) to a from-scratch ``solve_spf`` on the edited structure —
checked batch by batch on randomized instances.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.dynamics import (
    CHURN_KINDS,
    DynamicSPF,
    EditBatch,
    EditError,
    EditScript,
    StructureEditor,
    canonical_forest,
    generate_churn,
    route_under_churn,
    update_distances,
)
from repro.grid.coords import Node
from repro.grid.holes import has_holes
from repro.grid.oracle import bfs_distances
from repro.grid.structure import AmoebotStructure
from repro.sim.circuits import LAYOUT_STATS
from repro.sim.engine import CircuitEngine
from repro.spf.api import solve_spf
from repro.verify.forest_checker import assert_valid_forest
from repro.workloads import hexagon, random_hole_free, spread_nodes


def _is_connected(nodes):
    nodes = set(nodes)
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in u.neighbors():
            if v in nodes and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(nodes)


# ----------------------------------------------------------------------
# edit batches and the incremental validator
# ----------------------------------------------------------------------


class TestEditBatch:
    def test_overlap_rejected(self):
        with pytest.raises(EditError):
            EditBatch(remove=(Node(0, 0),), add=(Node(0, 0),))

    def test_duplicates_rejected(self):
        with pytest.raises(EditError):
            EditBatch(add=(Node(0, 0), Node(0, 0)))

    def test_script_round_trip(self):
        script = EditScript(
            batches=(
                EditBatch(add=(Node(2, 0),)),
                EditBatch(remove=(Node(0, 1),), add=(Node(3, 0),)),
            ),
            kind="manual",
            seed=7,
        )
        again = EditScript.from_dict(script.to_dict())
        assert again == script
        assert again.total_ops == 3


class TestStructureEditor:
    def test_protected_nodes_not_removable(self):
        s = hexagon(2)
        u = sorted(s.nodes)[0]
        editor = StructureEditor(s, protected=[u])
        assert editor.check_remove(u) is not None
        with pytest.raises(EditError):
            editor.remove(u)

    def test_interior_removal_rejected_as_hole(self):
        s = hexagon(2)
        center = Node(0, 0)
        assert all(v in s for v in center.neighbors())
        editor = StructureEditor(s)
        reason = editor.check_remove(center)
        assert reason is not None and "hole" in reason

    def test_addition_closing_a_ring_rejected(self):
        # A hexagonal ring minus one cell: adding the missing cell back
        # would enclose the center as a hole.
        ring = list(Node(0, 0).neighbors())
        gap = ring[-1]
        s = AmoebotStructure(ring[:-1], require_hole_free=True)
        editor = StructureEditor(s)
        reason = editor.check_add(gap)
        assert reason is not None and "hole" in reason

    def test_batch_atomicity_on_failure(self):
        s = hexagon(2)
        editor = StructureEditor(s)
        before = editor.nodes
        bad = EditBatch(remove=(Node(0, 0),))  # interior: creates a hole
        with pytest.raises(EditError):
            editor.apply(bad)
        assert editor.nodes == before

    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=12, deadline=None)
    def test_incremental_validator_matches_full_rescan(self, seed):
        """Accepted ops keep the invariants; rejected ops would break them.

        The single most load-bearing claim of ``edits.py``: the O(1)
        neighborhood criteria are *exact* for hole-free structures.
        """
        rng = random.Random(seed)
        s = random_hole_free(rng.randint(15, 60), seed=seed)
        editor = StructureEditor(s)
        for _ in range(25):
            nodes = sorted(editor.nodes)
            if rng.random() < 0.5:
                u = rng.choice(nodes)
                ok = editor.check_remove(u) is None
                candidate = set(nodes) - {u}
                truly_ok = (
                    len(candidate) >= 1
                    and _is_connected(candidate)
                    and not has_holes(candidate)
                )
                assert ok == truly_ok, (u, "remove")
                if ok:
                    editor.remove(u)
            else:
                anchor = rng.choice(nodes)
                empties = [v for v in anchor.neighbors() if v not in editor]
                if not empties:
                    continue
                u = rng.choice(empties)
                ok = editor.check_add(u) is None
                candidate = set(nodes) | {u}
                truly_ok = _is_connected(candidate) and not has_holes(candidate)
                assert ok == truly_ok, (u, "add")
                if ok:
                    editor.add(u)
        # And the final state still survives the strict constructor.
        AmoebotStructure(editor.nodes)


class TestChurnGenerators:
    @pytest.mark.parametrize("kind", CHURN_KINDS)
    def test_generated_scripts_apply_cleanly(self, kind):
        s = random_hole_free(80, seed=17)
        protected = set(spread_nodes(s, 2))
        script = generate_churn(
            s, kind, steps=5, batch_size=3, seed=3, protected=protected
        )
        editor = StructureEditor(s, protected=protected)
        editor.apply_script(script)
        assert protected <= editor.nodes
        AmoebotStructure(editor.nodes)  # strict re-validation

    def test_deterministic_per_seed(self):
        s = random_hole_free(60, seed=21)
        a = generate_churn(s, "mixed", steps=4, batch_size=2, seed=9)
        b = generate_churn(s, "mixed", steps=4, batch_size=2, seed=9)
        c = generate_churn(s, "mixed", steps=4, batch_size=2, seed=10)
        assert a == b
        assert a != c

    def test_unknown_kind_rejected(self):
        with pytest.raises(EditError):
            generate_churn(hexagon(2), "melt", steps=1)


# ----------------------------------------------------------------------
# incremental distances
# ----------------------------------------------------------------------


class TestUpdateDistances:
    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=12, deadline=None)
    def test_matches_fresh_bfs(self, seed):
        rng = random.Random(seed)
        s = random_hole_free(rng.randint(20, 70), seed=seed)
        sources = frozenset(spread_nodes(s, rng.randint(1, 3)))
        dist = bfs_distances(s, sources)
        editor = StructureEditor(s, protected=sources)
        script = generate_churn(
            s, "mixed", steps=4, batch_size=3, seed=seed, protected=sources
        )
        for batch in script:
            editor.apply(batch)
            new_structure = editor.structure()
            region, changed, layers = update_distances(
                dist, new_structure, sources, batch.add, batch.remove
            )
            assert dist == bfs_distances(new_structure, sources)
            assert changed <= region
            assert set(batch.add) <= region
            assert layers >= 0


# ----------------------------------------------------------------------
# the acceptance property: repair == from-scratch solve
# ----------------------------------------------------------------------


class TestRepairEquivalence:
    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_k1_repair_identical_to_solve_spf(self, seed):
        """For every generated edit script, incremental repair yields a
        forest identical (same parent pointers) to a from-scratch
        ``solve_spf`` on the edited structure."""
        rng = random.Random(seed)
        s = random_hole_free(rng.randint(25, 80), seed=seed)
        nodes = sorted(s.nodes)
        source = rng.choice(nodes)
        dests = rng.sample([u for u in nodes if u != source],
                           min(4, len(nodes) - 1))
        dyn = DynamicSPF(s, [source], dests)
        kind = rng.choice(CHURN_KINDS)
        script = generate_churn(
            s, kind, steps=4, batch_size=3, seed=seed, protected=dyn.protected
        )
        for batch in script:
            dyn.apply(batch)
            ref = solve_spf(dyn.structure, [source], dests)
            assert dyn.forest.parent == ref.forest.parent
            assert dyn.forest.members == ref.forest.members

    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=6, deadline=None)
    def test_multi_source_repair_is_canonical_and_valid(self, seed):
        rng = random.Random(seed)
        s = random_hole_free(rng.randint(30, 70), seed=seed + 1)
        sources = spread_nodes(s, rng.randint(2, 4))
        dyn = DynamicSPF(s, sources)  # SSSP: every node a destination
        script = generate_churn(
            s, "mixed", steps=3, batch_size=3, seed=seed, protected=dyn.protected
        )
        for batch in script:
            dyn.apply(batch)
            want = canonical_forest(dyn.structure, sources)
            assert dyn.forest.parent == want.parent
            assert_valid_forest(
                dyn.structure, sources, dyn.structure.nodes, dyn.forest.parent
            )

    def test_removing_a_source_is_rejected(self):
        s = hexagon(3)
        source = sorted(s.nodes)[0]
        dyn = DynamicSPF(s, [source])
        before = dyn.structure
        with pytest.raises(EditError):
            dyn.apply(EditBatch(remove=(source,)))
        assert dyn.structure is before


class TestRepairCost:
    def test_localized_repair_cheaper_than_resolve(self):
        s = random_hole_free(200, seed=11)
        nodes = sorted(s.nodes)
        dyn = DynamicSPF(s, [nodes[0]], nodes[-5:])
        script = generate_churn(
            s, "growth", steps=5, batch_size=4, seed=1, protected=dyn.protected
        )
        for batch in script:
            stats = dyn.apply(batch)
            ref = solve_spf(dyn.structure, [nodes[0]], nodes[-5:])
            assert stats.mode == "patch"
            assert stats.rounds < ref.rounds

    def test_threshold_forces_full_resolve(self):
        s = random_hole_free(60, seed=5)
        nodes = sorted(s.nodes)
        dyn = DynamicSPF(s, [nodes[0]], nodes[-3:], threshold=0.001)
        script = generate_churn(
            s, "growth", steps=1, batch_size=3, seed=2, protected=dyn.protected
        )
        stats = dyn.apply(script.batches[0])
        assert stats.mode == "full"
        ref = solve_spf(dyn.structure, [nodes[0]], nodes[-3:])
        assert dyn.forest.parent == ref.forest.parent

    def test_patch_repairs_reuse_layouts_via_derive(self):
        """LAYOUT_STATS must show derive hits, not rebuilds."""
        s = random_hole_free(150, seed=8)
        nodes = sorted(s.nodes)
        dyn = DynamicSPF(s, [nodes[0]], nodes[-4:])
        script = generate_churn(
            s, "mixed", steps=6, batch_size=2, seed=4, protected=dyn.protected
        )
        LAYOUT_STATS.reset()
        stats = dyn.apply_script(script)
        assert all(st_.mode == "patch" for st_ in stats)
        assert LAYOUT_STATS.full_builds == 0
        assert LAYOUT_STATS.incremental_builds >= len(stats)

    def test_rounds_are_charged_to_the_engine(self):
        s = random_hole_free(100, seed=6)
        nodes = sorted(s.nodes)
        dyn = DynamicSPF(s, [nodes[0]], nodes[-3:])
        before = dyn.engine.rounds.total
        script = generate_churn(
            s, "growth", steps=2, batch_size=2, seed=3, protected=dyn.protected
        )
        stats = dyn.apply_script(script)
        assert dyn.engine.rounds.total - before == sum(st_.rounds for st_ in stats)
        assert all(st_.rounds >= 2 for st_ in stats)

    def test_given_engine_keeps_its_round_counter(self):
        s = random_hole_free(60, seed=6)
        nodes = sorted(s.nodes)
        engine = CircuitEngine(s)
        engine.charge_local_round(5)
        dyn = DynamicSPF(s, [nodes[0]], nodes[-3:], engine=engine)
        plain = DynamicSPF(s, [nodes[0]], nodes[-3:])
        assert dyn.engine is engine
        assert engine.rounds.total == plain.engine.rounds.total + 5

    def test_engine_must_belong_to_the_structure(self):
        s = random_hole_free(30, seed=6)
        nodes = sorted(s.nodes)
        other = CircuitEngine(random_hole_free(30, seed=6))
        with pytest.raises(ValueError, match="different structure"):
            DynamicSPF(s, [nodes[0]], engine=other)
        with pytest.raises(ValueError, match="not both"):
            DynamicSPF(s, [nodes[0]], engine=CircuitEngine(s), session=Session())


# ----------------------------------------------------------------------
# routing over a forest being repaired mid-flight
# ----------------------------------------------------------------------


class TestRouteUnderChurn:
    def test_tokens_drain_while_structure_churns(self):
        s = random_hole_free(120, seed=31)
        nodes = sorted(s.nodes)
        source, dests = nodes[0], nodes[-6:]
        dyn = DynamicSPF(s, [source], dests)
        script = generate_churn(
            s, "mixed", steps=6, batch_size=2, seed=13, protected=dyn.protected
        )
        stats, applied = route_under_churn(dyn, dests, script, edit_every=1)
        assert applied >= 1
        for path in stats.token_paths.values():
            assert path[-1] == source
        # Paths may teleport only at rescue points; every token still
        # starts at its origin.
        for t, origin in enumerate(dests):
            assert stats.token_paths[t][0] == origin

    def test_canonical_forest_matches_reference_depths(self):
        s = random_hole_free(90, seed=44)
        sources = spread_nodes(s, 3)
        forest = canonical_forest(s, sources)
        dist = bfs_distances(s, sources)
        for u in s:
            assert forest.depth_of(u) == dist[u]
