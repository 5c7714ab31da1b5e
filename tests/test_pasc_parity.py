"""PASC circuits are labelled by one parity pass over the wired rails.

A layout made of PASC runs (``CircuitLayout.assign_pasc``) is frozen by
``compile_pasc``: each run's two rails are read off the pins its units
wired, parent side and child side, with no union-find.  These tests hold
it to the generic lowering:

* on every PASC iteration of real solves — every shape family, chains
  and trees, the three portal axes, k in {1, 4, 32} — the parity labels
  and circuit count equal ``compile_wiring_ids`` on a copy of the same
  pin table, and no iteration falls back to the union-find;
* a unit that skips its crossing flip gives the circuits (and values)
  its pins say, not the ones the algorithm meant;
* a hand-crossed child-side pin takes the fallback and still equals the
  generic compile;
* the lazy ``link_degrees`` of a derived PASC layout equals the
  generic compile's, so the adversarial scheduler picks the same
  victims;
* fault injection reads beepers off set keys: drop-armed PASC runs and
  wave repairs never build the ``(node, label)`` tuples.
"""

from __future__ import annotations

import pytest

from repro.dynamics import DynamicSPF, FaultInjector
from repro.dynamics.edits import generate_churn
from repro.grid.coords import Node
from repro.grid.directions import Axis
from repro.grid.oracle import bfs_tree
from repro.pasc import runner as pasc_runner
from repro.pasc.chain import PascRun
from repro.pasc.runner import run_pasc
from repro.sched.schedulers import AdversarialDelayScheduler
from repro.sim.circuits import LAYOUT_STATS, CircuitLayout
from repro.sim.compiled import compile_wiring_ids
from repro.sim.engine import CircuitEngine
from repro.spf.forest import shortest_path_forest
from repro.verify import assert_valid_forest
from repro.workloads import hexagon, line_structure, random_hole_free, spread_nodes
from repro.workloads.specs import build_structure
from tests.node_oracles import node_tree_run

from tests.conftest import node_chain

#: One instance per shape family.
SHAPES = (
    "hexagon:4",
    "parallelogram:6:8",
    "triangle:9",
    "line:40",
    "comb:5:6",
    "staircase:4:5",
    "lollipop:3:8",
    "random:70:3",
    "dendrite:70:2",
)


def generic(layout: CircuitLayout):
    """The union-find lowering of ``layout``'s compiled pins, on a copy."""
    return compile_wiring_ids(
        layout._compiled.index,
        dict(layout._pin_slot),
        layout.channels,
        layout.structure.grid_index().mate_edges(),
    )


@pytest.fixture
def pasc_oracle(monkeypatch):
    """Check every lowering of a PASC layout against the union-find.

    Returns the list of ``(parity?, layout)`` per PASC lowering.
    """
    seen = []
    lower = CircuitLayout._lower

    def spy(self, index):
        before = LAYOUT_STATS.parity_compiles
        lower(self, index)
        if not self._pasc_runs:
            return
        want = generic(self)
        got = self._compiled
        assert got.comp == want.comp
        assert got.n_components == want.n_components
        seen.append((LAYOUT_STATS.parity_compiles == before + 1, self))

    monkeypatch.setattr(CircuitLayout, "_lower", spy)
    return seen


def assert_all_parity(seen):
    assert seen, "no PASC layout was lowered"
    assert all(parity for parity, _ in seen), (
        f"{sum(not p for p, _ in seen)} of {len(seen)} PASC lowerings "
        "fell back to the union-find"
    )


# ----------------------------------------------------------------------
# oracle: every iteration of real solves
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", [1, 4, 32])
@pytest.mark.parametrize("spec", SHAPES)
def test_solve_iterations_match_union_find(pasc_oracle, spec, k):
    structure = build_structure(spec)
    sources = spread_nodes(structure, min(k, len(structure)))
    forest = shortest_path_forest(CircuitEngine(structure), structure, sources)
    assert_valid_forest(structure, sources, sorted(structure.nodes), forest.parent)
    assert_all_parity(pasc_oracle)


@pytest.mark.parametrize("axis", list(Axis))
def test_every_portal_axis_matches_union_find(pasc_oracle, axis):
    structure = random_hole_free(80, seed=92)
    sources = spread_nodes(structure, 4)
    engine = CircuitEngine(structure)
    forest = shortest_path_forest(engine, structure, sources, axis=axis)
    assert_valid_forest(structure, sources, sorted(structure.nodes), forest.parent)
    assert_all_parity(pasc_oracle)


def test_chain_and_tree_runs_match_union_find(pasc_oracle):
    structure = hexagon(4)
    root = structure.westernmost()
    dist, parent = bfs_tree(structure, root)
    del parent[root]
    line = sorted(u for u in structure.nodes if u.y == 0)
    engine = CircuitEngine(structure)
    tree = node_tree_run(structure.grid_index(), root, parent, (0, 1), tag="t")
    chain = node_chain(structure, line, channels=(2, 3), tag="c")
    single = node_chain(structure, [line[0]], tag="one")
    run_pasc(engine, [tree, chain, single])
    assert tree.node_values() == dist
    assert chain.node_values() == {u: i for i, u in enumerate(line)}
    assert single.values() == [0]
    # One fresh build, then one parity pass per derived iteration.
    assert_all_parity(pasc_oracle)
    assert len(pasc_oracle) == tree.iterations


def test_weighted_chain_matches_union_find(pasc_oracle):
    structure = line_structure(33)
    nodes = [Node(i, 0) for i in range(33)]
    weights = [i % 3 == 0 for i in range(33)]
    run = node_chain(structure, nodes, weights=[int(w) for w in weights])
    run_pasc(CircuitEngine(structure), [run])
    prefix = [sum(weights[:i]) for i in range(33)]
    assert run.values() == prefix
    assert_all_parity(pasc_oracle)


# ----------------------------------------------------------------------
# mutations: the labels follow the pins
# ----------------------------------------------------------------------
def _first_iterations(structure, nodes):
    """A chain's iteration-0 layout and run, after one absorbed round."""
    engine = CircuitEngine(structure)
    run = node_chain(structure, nodes)
    base = engine.new_layout()
    run.contribute_layout(base)
    base.freeze()
    bits = engine.run_round_indexed(base, run.beep_slots(), run.listen_slots())
    run.absorb_bits(bits)
    return engine, run, base


def test_skipped_flip_gives_the_circuits_its_pins_say(monkeypatch, pasc_oracle):
    structure = line_structure(16)
    nodes = [Node(i, 0) for i in range(16)]
    rewire = PascRun.rewire_layout

    def skip_one(self, layout):
        self._flipped = self._flipped[1:]  # the first flipped unit stays crossed
        rewire(self, layout)

    monkeypatch.setattr(PascRun, "rewire_layout", skip_one)
    run = node_chain(structure, nodes)
    try:
        run_pasc(CircuitEngine(structure), [run], max_iterations=12)
    except RuntimeError:
        pass  # a mis-wired chain may never fall silent
    assert run.node_values() != {u: i for i, u in enumerate(nodes)}
    # The parity pass labelled the wrong wiring exactly as the
    # union-find does: it reads pins, not the units' activity.
    assert_all_parity(pasc_oracle)


def test_hand_crossed_child_pin_falls_back_to_union_find(pasc_oracle):
    structure = line_structure(8)
    nodes = [Node(i, 0) for i in range(8)]
    engine, run, base = _first_iterations(structure, nodes)
    derived = base.derive()
    run.rewire_layout(derived)
    # Move unit 4's child-side primary pin into its secondary set: that
    # set now owns both wires of its parent link, the primary none.
    unit = 4
    back = structure.grid_index().mate_edges()[run.links[unit - 1]]
    derived.exchange_slots(run._p_slots[unit], run._s_slots[unit], [(back, 0)])
    parity = LAYOUT_STATS.parity_compiles
    derived.freeze()
    assert LAYOUT_STATS.parity_compiles == parity  # took the fallback
    assert derived.compiled().comp == generic(derived).comp
    assert derived.compiled().n_components == generic(derived).n_components
    # The base freeze took the parity pass, the derived one the fallback.
    assert [ok for ok, _ in pasc_oracle] == [True, False]


def test_fully_crossed_child_link_stays_on_the_parity_pass(pasc_oracle):
    structure = line_structure(8)
    nodes = [Node(i, 0) for i in range(8)]
    engine, run, base = _first_iterations(structure, nodes)
    derived = base.derive()
    unit = 3
    back = structure.grid_index().mate_edges()[run.links[unit - 1]]
    # Crossing both wires at the child side is still two rails.
    derived.exchange_slots(
        run._p_slots[unit], run._s_slots[unit], [(back, 0), (back, 1)]
    )
    derived.freeze()
    assert_all_parity(pasc_oracle)
    assert derived.compiled().n_components == 2


def test_foreign_set_in_a_pasc_layout_falls_back(pasc_oracle):
    structure = line_structure(6)
    nodes = [Node(i, 0) for i in range(6)]
    engine = CircuitEngine(structure)
    run = node_chain(structure, nodes)
    layout = engine.new_layout()
    run.contribute_layout(layout)
    layout.assign_sets([(run.nids[2], "extra", [(run.nids[2] * 6, 2)])])
    layout.freeze()
    assert [ok for ok, _ in pasc_oracle] == [False]


# ----------------------------------------------------------------------
# lazy link degrees
# ----------------------------------------------------------------------
def test_derived_pasc_adjacency_matches_union_find_rows(monkeypatch):
    structure = hexagon(3)
    root = structure.westernmost()
    _, parent = bfs_tree(structure, root)
    del parent[root]
    engine = CircuitEngine(structure)
    run = node_tree_run(structure.grid_index(), root, parent)
    layouts = []
    iteration_layout = pasc_runner._iteration_layout

    def keep(*args):
        layouts.append(iteration_layout(*args))
        return layouts[-1]

    monkeypatch.setattr(pasc_runner, "_iteration_layout", keep)
    run_pasc(engine, [run])
    assert len(layouts) >= 3
    id_of = structure.grid_index().id_of
    ids = [id_of(u) for u in sorted(structure.nodes)]
    for layout in layouts[1:]:
        compiled = layout.compiled()
        want = generic(layout)
        assert compiled._degrees is None  # built on first read only
        assert compiled.link_degrees() == want.link_degrees()
        picks = []
        for view in (compiled, want):
            scheduler = AdversarialDelayScheduler(fraction=0.2)
            scheduler.start(ids)
            scheduler.observe_layout(view)
            picks.append(scheduler.victims)
        assert picks[0] == picks[1]


# ----------------------------------------------------------------------
# fault injection reads beepers off keys
# ----------------------------------------------------------------------
def test_drop_armed_pasc_run_leaves_set_tuples_unmaterialized(monkeypatch):
    structure = hexagon(3)
    root = structure.westernmost()
    dist, parent = bfs_tree(structure, root)
    del parent[root]
    engine = CircuitEngine(structure)
    engine.fault_injector = injector = FaultInjector(drop_prob=0.2, seed=3)
    layouts = []
    iteration_layout = pasc_runner._iteration_layout

    def keep(*args):
        layouts.append(iteration_layout(*args))
        return layouts[-1]

    monkeypatch.setattr(pasc_runner, "_iteration_layout", keep)
    run = node_tree_run(structure.grid_index(), root, parent)
    run_pasc(engine, [run])
    assert run.node_values() == dist
    assert injector.stats.dropped > 0
    assert layouts and all(l.compiled().index._ids is None for l in layouts)


@pytest.mark.parametrize(
    "faults",
    [
        lambda nodes: FaultInjector(drop_prob=0.3, seed=5),
        lambda nodes: FaultInjector(crashed=nodes[1::3]),
    ],
    ids=["drop", "crash"],
)
def test_fault_armed_wave_repair_leaves_set_tuples_unmaterialized(faults):
    structure = random_hole_free(200, seed=3)
    nodes = sorted(structure.nodes)
    injector = faults(nodes)
    dyn = DynamicSPF(structure, [nodes[0]], nodes[-4:], faults=injector)
    script = generate_churn(
        structure, "growth", steps=3, batch_size=8, seed=1, protected=dyn.protected
    )
    for batch in script:
        dyn.apply(batch)
        assert dyn._wave_layout.compiled().index._ids is None
    assert injector.stats.lost > 0
