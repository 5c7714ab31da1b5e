"""One beep wave for the BFS baseline and the DynamicSPF repair.

Both run :func:`repro.baselines.bfs_wave.timed_wave` over grid-index
ids.  This file pins what ties the two users together:

* the baseline with ``D`` = every node is the canonical forest the
  repair maintains (first counterclockwise direction heard);
* fault-armed repairs on growth scripts, whose derived indexes number
  the added amoebots out of sorted-``Node`` order, keep their per-batch
  stats and fault counters (beeps are dropped in beep order, so the
  Node-ordered beep and listen traversal shows in these numbers);
* neither wave materializes the ``(node, label)`` tuples of its layout.
"""

from __future__ import annotations

import random

import pytest

import repro.baselines.bfs_wave as bfs_wave
from repro.baselines import bfs_wave_forest
from repro.dynamics import DynamicSPF, FaultInjector, FaultStats, generate_churn
from repro.dynamics.maintain import canonical_forest
from repro.sim.engine import CircuitEngine
from repro.workloads import random_hole_free
from repro.workloads.specs import build_structure

SHAPES = (
    "random:90:21",
    "random:60:4",
    "comb:4:5",
    "line:30",
    "hexagon:3",
    "staircase:6:3",
    "lollipop:3:8",
)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("spec", SHAPES)
def test_all_destination_wave_is_the_canonical_forest(spec, k):
    structure = build_structure(spec)
    sources = random.Random(k).sample(sorted(structure.nodes), k)
    wave = bfs_wave_forest(CircuitEngine(structure), structure, sources)
    canonical = canonical_forest(structure, sources)
    assert wave.parent == canonical.parent
    assert wave.members == canonical.members


# (batch ops, structure size, region, dirty, mode, rounds, wave rounds,
#  cascade rounds, corrected) per batch, then the final FaultStats.
DROP_PINS = (
    [
        (8, 208, 8, 30, "patch", 4, 2, 0, 2),
        (8, 216, 8, 28, "patch", 4, 2, 0, 1),
        (8, 224, 8, 30, "patch", 7, 5, 0, 4),
        (8, 232, 9, 24, "patch", 4, 2, 0, 1),
        (8, 240, 20, 45, "patch", 10, 8, 0, 10),
        (8, 248, 16, 39, "patch", 10, 8, 0, 10),
    ],
    FaultStats(suppressed=0, dropped=154, faulty_rounds=58, missed_hears=30),
)
CRASH_PINS = (
    [
        (8, 208, 8, 30, "patch", 4, 2, 0, 1),
        (8, 216, 8, 28, "patch", 3, 1, 0, 0),
        (8, 224, 8, 30, "patch", 4, 2, 0, 1),
        (8, 232, 9, 24, "patch", 4, 2, 0, 1),
        (8, 240, 20, 45, "patch", 8, 6, 0, 6),
        (8, 248, 16, 39, "patch", 10, 8, 0, 3),
    ],
    FaultStats(suppressed=112, dropped=0, faulty_rounds=20, missed_hears=19),
)


def _growth_run(faults):
    structure = random_hole_free(200, seed=3)
    nodes = sorted(structure.nodes)
    injector = faults(nodes)
    dyn = DynamicSPF(structure, [nodes[0]], nodes[-4:], faults=injector)
    script = generate_churn(
        structure, "growth", steps=6, batch_size=8, seed=1, protected=dyn.protected
    )
    stats = dyn.apply_script(script)
    return dyn, stats, injector


@pytest.mark.parametrize(
    "faults, pins",
    [
        (lambda nodes: FaultInjector(drop_prob=0.3, seed=5), DROP_PINS),
        (lambda nodes: FaultInjector(crashed=nodes[1::3]), CRASH_PINS),
    ],
    ids=["drop", "crash"],
)
def test_fault_armed_growth_repairs_are_pinned(faults, pins):
    dyn, stats, injector = _growth_run(faults)
    index = dyn.structure.grid_index()
    ids = [index.id_of(u) for u in sorted(dyn.structure.nodes)]
    assert ids != sorted(ids)  # added amoebots leave sorted-Node order
    batch_pins, fault_pins = pins
    assert [
        (s.batch_ops, s.structure_size, s.region, s.dirty, s.mode, s.rounds,
         s.wave_rounds, s.cascade_rounds, s.corrected)
        for s in stats
    ] == batch_pins
    assert injector.stats == fault_pins


def test_baseline_wave_leaves_set_tuples_unmaterialized(monkeypatch):
    built = []
    build = bfs_wave.build_wave_layout

    def spy(engine):
        built.append(build(engine))
        return built[-1]

    monkeypatch.setattr(bfs_wave, "build_wave_layout", spy)
    structure = build_structure("random:80:2")
    bfs_wave_forest(CircuitEngine(structure), structure, sorted(structure.nodes)[:2])
    assert len(built) == 1
    assert built[0].compiled().index._ids is None


def test_patch_repair_leaves_set_tuples_unmaterialized():
    structure = random_hole_free(120, seed=23)
    nodes = sorted(structure.nodes)
    dyn = DynamicSPF(structure, [nodes[0]], nodes[-4:])
    script = generate_churn(
        structure, "mixed", steps=4, batch_size=2, seed=7, protected=dyn.protected
    )
    for batch in script:
        stats = dyn.apply(batch)
        assert stats.mode == "patch"
        assert dyn._wave_layout.compiled().index._ids is None
    assert sum(s.wave_rounds for s in dyn.repairs) > 0
