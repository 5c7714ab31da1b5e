"""Fault injection: crashed amoebots, dropped beeps, detection, healing."""

from __future__ import annotations

import pytest

from repro.dynamics import DynamicSPF, FaultInjector, generate_churn
from repro.sim.engine import CircuitEngine
from repro.spf.api import solve_spf
from repro.workloads import line_structure, random_hole_free
from repro.grid.coords import Node
from tests.node_oracles import run_round


class TestFaultInjector:
    def test_crashed_amoebots_go_silent(self):
        s = line_structure(6)
        engine = CircuitEngine(s)
        injector = FaultInjector(crashed=[Node(0, 0)])
        engine.fault_injector = injector
        layout = engine.global_layout()
        # The crashed head beeps: nobody hears anything.
        heard = run_round(engine, layout, [(Node(0, 0), "global")])
        assert not any(heard.values())
        assert injector.stats.suppressed == 1
        # A healthy amoebot's beep still goes through.
        heard = run_round(engine, layout, [(Node(3, 0), "global")])
        assert all(heard.values())

    def test_recover_restores_transmission(self):
        s = line_structure(4)
        engine = CircuitEngine(s)
        injector = FaultInjector(crashed=[Node(1, 0)])
        engine.fault_injector = injector
        layout = engine.global_layout()
        assert not any(run_round(engine, layout, [(Node(1, 0), "global")]).values())
        injector.recover(Node(1, 0))
        assert all(run_round(engine, layout, [(Node(1, 0), "global")]).values())

    def test_drop_probability_is_seeded(self):
        def run(seed):
            s = line_structure(8)
            engine = CircuitEngine(s)
            injector = FaultInjector(drop_prob=0.5, seed=seed)
            engine.fault_injector = injector
            layout = engine.global_layout()
            compiled = layout.compiled()
            beep = compiled.index.index_of((Node(0, 0), "global"))
            results = [
                engine.run_round_indexed(layout, [beep], [beep])[0]
                for _ in range(20)
            ]
            return results, injector.stats.dropped

        a, dropped_a = run(3)
        b, dropped_b = run(3)
        assert a == b and dropped_a == dropped_b
        assert 0 < dropped_a < 20

    def test_detection_counts_missed_hears(self):
        s = line_structure(5)
        engine = CircuitEngine(s)
        injector = FaultInjector(crashed=[Node(0, 0)])
        engine.fault_injector = injector
        layout = engine.global_layout()
        compiled = layout.compiled()
        beep = compiled.index.index_of((Node(0, 0), "global"))
        listen = [compiled.index.index_of((Node(i, 0), "global")) for i in range(5)]
        bits = engine.run_round_indexed(layout, [beep], listen)
        assert list(bits) == [False] * 5
        assert injector.stats.missed_hears == 5
        assert injector.stats.faulty_rounds == 1

    def test_detection_diff_rejects_mismatched_lengths(self):
        from repro.dynamics.faults import missed_hears

        with pytest.raises(ValueError, match="different lengths"):
            missed_hears([True, False], [True])

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(drop_prob=1.5)

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="drop probability"):
            FaultInjector(drop_prob=-0.1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            FaultInjector(drop_prob=0.5, seed=-1)


class TestFaultyRepair:
    @pytest.mark.parametrize("drop", [0.3, 0.7])
    def test_repair_stays_exact_under_beep_drops(self, drop):
        s = random_hole_free(120, seed=23)
        nodes = sorted(s.nodes)
        injector = FaultInjector(drop_prob=drop, seed=99)
        dyn = DynamicSPF(s, [nodes[0]], nodes[-4:], faults=injector)
        script = generate_churn(
            s, "mixed", steps=6, batch_size=3, seed=7, protected=dyn.protected
        )
        stats = dyn.apply_script(script)
        ref = solve_spf(dyn.structure, [nodes[0]], nodes[-4:])
        assert dyn.forest.parent == ref.forest.parent
        # Everything is seeded, so the fault volume is deterministic:
        # beeps were lost, outcome changes were detected, and the
        # damaged labels were healed (that is what kept parents exact).
        assert injector.stats.lost > 0
        assert injector.stats.missed_hears > 0
        assert sum(st.corrected for st in stats) > 0

    def test_injector_armed_only_during_waves(self):
        s = random_hole_free(80, seed=29)
        nodes = sorted(s.nodes)
        injector = FaultInjector(drop_prob=1.0, seed=1)
        dyn = DynamicSPF(s, [nodes[0]], nodes[-3:], faults=injector)
        # The initial solve ran fault-free: nothing dropped yet.
        assert injector.stats.dropped == 0
        script = generate_churn(
            s, "growth", steps=2, batch_size=2, seed=2, protected=dyn.protected
        )
        stats = dyn.apply_script(script)
        assert dyn.engine.fault_injector is None  # disarmed after repairs
        # With every beep dropped, every wave-repaired label was healed.
        waves = sum(st.wave_rounds for st in stats)
        if waves:
            assert sum(st.corrected for st in stats) > 0
        ref = solve_spf(dyn.structure, [nodes[0]], nodes[-3:])
        assert dyn.forest.parent == ref.forest.parent
