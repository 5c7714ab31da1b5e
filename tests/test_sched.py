"""Event-driven activation engine: schedulers, determinism, faults.

The round-synchronization barrier makes every scheduler compute the
*same* forests as the plain synchronous engine — what changes is the
cost (activations, scheduler time).  This file property-tests exactly
that contract:

* :class:`~repro.sched.schedulers.SynchronousScheduler` reproduces the
  plain :class:`~repro.sim.engine.CircuitEngine` bit for bit — same
  parents, same round counts, and ``activations == n * rounds``;
* every scheduler is deterministic per seed (identical activation
  checksums, counts, time, and forests across reruns);
* ``solve_spf`` stays forest-checker-valid under every scheduler, with
  and without a :class:`~repro.dynamics.faults.FaultInjector` armed;
* the experiment spec layer's scheduler axis expands and round-trips
  without disturbing historical trial hashes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.sched import (
    ActivationEngine,
    AdversarialDelayScheduler,
    RandomSequentialScheduler,
    SCHEDULER_NAMES,
    SynchronousScheduler,
    WeightedScheduler,
    make_scheduler,
)
from repro.spf.api import solve_spf
from repro.verify.forest_checker import check_forest
from repro.workloads import sample_sources_destinations, spread_nodes
from repro.workloads.random_structures import random_hole_free
from tests.node_oracles import index_of, run_round

ALL_SPECS = ("sync", "random:7", "adversarial:5", "weighted:2")


@st.composite
def spf_cases(draw):
    """A random hole-free instance with spread sources."""
    n = draw(st.integers(min_value=12, max_value=45))
    seed = draw(st.integers(min_value=0, max_value=500))
    k = draw(st.integers(min_value=1, max_value=3))
    structure = random_hole_free(n, seed=seed, compactness=0.6)
    sources = spread_nodes(structure, min(k, len(structure)))
    rest = [u for u in sorted(structure.nodes) if u not in set(sources)]
    destinations = rest[:3] if rest else list(sources)
    return structure, sources, destinations


def _solve(structure, sources, destinations, scheduler):
    engine = ActivationEngine(structure, scheduler=scheduler)
    solution = solve_spf(structure, sources, destinations, engine=engine)
    return solution, engine


# ----------------------------------------------------------------------
# sync scheduler == plain synchronous engine
# ----------------------------------------------------------------------


class TestSynchronousEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(case=spf_cases())
    def test_sync_matches_plain_engine_bit_for_bit(self, case):
        structure, sources, destinations = case
        plain = solve_spf(structure, sources, destinations)
        solution, engine = _solve(structure, sources, destinations, "sync")
        assert solution.forest.parent == plain.forest.parent
        assert solution.forest.members == plain.forest.members
        assert solution.rounds == plain.rounds
        # Counter-level invariant: one activation per amoebot per round.
        n = len(structure)
        assert solution.activations == n * solution.rounds
        assert plain.activations == n * plain.rounds

    def test_pinned_round_counts_unchanged(self):
        # The same pinned instances the seed suite uses: the event
        # engine must not perturb round totals under the sync scheduler.
        from repro.workloads.specs import build_structure

        for shape, k, l in (("hexagon:3", 2, 3), ("lollipop:3:8", 2, 3)):
            structure = build_structure(shape)
            sources, destinations = sample_sources_destinations(
                structure, k, l, seed=0
            )
            plain = solve_spf(structure, sources, destinations)
            synced, _ = _solve(structure, sources, destinations, "sync")
            assert synced.rounds == plain.rounds
            assert synced.forest.parent == plain.forest.parent

    def test_sync_epoch_costs_one_time_unit(self):
        structure = random_hole_free(30, seed=3)
        nodes = sorted(structure.nodes)
        _, engine = _solve(structure, [nodes[0]], nodes[-3:], "sync")
        # Lock-step: zero wasted wake-ups, one time unit per epoch.
        assert engine.stats.wasted == 0
        assert engine.stats.time == pytest.approx(engine.stats.epochs)


# ----------------------------------------------------------------------
# determinism and validity under every scheduler
# ----------------------------------------------------------------------


class TestSchedulerDeterminism:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_same_seed_same_schedule_and_forest(self, spec):
        structure = random_hole_free(40, seed=11)
        nodes = sorted(structure.nodes)
        sources, destinations = [nodes[0], nodes[-1]], nodes[5:8]

        def run():
            solution, engine = _solve(structure, sources, destinations, spec)
            st_ = engine.stats
            return (
                st_.checksum,
                st_.activations,
                st_.time,
                solution.rounds,
                tuple(sorted(solution.forest.parent.items())),
            )

        assert run() == run()

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_forest_valid_under_every_scheduler(self, spec):
        structure = random_hole_free(50, seed=17)
        sources = spread_nodes(structure, 2)
        rest = [u for u in sorted(structure.nodes) if u not in set(sources)]
        destinations = rest[:4]
        solution, engine = _solve(structure, sources, destinations, spec)
        assert not check_forest(
            structure, set(sources), set(destinations), solution.forest.parent
        )
        # The counter's model-level count never exceeds the physical
        # simulation count (ParallelGroup branches are rolled back).
        assert solution.activations == engine.rounds.activations
        assert engine.stats.activations >= solution.activations

    @settings(max_examples=10, deadline=None)
    @given(case=spf_cases(), spec=st.sampled_from(ALL_SPECS))
    def test_rounds_are_scheduler_invariant(self, case, spec):
        structure, sources, destinations = case
        plain = solve_spf(structure, sources, destinations)
        solution, _ = _solve(structure, sources, destinations, spec)
        assert solution.rounds == plain.rounds
        assert solution.forest.parent == plain.forest.parent

    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("sync", (56, 11200, 56.0)),
            ("random:1", (56, 67894, 341.808)),
            ("adversarial:4", (56, 32214, 179.0)),
            ("weighted:1", (56, 101633, 415.566)),
        ],
    )
    def test_pinned_activation_costs(self, spec, expected):
        # SSSP on random:200:7 from its smallest node: the rounds are
        # scheduler-invariant, the activations and scheduler time are
        # each scheduler's deterministic cost.
        structure = random_hole_free(200, seed=7)
        source = min(structure.nodes)
        solution, engine = _solve(structure, [source], list(structure.nodes), spec)
        assert (
            solution.rounds,
            solution.activations,
            round(engine.stats.time, 3),
        ) == expected


# ----------------------------------------------------------------------
# scheduler-specific behavior
# ----------------------------------------------------------------------


class TestAdversarialScheduler:
    def test_victims_picked_and_fairness_bounded(self):
        structure = random_hole_free(40, seed=23)
        nodes = sorted(structure.nodes)
        solution, engine = _solve(structure, [nodes[0]], nodes[-3:], "adversarial:6")
        sched = engine.scheduler
        assert sched.victims
        assert sched.delta == 6
        # Fairness: each epoch waits for the slowest victim, so the
        # adversary stretches time to at most delta per epoch.
        assert engine.stats.epochs <= engine.stats.time <= 6 * engine.stats.epochs
        assert not check_forest(
            structure, {nodes[0]}, set(nodes[-3:]), solution.forest.parent
        )

    def test_pinned_victims_respected(self):
        structure = random_hole_free(20, seed=2)
        grid = structure.grid_index()
        victim = next(iter(grid.live_ids()))
        sched = AdversarialDelayScheduler(delta=3, victims=[victim])
        sched.start(list(grid.live_ids()))
        assert sched.victims == frozenset([victim])
        assert sched.next_delay(victim) == 3.0
        # observe_layout must not retarget pinned victims.
        nodes = sorted(structure.nodes)
        engine = ActivationEngine(structure, scheduler=sched)
        solve_spf(structure, [nodes[0]], nodes[-2:], engine=engine)
        assert sched.victims == frozenset([victim])

    def test_adversarial_solve_leaves_set_tuples_unbuilt(self, monkeypatch):
        # The adversary scores sets by their owners' grid-index ids, so
        # no layout it observes materializes its (node, label) tuples.
        structure = random_hole_free(60, seed=3)
        sources = spread_nodes(structure, 2)
        rest = [u for u in sorted(structure.nodes) if u not in set(sources)]
        observed = []
        observe = AdversarialDelayScheduler.observe_layout

        def spy(self, compiled, *args):
            observed.append(compiled)
            return observe(self, compiled, *args)

        monkeypatch.setattr(AdversarialDelayScheduler, "observe_layout", spy)
        engine = ActivationEngine(structure, scheduler="adversarial")
        solve_spf(structure, sources, rest[:3], engine=engine)
        assert observed
        assert all(compiled.index._ids is None for compiled in observed)

    def test_ranking_matches_degree_formula(self, monkeypatch):
        # The adversary scores amoebots off the compiled pin table and
        # sorts only the linked ones; the victims equal the formula that
        # sums each set's external links onto its owner and sorts every
        # id by (-score, id), on every layout a solve observes (PASC
        # runs, portal and visibility circuits, global layouts) and at
        # every victim fraction.
        structure = random_hole_free(80, seed=6)
        observed = []
        observe = AdversarialDelayScheduler.observe_layout

        def spy(self, compiled):
            observed.append(compiled)
            return observe(self, compiled)

        monkeypatch.setattr(AdversarialDelayScheduler, "observe_layout", spy)
        engine = ActivationEngine(structure, scheduler="adversarial")
        solve_spf(structure, spread_nodes(structure, 4), sorted(structure.nodes), engine=engine)
        layouts = list({id(c): c for c in observed}.values())
        assert len(layouts) > 20
        ids = list(structure.grid_index().live_ids())
        for fraction in (0.05, 0.3, 1.0):
            count = max(1, int(len(ids) * fraction))
            for compiled in layouts:
                pin_slot, c, mates = compiled._wiring
                score = {}
                for pin, slot in pin_slot.items():
                    if (mates[pin // c] - pin // c) * c + pin in pin_slot:
                        nid = compiled.index.node_id(slot)
                        score[nid] = score.get(nid, 0) + 1
                want = sorted(ids, key=lambda nid: (-score.get(nid, 0), nid))[:count]
                sched = AdversarialDelayScheduler(fraction=fraction)
                sched.start(ids[::-1])
                observe(sched, compiled)
                assert sched.victims == frozenset(want)

    def test_same_layout_is_scored_once(self):
        # A re-score builds a new victim set; a remembered layout hands
        # back the very set it scored.
        structure = random_hole_free(30, seed=4)
        engine = ActivationEngine(structure, scheduler="sync")
        first = engine.global_layout().compiled()
        second = engine.global_layout(label="other", channel=1).compiled()
        ids = list(structure.grid_index().live_ids())
        sched = AdversarialDelayScheduler(fraction=0.2)
        sched.start(ids)
        sched.observe_layout(first)
        first_victims = sched.victims
        sched.observe_layout(first)
        assert sched.victims is first_victims
        sched.observe_layout(second)
        second_victims = sched.victims
        assert second_victims is not first_victims
        sched.observe_layout(first)  # the two layouts scored last are kept
        assert sched.victims is first_victims
        sched.start(ids)
        sched.observe_layout(second)  # a restart scores again
        assert sched.victims == second_victims
        assert sched.victims is not second_victims


class TestWeightedScheduler:
    def test_rates_skew_activation_counts(self):
        structure = random_hole_free(40, seed=31)
        nodes = sorted(structure.nodes)
        _, engine = _solve(structure, [nodes[0]], nodes[-3:], "weighted:4")
        per_node = engine.stats.per_node
        assert len(per_node) == len(structure)
        # Heterogeneous rates: fast amoebots wake up strictly more often.
        assert max(per_node.values()) > min(per_node.values())

    def test_explicit_rates_validated(self):
        with pytest.raises(ValueError, match="rate"):
            WeightedScheduler(rate_span=(0.0, 1.0))
        sched = WeightedScheduler(seed=1, rates={0: -1.0})
        with pytest.raises(ValueError, match="rate"):
            sched.start([0, 1])


# ----------------------------------------------------------------------
# fault composition: crashes and detect-and-retransmit
# ----------------------------------------------------------------------


class TestSchedulerFaults:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_forest_valid_with_drops_armed(self, spec):
        from repro.dynamics import FaultInjector

        structure = random_hole_free(45, seed=41)
        sources = spread_nodes(structure, 2)
        rest = [u for u in sorted(structure.nodes) if u not in set(sources)]
        destinations = rest[:3]
        engine = ActivationEngine(structure, scheduler=spec)
        engine.fault_injector = FaultInjector(drop_prob=0.25, seed=13)
        solution = solve_spf(structure, sources, destinations, engine=engine)
        assert not check_forest(
            structure, set(sources), set(destinations), solution.forest.parent
        )
        # Drops happened and were healed by retransmission, which is
        # visible as extra rounds relative to the fault-free run.
        assert engine.fault_injector.stats.dropped > 0
        assert engine.stats.retransmissions > 0
        clean = solve_spf(structure, sources, destinations)
        assert solution.rounds > clean.rounds
        assert solution.forest.parent == clean.forest.parent

    def test_crashed_amoebots_do_not_block_epochs(self):
        from repro.dynamics import FaultInjector

        structure = random_hole_free(30, seed=5)
        nodes = sorted(structure.nodes)
        engine = ActivationEngine(structure, scheduler="random:3")
        engine.fault_injector = FaultInjector(crashed=[nodes[-1]])
        layout = engine.global_layout()
        heard = run_round(engine, layout, [(nodes[0], "global")])
        # The epoch completed (no deadlock waiting on the crashed node)
        # and the healthy beep propagated.
        assert heard[(nodes[0], "global")]
        crashed_id = structure.grid_index().id_of(nodes[-1])
        assert crashed_id not in engine.stats.per_node

    def test_retransmission_cap_raises(self):
        from repro.dynamics import FaultInjector

        structure = random_hole_free(12, seed=9)
        nodes = sorted(structure.nodes)
        engine = ActivationEngine(
            structure, scheduler="sync", max_retransmissions=3
        )
        engine.fault_injector = FaultInjector(drop_prob=1.0, seed=0)
        layout = engine.global_layout()
        compiled = layout.compiled()
        beep = index_of(compiled.index, (nodes[0], "global"))
        listen = [index_of(compiled.index, (u, "global")) for u in nodes]
        with pytest.raises(RuntimeError, match="retransmissions"):
            engine.run_round_indexed(layout, [beep], listen)


# ----------------------------------------------------------------------
# construction surface
# ----------------------------------------------------------------------


class TestMakeScheduler:
    def test_names_and_defaults(self):
        assert SCHEDULER_NAMES == ("sync", "random", "adversarial", "weighted")
        assert isinstance(make_scheduler("sync"), SynchronousScheduler)
        assert isinstance(make_scheduler("random"), RandomSequentialScheduler)
        assert make_scheduler("random:9").seed == 9
        adv = make_scheduler("adversarial:7:0.25")
        assert (adv.delta, adv.fraction) == (7, 0.25)
        assert make_scheduler("weighted:3").seed == 3

    def test_instance_passthrough(self):
        sched = RandomSequentialScheduler(seed=5)
        assert make_scheduler(sched) is sched
        engine = ActivationEngine(random_hole_free(8, seed=1), scheduler=sched)
        assert engine.scheduler is sched

    @pytest.mark.parametrize(
        "bad",
        ["bogus", "adversarial:0", "adversarial:4:1.5", "random:-1",
         "weighted:-2", "sync:1", "random:x"],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            make_scheduler(bad)

    def test_solve_spf_scheduler_shortcut(self):
        structure = random_hole_free(20, seed=4)
        nodes = sorted(structure.nodes)
        solution = solve_spf(
            structure, [nodes[0]], nodes[-2:],
            session=Session(scheduler="random:1"),
        )
        plain = solve_spf(structure, [nodes[0]], nodes[-2:])
        assert solution.rounds == plain.rounds
        assert solution.activations > plain.activations


# ----------------------------------------------------------------------
# experiment spec integration
# ----------------------------------------------------------------------


class TestSpecIntegration:
    def test_trial_hash_stable_without_scheduler(self):
        from repro.experiments.spec import TrialSpec

        trial = TrialSpec(scenario="s", shape="hexagon:3", k=1, l=1, seed=0)
        assert "scheduler" not in trial.config()
        tagged = TrialSpec(
            scenario="s", shape="hexagon:3", k=1, l=1, seed=0, scheduler="sync"
        )
        assert tagged.config()["scheduler"] == "sync"
        assert tagged.key() != trial.key()

    def test_scenario_scheduler_axis_expands(self):
        from repro.experiments.spec import ScenarioSpec

        scenario = ScenarioSpec(
            name="s",
            shape="hexagon:3",
            ks=(1,),
            ls=(1,),
            seeds=(0,),
            schedulers=("sync", "random:1"),
        )
        trials = list(scenario.trials())
        assert sorted(t.scheduler for t in trials) == ["random:1", "sync"]
        roundtrip = ScenarioSpec.from_dict(scenario.to_dict())
        assert roundtrip.schedulers == ("sync", "random:1")
        # The default (empty) axis stays out of the serialized form.
        plain = ScenarioSpec(name="s", shape="hexagon:3", ks=(1,), ls=(1,))
        assert "schedulers" not in plain.to_dict()

    def test_bad_scheduler_axis_rejected(self):
        from repro.experiments.spec import ScenarioSpec, SpecError, TrialSpec

        with pytest.raises(SpecError, match="scheduler"):
            TrialSpec(
                scenario="s", shape="hexagon:3", k=1, l=1, seed=0,
                scheduler="bogus:1",
            )
        with pytest.raises(SpecError, match="scheduler"):
            ScenarioSpec(
                name="s", shape="hexagon:3", ks=(1,), ls=(1,),
                schedulers=("sync", "nope"),
            )

    def test_trial_records_activations(self):
        from repro.experiments.runner import execute_trial
        from repro.experiments.spec import TrialSpec

        trial = TrialSpec(
            scenario="s", shape="random:40:3", k=1, l=2, seed=0,
            scheduler="random:1",
        )
        result = execute_trial(trial)
        assert result.scheduler == "random:1"
        assert result.activations > result.rounds * 40 // 2
        assert result.sched_time is not None
        data = result.to_dict()
        assert data["scheduler"] == "random:1"
        # Sync-engine trials still report counter-level activations.
        plain = execute_trial(
            TrialSpec(scenario="s", shape="random:40:3", k=1, l=2, seed=0)
        )
        assert plain.activations == plain.rounds * 40
        assert plain.sched_time is None


class TestCli:
    def test_solve_with_scheduler(self, capsys):
        from repro.cli import main

        assert main([
            "solve", "--shape", "random:30:2", "-k", "1", "-l", "2",
            "--scheduler", "adversarial:3",
        ]) == 0
        out = capsys.readouterr().out
        assert "scheduler adversarial:" in out
        assert "activations" in out

    def test_bad_scheduler_exits(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main([
                "solve", "--shape", "hexagon:2", "--scheduler", "bogus",
            ])
