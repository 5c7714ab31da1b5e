"""Tests for the experiment subsystem: specs, runner, store, aggregate."""

import json
import math

import pytest

from repro.experiments import (
    CampaignSpec,
    ResultStore,
    ScenarioSpec,
    SpecError,
    TrialSpec,
    campaign_names,
    classify_growth,
    execute_trial,
    expand_trials,
    get_campaign,
    group_records,
    growth_report,
    run_campaign,
    summarize,
    summary_table,
    sweep_axis,
)

TINY_CAMPAIGN = {
    "name": "tiny",
    "scenarios": [
        {
            "name": "hex",
            "shape": "hexagon:{n}",
            "sizes": [2, 3],
            "ks": [1, 2],
            "ls": [2],
            "seeds": [0],
        },
    ],
}


class TestSpecParsing:
    def test_round_trip_json(self):
        campaign = CampaignSpec.from_dict(TINY_CAMPAIGN)
        again = CampaignSpec.from_json(campaign.to_json())
        assert again == campaign
        assert again.trial_count() == 4

    def test_scenario_defaults(self):
        scenario = ScenarioSpec.from_dict({"name": "s", "shape": "hexagon:2"})
        assert scenario.trials()[0].algorithm == "auto"
        assert scenario.trials()[0].k == 1

    def test_scalar_axis_promoted(self):
        scenario = ScenarioSpec.from_dict(
            {"name": "s", "shape": "hexagon:{n}", "sizes": 3, "ks": 2}
        )
        assert scenario.sizes == (3,)
        assert scenario.ks == (2,)

    @pytest.mark.parametrize(
        "data,fragment",
        [
            ({"name": "s", "shape": "hexagon:2", "sizes": [2]}, "placeholder"),
            ({"name": "s", "shape": "hexagon:{n}"}, "no sizes"),
            ({"name": "s", "shape": "hexagon:2", "bogus": 1}, "unknown scenario"),
            ({"shape": "hexagon:2"}, "requires"),
            ({"name": "s", "shape": "hexagon:2", "ks": []}, "non-empty"),
            ({"name": "s", "shape": "hexagon:2", "ks": ["two"]}, "ints"),
            ({"name": "s", "shape": "hexagon:2", "algorithm": "magic"}, "algorithm"),
            (
                {"name": "s", "shape": "hexagon:2", "ks": [2], "algorithm": "spt"},
                "requires k = 1",
            ),
            (
                {"name": "s", "shape": "hexagon:2", "placement": "corners"},
                "placement",
            ),
            (
                {"name": "s", "shape": "hexagon:2", "ls": [3],
                 "algorithm": "sequential"},
                "requires l = 0",
            ),
        ],
    )
    def test_bad_scenarios_rejected(self, data, fragment):
        with pytest.raises(SpecError, match=fragment):
            ScenarioSpec.from_dict(data)

    def test_trial_rule_rejection_names_the_scenario(self):
        with pytest.raises(SpecError, match="^scenario 'lopsided': .*requires k = 1"):
            ScenarioSpec(name="lopsided", shape="hexagon:2", ks=(1, 2), algorithm="spt")

    def test_bad_campaigns_rejected(self):
        with pytest.raises(SpecError, match="no scenarios"):
            CampaignSpec.from_dict({"name": "empty"})
        with pytest.raises(SpecError, match="duplicate"):
            CampaignSpec.from_dict(
                {
                    "name": "dup",
                    "scenarios": [
                        {"name": "s", "shape": "hexagon:2"},
                        {"name": "s", "shape": "hexagon:3"},
                    ],
                }
            )
        with pytest.raises(SpecError, match="JSON"):
            CampaignSpec.from_json("{not json")
        with pytest.raises(SpecError, match="unknown campaign fields"):
            CampaignSpec.from_dict(
                {
                    "name": "x",
                    "extra": 1,
                    "scenarios": [{"name": "s", "shape": "hexagon:2"}],
                }
            )

    def test_negative_parameters_rejected(self):
        with pytest.raises(SpecError, match="k must be positive"):
            TrialSpec(scenario="s", shape="hexagon:2", k=0, l=1, seed=0)
        with pytest.raises(SpecError, match="l must be"):
            TrialSpec(scenario="s", shape="hexagon:2", k=1, l=-1, seed=0)


class TestTrialKeys:
    def test_key_is_content_hash(self):
        a = TrialSpec(scenario="a", shape="hexagon:2", k=1, l=1, seed=0)
        b = TrialSpec(scenario="b", shape="hexagon:2", k=1, l=1, seed=0)
        c = TrialSpec(scenario="a", shape="hexagon:2", k=1, l=1, seed=1)
        assert a.key() == b.key()  # scenario name is not identity
        assert a.key() != c.key()

    def test_sampling_seed_deterministic(self):
        t = TrialSpec(scenario="s", shape="hexagon:3", k=2, l=2, seed=7)
        assert t.sampling_seed() == t.sampling_seed()
        other = TrialSpec(scenario="s", shape="hexagon:3", k=2, l=2, seed=8)
        assert t.sampling_seed() != other.sampling_seed()

    def test_expand_trials_dedupes_across_scenarios(self):
        a = ScenarioSpec(name="a", shape="hexagon:2")
        b = ScenarioSpec(name="b", shape="hexagon:2")
        trials = expand_trials([*a.trials(), *b.trials()])
        assert len(trials) == 1


class TestRunner:
    def test_worker_layout_cache_shared_across_trials(self):
        # Trials over the same shape hit the worker session's layout
        # cache: the second execution reuses frozen-and-compiled layouts
        # built by the first instead of recompiling them per trial.
        from repro.experiments.runner import _worker_session

        first = TrialSpec(scenario="s", shape="hexagon:2", k=1, l=1, seed=0)
        second = TrialSpec(scenario="s", shape="hexagon:2", k=1, l=1, seed=1)
        execute_trial(first)
        layouts = _worker_session().layouts
        hits_before = layouts.hits
        result = execute_trial(second)
        assert result.rounds > 0
        assert layouts.hits > hits_before

    def test_execute_trial_measures(self):
        trial = TrialSpec(
            scenario="s", shape="hexagon:2", k=2, l=2, seed=0,
            measure_diameter=True,
        )
        result = execute_trial(trial)
        assert result.key == trial.key()
        assert result.n == 19
        assert result.rounds > 0
        assert result.resolved == "forest"
        assert result.forest_members >= 2
        assert result.diameter == 4
        assert result.sections

    @pytest.mark.parametrize("placement", ["extremes", "spread", "random"])
    def test_oversized_l_rejected_not_truncated(self, placement):
        trial = TrialSpec(
            scenario="s", shape="hexagon:1", k=1, l=50, seed=0,
            placement=placement,
        )
        with pytest.raises(ValueError, match="cannot pick"):
            execute_trial(trial)

    def test_parallel_matches_serial(self):
        campaign = CampaignSpec.from_dict(TINY_CAMPAIGN)
        serial = run_campaign(campaign, workers=1)
        parallel = run_campaign(campaign, workers=2)
        assert serial.total == parallel.total == 4

        def comparable(report):
            rows = []
            for record in report.records():
                record.pop("elapsed_s")
                record.pop("cached")
                rows.append(record)
            return sorted(rows, key=lambda r: r["key"])

        assert comparable(serial) == comparable(parallel)

    def test_resume_skips_cached_trials(self, tmp_path):
        campaign = CampaignSpec.from_dict(TINY_CAMPAIGN)
        path = tmp_path / "tiny.jsonl"
        first = run_campaign(campaign, store=ResultStore(path))
        assert first.executed == 4 and first.cache_hits == 0
        rerun = run_campaign(campaign, store=ResultStore(path))
        assert rerun.executed == 0 and rerun.cache_hits == 4
        assert all(r.cached for r in rerun.results)
        assert comparable_rounds(first) == comparable_rounds(rerun)

    def test_fresh_run_ignores_cache(self, tmp_path):
        campaign = CampaignSpec.from_dict(TINY_CAMPAIGN)
        store = ResultStore(tmp_path / "tiny.jsonl")
        run_campaign(campaign, store=store)
        again = run_campaign(campaign, store=store, resume=False)
        assert again.executed == 4 and again.cache_hits == 0

    def test_interrupted_run_resumes_from_last_trial(self, tmp_path):
        campaign = CampaignSpec.from_dict(TINY_CAMPAIGN)
        path = tmp_path / "tiny.jsonl"

        def bomb(trial, result, done, total):
            if done == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_campaign(campaign, store=ResultStore(path), progress=bomb)
        assert len(ResultStore(path)) == 2  # completed trials were persisted
        rerun = run_campaign(campaign, store=ResultStore(path))
        assert rerun.cache_hits == 2 and rerun.executed == 2

    def test_progress_callback(self):
        campaign = CampaignSpec.from_dict(TINY_CAMPAIGN)
        seen = []
        run_campaign(
            campaign, progress=lambda t, r, done, total: seen.append((done, total))
        )
        assert sorted(seen) == [(1, 4), (2, 4), (3, 4), (4, 4)]


def comparable_rounds(report):
    return sorted((r.key, r.rounds, r.forest_members) for r in report.results)


class TestStore:
    def test_in_memory_store(self):
        store = ResultStore()
        store.add({"key": "k1", "rounds": 3, "scenario": "s"})
        assert store.has("k1") and len(store) == 1
        assert store.get("k1")["rounds"] == 3
        assert store.get("missing") is None

    def test_requires_key(self):
        with pytest.raises(ValueError, match="key"):
            ResultStore().add({"rounds": 3})

    def test_persistence_and_corrupt_lines(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.add({"key": "a", "rounds": 1, "scenario": "x"})
        store.add({"key": "b", "rounds": 2, "scenario": "y"})
        with path.open("a") as handle:
            handle.write("{torn-write\n\n")
            handle.write(json.dumps({"key": "a", "rounds": 9, "scenario": "x"}) + "\n")
        reloaded = ResultStore(path)
        assert len(reloaded) == 2
        assert reloaded.get("a")["rounds"] == 9  # last write wins
        assert reloaded.scenarios() == ["x", "y"]
        assert [r["key"] for r in reloaded.records(scenario="y")] == ["b"]

    def test_non_string_key_survives_reload(self, tmp_path):
        """A trial recorded under a non-string key must still count as
        cached after a restart — resume must not silently re-run it."""
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.add({"key": 123, "rounds": 7, "scenario": "s"})
        assert store.has(123) and store.has("123")  # normalized in memory

        reloaded = ResultStore(path)
        assert reloaded.has(123), "trial lost across reload: would re-run"
        assert reloaded.has("123")
        assert reloaded.get(123)["rounds"] == 7
        # The normalized key is what reached the disk.
        assert json.loads(path.read_text().strip())["key"] == "123"

    def test_mixed_key_types_do_not_duplicate(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.add({"key": 7, "rounds": 1, "scenario": "s"})
        store.add({"key": "7", "rounds": 2, "scenario": "s"})
        assert len(store) == 1
        assert ResultStore(path).get(7)["rounds"] == 2  # last write wins


class TestAggregate:
    def test_summarize_means(self):
        records = [
            {"n": 10, "rounds": 4},
            {"n": 10, "rounds": 6},
            {"n": 20, "rounds": 10},
        ]
        assert summarize(records, x="n") == [(10, 5.0), (20, 10.0)]

    def test_group_and_axis(self):
        records = [
            {"scenario": "a", "n": 10, "k": 1, "rounds": 1},
            {"scenario": "b", "n": 10, "k": 2, "rounds": 2},
        ]
        assert set(group_records(records, "scenario")) == {"a", "b"}
        assert sweep_axis(records) == "k"

    def test_summary_table_renders(self):
        records = [{"n": 10, "rounds": 4}, {"n": 20, "rounds": 8}]
        text = summary_table(records, x="n", title="demo").render()
        assert "demo" in text and "10" in text and "8" in text

    @pytest.mark.parametrize(
        "fn,expected",
        [
            (lambda x: 7.0, "flat"),
            (lambda x: 3 * math.log2(x) + 5, "logarithmic"),
            (lambda x: 4 * math.log2(x) ** 2 + 1, "polylogarithmic"),
            (lambda x: 2 * x + 3, "linear"),
        ],
    )
    def test_classify_growth_shapes(self, fn, expected):
        xs = [50, 100, 200, 400, 800]
        fit = classify_growth(xs, [fn(x) for x in xs])
        assert fit is not None and fit.shape == expected

    def test_classify_growth_underdetermined(self):
        assert classify_growth([10, 20], [1, 2]) is None

    def test_growth_report_over_records(self):
        records = [
            {"n": n, "rounds": 3 * math.log2(n) + 2} for n in (64, 128, 256, 512)
        ]
        fit = growth_report(records, x="n")
        assert fit.shape == "logarithmic"
        assert fit.slope == pytest.approx(3.0)


class TestRegistry:
    def test_builtins_registered(self):
        names = campaign_names()
        for expected in ("spsp-small", "sssp-small", "forest-small", "forest",
                         "ablations", "shapes"):
            assert expected in names

    def test_builtin_trial_counts(self):
        assert get_campaign("forest").trial_count() >= 12
        assert get_campaign("shapes").trial_count() >= 12
        assert get_campaign("spsp-small").trial_count() == 4

    def test_unknown_campaign(self):
        with pytest.raises(KeyError, match="unknown campaign"):
            get_campaign("nope")

    def test_all_builtins_expand(self):
        for name in campaign_names():
            trials = get_campaign(name).trials()
            assert trials, name
            assert len({t.key() for t in trials}) == len(trials)


class TestStoreCompaction:
    def test_compact_drops_superseded_lines(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        for i in range(3):
            store.add({"key": "a", "rounds": i, "scenario": "s"})
        store.add({"key": "b", "rounds": 9, "scenario": "s"})
        with path.open("a") as handle:
            handle.write("{torn\n")

        reloaded = ResultStore(path)
        assert reloaded.superseded_lines == 3  # two dupes + one torn line
        reclaimed = reloaded.compact()
        assert reclaimed == 3
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        assert len(lines) == 2

        again = ResultStore(path)
        assert len(again) == 2
        assert again.get("a")["rounds"] == 2  # last record survived
        assert again.superseded_lines == 0
        assert again.compact() == 0  # already minimal: no rewrite

    def test_compact_sees_duplicates_written_through_live_store(self, tmp_path):
        """Overwrites through the same instance count as superseded."""
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.add({"key": "a", "rounds": 1, "scenario": "s"})
        store.add({"key": "a", "rounds": 2, "scenario": "s"})
        assert store.superseded_lines == 1
        assert store.compact() == 1
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        assert len(lines) == 1
        assert ResultStore(path).get("a")["rounds"] == 2

    def test_compact_noop_on_clean_store(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.add({"key": "a", "rounds": 1, "scenario": "s"})
        before = path.read_text()
        reloaded = ResultStore(path)
        assert reloaded.compact() == 0
        assert path.read_text() == before

    def test_compact_in_memory_store_is_noop(self):
        store = ResultStore()
        store.add({"key": "a", "rounds": 1})
        assert store.compact() == 0


class TestChurnSpecs:
    def test_churn_scenario_round_trip(self):
        scenario = ScenarioSpec(
            name="churny",
            shape="random:{n}:1",
            sizes=(50,),
            ks=(1,),
            ls=(3,),
            seeds=(1,),
            churn="growth",
            churn_steps=4,
            churn_batch=2,
        )
        again = ScenarioSpec.from_dict(scenario.to_dict())
        assert again == scenario
        trial = scenario.trials()[0]
        assert trial.churn == "growth" and trial.churn_steps == 4

    def test_churn_requires_steps_and_auto(self):
        with pytest.raises(SpecError, match="churn_steps"):
            TrialSpec(scenario="s", shape="hexagon:2", k=1, l=1, seed=0,
                      churn="growth")
        with pytest.raises(SpecError, match="auto"):
            TrialSpec(scenario="s", shape="hexagon:2", k=1, l=1, seed=0,
                      algorithm="spt", churn="growth", churn_steps=2)
        with pytest.raises(SpecError, match="without a churn kind"):
            TrialSpec(scenario="s", shape="hexagon:2", k=1, l=1, seed=0,
                      churn_steps=2)
        with pytest.raises(SpecError, match="churn"):
            ScenarioSpec(name="s", shape="hexagon:2", churn="melt",
                         churn_steps=1)

    def test_non_churn_keys_unchanged_by_dynamics_fields(self):
        """Churn fields must not enter pre-dynamics content hashes."""
        trial = TrialSpec(scenario="s", shape="hexagon:2", k=1, l=2, seed=0)
        assert "churn" not in trial.config()
        churny = TrialSpec(scenario="s", shape="hexagon:2", k=1, l=2, seed=0,
                           churn="growth", churn_steps=2)
        assert churny.key() != trial.key()
        assert churny.config()["churn_steps"] == 2

    def test_churn_trial_executes(self):
        trial = TrialSpec(
            scenario="churn-test",
            shape="random:60:1",
            k=1,
            l=2,
            seed=1,
            churn="growth",
            churn_steps=2,
            churn_batch=2,
        )
        result = execute_trial(trial)
        assert result.resolved == "dynamic"
        assert result.rounds > 0
        assert result.sections["edit_batches"] == 2
        assert result.sections["repairs_patch"] + result.sections["repairs_full"] == 2
        assert result.sections["repair_rounds"] < result.rounds

    def test_churn_trial_is_deterministic(self):
        trial = TrialSpec(
            scenario="churn-test", shape="random:50:1", k=1, l=2, seed=3,
            churn="mixed", churn_steps=2, churn_batch=2,
        )
        a, b = execute_trial(trial), execute_trial(trial)
        assert a.rounds == b.rounds
        assert a.forest_members == b.forest_members
        assert a.sections == b.sections

    def test_builtin_churn_campaigns_registered(self):
        assert "churn-small" in campaign_names()
        assert "churn" in campaign_names()
        campaign = get_campaign("churn-small")
        trials = campaign.trials()
        assert all(t.churn for t in trials)
        assert campaign.trial_count() == len(expand_trials(trials))
