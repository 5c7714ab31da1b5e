"""The telemetry layer: spans, metrics, exposition, rendering, logs.

Covers the observability contract end to end: span nesting and the
disabled no-op path, opt-in round tracing (structural check plus
bit-identity), histogram bucketing and quantiles, Prometheus rendering
against fixed fixtures (and the validator against broken bodies),
registry views over the legacy stat globals, the snapshotter, the JSON
log formatter, and the full-pipeline coverage criterion: a traced
solve's phase spans must account for >= 90% of the root wall-clock.
"""

from __future__ import annotations

import io
import json
import logging
import time

import pytest

from repro.api import Session, SolveRequest
from repro.motion.routing import RoutingStats
from repro.obs import (
    MetricError,
    MetricsRegistry,
    MetricsSnapshotter,
    NOOP_SPAN,
    Tracer,
    configure_logging,
    current_tracer,
    exponential_buckets,
    load_trace,
    register_process_views,
    render_trace,
    trace_span,
    use_tracer,
    validate_prometheus_text,
)
from repro.obs.logs import JsonLogFormatter
from repro.sched.engine import ActivationStats


class TestSpans:
    def test_noop_when_no_tracer_active(self):
        assert current_tracer() is None
        assert trace_span("anything", n=3) is NOOP_SPAN
        with trace_span("still-noop") as span:
            span.set(ignored=True)  # must not raise

    def test_nesting_parent_links_and_depth(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("outer", n=1):
                with trace_span("middle"):
                    with trace_span("inner"):
                        pass
                with trace_span("sibling"):
                    pass
        records = {r["name"]: r for r in tracer.records()}
        assert records["outer"]["parent"] is None
        assert records["middle"]["parent"] == records["outer"]["id"]
        assert records["inner"]["parent"] == records["middle"]["id"]
        assert records["sibling"]["parent"] == records["outer"]["id"]
        assert records["inner"]["depth"] == 2
        assert records["outer"]["attrs"] == {"n": 1}
        # children finish before their parent
        names = [r["name"] for r in tracer.records()]
        assert names.index("inner") < names.index("outer")

    def test_activation_is_scoped_and_nestable(self):
        first, second = Tracer(), Tracer()
        with use_tracer(first):
            assert current_tracer() is first
            with use_tracer(second):
                assert current_tracer() is second
            assert current_tracer() is first
        assert current_tracer() is None

    def test_exception_recorded_and_reraised(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with use_tracer(tracer):
                with trace_span("boom"):
                    raise RuntimeError("x")
        assert current_tracer() is None
        (record,) = tracer.records()
        assert record["attrs"]["error"] == "RuntimeError"

    def test_dump_load_round_trip(self, tmp_path):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("a", n=1):
                with trace_span("b"):
                    pass
        path = tmp_path / "t.jsonl"
        assert tracer.dump(path) == 2
        assert load_trace(path) == tracer.records()
        # append mode with an extra key (the campaign spool shape)
        tracer.dump(path, append=True, extra={"trial": "k1"})
        records = load_trace(path)
        assert len(records) == 4
        assert records[-1]["trial"] == "k1"

    def test_load_trace_reports_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 1}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            load_trace(path)


class TestRoundTracing:
    def test_round_tracing_sets_flags_without_shadowing_methods(self):
        from repro.sim.engine import CircuitEngine
        from repro.sim.trace import attach_trace
        from repro.workloads.specs import build_structure

        engine = CircuitEngine(build_structure("hexagon:2"))
        assert not engine.trace_rounds and engine.round_trace is None
        engine.enable_round_tracing()
        engine.enable_round_tracing()  # idempotent
        assert engine.trace_rounds is True
        trace = attach_trace(engine)
        assert engine.round_trace is trace
        # Tracing is kernel state, never a per-instance method override.
        for name in ("run_round_indexed", "run_round", "charge_local_round"):
            assert name not in engine.__dict__, name

    def test_round_spans_and_bit_identity(self):
        request = SolveRequest(shape="random:60:3", k=1, l=3, algorithm="spt")
        baseline = Session().run(request)
        tracer = Tracer(trace_rounds=True)
        with use_tracer(tracer):
            traced = Session().run(request)
        assert traced.rounds == baseline.rounds
        rounds = [r for r in tracer.records() if r["name"] == "round"]
        assert rounds, "opt-in round tracing must produce per-round spans"
        phase = {r["name"] for r in tracer.records()}
        assert {"solve", "build", "rounds"} <= phase

    def test_default_tracer_produces_no_round_spans(self):
        tracer = Tracer()  # trace_rounds=False
        with use_tracer(tracer):
            Session().run(SolveRequest(shape="random:60:3", k=1, l=3))
        assert not [r for r in tracer.records() if r["name"] == "round"]


class TestPipelineCoverage:
    def test_phase_spans_cover_90_percent_of_wallclock(self):
        tracer = Tracer()
        with use_tracer(tracer):
            Session().run(
                SolveRequest(shape="random:200:7", k=2, l=5, algorithm="forest")
            )
        records = tracer.records()
        (root,) = [r for r in records if r["parent"] is None]
        assert root["name"] == "solve"
        children = [r for r in records if r["parent"] == root["id"]]
        covered = sum(r["dur_s"] for r in children)
        assert covered >= 0.90 * root["dur_s"], (
            f"phase spans cover {covered / root['dur_s']:.1%} of the root"
        )
        attrs = root["attrs"]
        assert attrs["n"] == 200
        assert attrs["rounds"] > 0
        assert "layout_cache_hits" in attrs and "layout_cache_misses" in attrs

    def test_cached_run_records_cached_span(self):
        session = Session()
        request = SolveRequest(shape="random:60:3", k=1, l=3)
        session.run(request)
        tracer = Tracer()
        with use_tracer(tracer):
            report = session.run(request)
        assert report.cached is True
        (record,) = [r for r in tracer.records() if r["name"] == "solve"]
        assert record["attrs"]["cached"] is True


class TestHistogram:
    def test_exponential_buckets(self):
        bounds = exponential_buckets(0.001, 2.0, 4)
        assert bounds == (0.001, 0.002, 0.004, 0.008)
        with pytest.raises(MetricError):
            exponential_buckets(start=0)

    def test_bucketing_and_quantiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", "test", buckets=[0.01, 0.1, 1.0])
        for value in (0.005, 0.005, 0.05, 0.5, 5.0):
            hist.observe(value)
        assert hist.total_count() == 5
        # 0.005s observations land in the first bucket: p50 -> its bound
        assert hist.quantile(0.0) == 0.01
        assert hist.quantile(0.5) == 0.1
        # the 5.0 overflow observation reports the last finite bound
        assert hist.quantile(1.0) == 1.0
        assert registry.histogram("h", "test").quantile(0.5) == 0.1  # same object

    def test_label_subset_merging(self):
        hist = MetricsRegistry().histogram("h", buckets=[1.0, 10.0])
        hist.observe(0.5, kind="solve", cached="true")
        hist.observe(5.0, kind="solve", cached="false")
        hist.observe(0.5, kind="route", cached="false")
        assert hist.count() == 3
        assert hist.count(kind="solve") == 2
        assert hist.count(cached="false") == 2
        assert hist.quantile(1.0, cached="true") == 1.0
        assert hist.quantile(0.5) is not None
        assert hist.quantile(0.5, kind="absent") is None

    def test_bounded_memory(self):
        hist = MetricsRegistry().histogram("h", buckets=[0.1, 1.0])
        for i in range(10_000):
            hist.observe(i % 7 * 0.05, kind="solve")
        ((_labels, state),) = hist.series()
        assert len(state.counts) == 3  # 2 buckets + overflow, forever
        assert state.count == 10_000

    def test_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError, match="strictly increase"):
            registry.histogram("bad", buckets=[1.0, 1.0])
        with pytest.raises(MetricError, match="invalid metric name"):
            registry.counter("0starts-with-digit")
        registry.counter("c")
        with pytest.raises(MetricError, match="already registered"):
            registry.gauge("c")
        with pytest.raises(MetricError, match="cannot decrease"):
            registry.counter("c").inc(-1)


class TestPrometheusRendering:
    def test_fixed_fixture(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", "Jobs by state.")
        counter.inc(3, state="done")
        counter.inc(state="failed")
        gauge = registry.gauge("queue_depth")
        gauge.set(2)
        hist = registry.histogram("latency_seconds", "Latency.", buckets=[0.1, 1.0])
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        text = registry.render_prometheus()
        expected = (
            "# HELP jobs_total Jobs by state.\n"
            "# TYPE jobs_total counter\n"
            'jobs_total{state="done"} 3\n'
            'jobs_total{state="failed"} 1\n'
            "# TYPE queue_depth gauge\n"
            "queue_depth 2\n"
            "# HELP latency_seconds Latency.\n"
            "# TYPE latency_seconds histogram\n"
            'latency_seconds_bucket{le="0.1"} 1\n'
            'latency_seconds_bucket{le="1"} 2\n'
            'latency_seconds_bucket{le="+Inf"} 3\n'
            "latency_seconds_sum 5.55\n"
            "latency_seconds_count 3\n"
        )
        assert text == expected
        assert validate_prometheus_text(text) == []

    def test_view_rendering(self):
        registry = MetricsRegistry()
        registry.register_view(
            "demo", lambda: {"hits": 4, "rate": 0.5, "backend": "numpy"}, "repro_demo"
        )
        text = registry.render_prometheus()
        assert "repro_demo_hits 4" in text
        assert "repro_demo_rate 0.5" in text
        assert 'repro_demo_info{backend="numpy"} 1' in text
        assert validate_prometheus_text(text) == []
        assert registry.views_dict()["demo"]["hits"] == 4

    def test_validator_rejects_broken_bodies(self):
        assert validate_prometheus_text("metric_a 1\nmetric_a 2")  # no newline
        problems = validate_prometheus_text("this is ! not a sample\n")
        assert any("malformed" in p for p in problems)
        problems = validate_prometheus_text(
            "# TYPE m wibble\n# TYPE m counter\nm 1\n"
        )
        assert any("unknown type" in p for p in problems)
        assert any("duplicate TYPE" in p for p in problems)
        # histogram invariants: non-cumulative buckets, _count mismatch
        body = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="1"} 3\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1\n"
            "h_count 9\n"
        )
        problems = validate_prometheus_text(body)
        assert any("not cumulative" in p for p in problems)
        assert any("_count" in p for p in problems)
        body_missing_inf = (
            "# TYPE h histogram\n" 'h_bucket{le="0.1"} 1\n' "h_sum 1\nh_count 1\n"
        )
        assert any(
            "+Inf" in p for p in validate_prometheus_text(body_missing_inf)
        )


class TestProcessViews:
    def test_legacy_stat_globals_render(self):
        registry = register_process_views(MetricsRegistry())
        views = registry.views_dict()
        assert "full_builds" in views["grid_stats"]
        assert "cache_hits" in views["layout_stats"]
        assert views["backend"]["resolved"] in ("python", "numpy")
        text = registry.render_prometheus()
        assert validate_prometheus_text(text) == []
        assert "repro_grid_full_builds" in text
        assert "repro_layout_cache_hits" in text
        assert "repro_backend_info" in text

    def test_views_read_live_state(self):
        from repro.grid.compiled import GRID_STATS

        registry = register_process_views(MetricsRegistry())
        before = registry.views_dict()["grid_stats"]["full_builds"]
        GRID_STATS.full_builds += 1
        try:
            after = registry.views_dict()["grid_stats"]["full_builds"]
            assert after == before + 1
        finally:
            GRID_STATS.full_builds -= 1


class TestStatsObjects:
    def test_activation_stats_to_dict_and_reset(self):
        stats = ActivationStats(
            activations=7, wasted=2, epochs=3, time=1.25,
            retransmissions=1, checksum=99, per_node={1: 4, 2: 3},
        )
        data = stats.to_dict()
        assert data == {
            "activations": 7, "wasted": 2, "epochs": 3, "time": 1.25,
            "retransmissions": 1, "checksum": 99, "participants": 2,
        }
        json.dumps(data)  # JSON-ready: no Node keys, no sets
        stats.reset()
        assert stats.activations == 0 and stats.per_node == {}
        assert stats.to_dict()["participants"] == 0

    def test_routing_stats_reset(self):
        from repro.grid.coords import Node

        stats = RoutingStats(
            steps=5, total_moves=9, lower_bound=4,
            token_paths={0: [Node(0, 0), Node(1, 0)]}, rescued=1,
        )
        assert stats.to_dict()["steps"] == 5
        stats.reset()
        assert stats.steps == 0 and stats.token_paths == {}
        assert stats.to_dict()["path_lengths"] == {}


class TestRenderTrace:
    def test_flamegraph_fixture(self):
        records = [
            {"id": 1, "parent": None, "name": "solve", "depth": 0,
             "start_s": 0.0, "dur_s": 1.0, "attrs": {"n": 10}},
            {"id": 2, "parent": 1, "name": "build", "depth": 1,
             "start_s": 0.0, "dur_s": 0.25},
            {"id": 3, "parent": 1, "name": "rounds", "depth": 1,
             "start_s": 0.25, "dur_s": 0.75},
        ]
        text = render_trace(records, width=4)
        lines = text.splitlines()
        assert lines[0].startswith("solve")
        assert "100.0%" in lines[0] and "n=10" in lines[0]
        assert lines[1].lstrip().startswith("build")
        assert "25.0%" in lines[1] and "█" in lines[1]
        assert "75.0%" in lines[2]

    def test_orphans_and_multiple_roots(self):
        records = [
            {"id": 1, "parent": None, "name": "a", "start_s": 0.0, "dur_s": 0.1},
            {"id": 9, "parent": 404, "name": "orphan", "start_s": 0.2,
             "dur_s": 0.1, "trial": "k7"},
        ]
        text = render_trace(records)
        assert "a" in text and "orphan" in text
        assert "trial=k7" in text
        assert render_trace([]) == "(empty trace)"


class TestSnapshotter:
    def test_snapshots_appended_and_final_on_stop(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        path = tmp_path / "metrics.jsonl"
        snap = MetricsSnapshotter(registry, path, interval_s=0.05).start()
        time.sleep(0.18)
        snap.stop()
        lines = [json.loads(x) for x in path.read_text().splitlines()]
        assert len(lines) >= 2  # periodic plus the final stop() write
        last = lines[-1]
        assert last["ts"] > 0
        series = last["metrics"]["instruments"]["c"]["series"]
        assert series == [{"labels": {}, "value": 5}]
        with pytest.raises(ValueError):
            MetricsSnapshotter(registry, path, interval_s=0)


class TestLogging:
    def test_json_formatter_includes_extras(self):
        formatter = JsonLogFormatter()
        record = logging.LogRecord(
            "repro.test", logging.INFO, __file__, 1, "job %s", ("j-1",), None
        )
        record.latency_s = 0.25
        data = json.loads(formatter.format(record))
        assert data["msg"] == "job j-1"
        assert data["level"] == "info"
        assert data["latency_s"] == 0.25

    def test_configure_logging_levels_and_streams(self):
        stream = io.StringIO()
        logger = configure_logging(level="debug", fmt="json", stream=stream)
        logger.debug("hello", extra={"k": 1})
        data = json.loads(stream.getvalue())
        assert data["msg"] == "hello" and data["k"] == 1
        # idempotent reconfiguration replaces the handler
        stream2 = io.StringIO()
        logger = configure_logging(level="info", fmt="text", stream=stream2)
        assert len(logger.handlers) == 1
        logger.info("plain")
        assert "plain" in stream2.getvalue()
        with pytest.raises(ValueError):
            configure_logging(level="loud")
        with pytest.raises(ValueError):
            configure_logging(fmt="xml")
        logger.handlers[:] = []  # leave global logging untouched for other tests


class TestCliTrace:
    def test_solve_trace_and_render(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.jsonl"
        assert main([
            "solve", "--shape", "random:60:3", "-k", "1", "-l", "3",
            "--trace", str(path),
        ]) == 0
        records = load_trace(path)
        assert [r for r in records if r["parent"] is None][0]["name"] == "solve"
        capsys.readouterr()
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "solve" in out and "100.0%" in out and "█" in out

    def test_trace_rejects_missing_file(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["trace", str(tmp_path / "nope.jsonl")])


class TestCampaignTraceSpool:
    def test_inline_runner_spools_tagged_trials(self, tmp_path):
        from repro.experiments import CampaignRunner, get_campaign
        from repro.experiments.runner import _TRACE_DIR

        runner = CampaignRunner(workers=1, trace_dir=tmp_path / "spool")
        report = runner.run(get_campaign("spsp-small"))
        assert report.executed == report.total
        files = sorted((tmp_path / "spool").glob("trials-*.jsonl"))
        assert len(files) == 1  # inline: one spool for this process
        records = [r for f in files for r in load_trace(f)]
        trials = [r for r in records if r["name"] == "trial"]
        assert len(trials) == report.total
        assert all("trial" in r for r in records)  # every span is tagged
        assert _TRACE_DIR is None  # restored after the run
