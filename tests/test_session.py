"""The :mod:`repro.api` facade: requests, sessions, caching, parity.

The migration contract: a request-built run must be bit-identical to
the historical kwarg-built call, identical requests must hit the
session's result store, and reports must survive a JSON round trip.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import (
    RequestError,
    Session,
    SolveReport,
    SolveRequest,
    iter_report_records,
)
from repro.experiments.spec import content_key
from repro.grid.compiled import GRID_STATS
from repro.sim.circuits import LAYOUT_STATS
from repro.spf.api import solve_spf
from repro.workloads import random_hole_free, sample_sources_destinations


class TestSolveRequest:
    def test_json_round_trip(self):
        request = SolveRequest(
            kind="route", shape="random:80:2", k=2, l=4, seed=1, tokens=5
        )
        blob = json.dumps(request.to_dict(), sort_keys=True)
        again = SolveRequest.from_dict(json.loads(blob))
        assert again == request
        assert again.key() == request.key()

    def test_key_is_content_hash_of_config(self):
        request = SolveRequest(shape="hexagon:3", k=1, l=2, seed=9)
        assert request.key() == content_key(request.config())

    def test_key_ignores_unset_kind_specific_fields(self):
        # A plain solve keys identically whether or not route/churn
        # knobs exist — the same stability contract as TrialSpec.
        assert "tokens" not in SolveRequest(shape="hexagon:3").config()
        assert "churn" not in SolveRequest(shape="hexagon:3").config()
        assert "scheduler" not in SolveRequest(shape="hexagon:3").config()

    def test_key_ignores_the_backend_name(self):
        # Every backend name runs the same kernels, so the name is not
        # part of what the work is; a backend-free request keeps the
        # key it has always had.
        plain = SolveRequest(shape="hexagon:3")
        assert plain.key() == "9a718ab11eb53fe5cd51"
        for backend in ("auto", "python", "numpy"):
            named = SolveRequest(shape="hexagon:3", backend=backend)
            assert "backend" not in named.config()
            assert named.key() == plain.key()

    def test_key_changes_with_any_set_knob(self):
        base = SolveRequest(shape="hexagon:3")
        assert base.key() != SolveRequest(shape="hexagon:4").key()
        assert base.key() != SolveRequest(shape="hexagon:3", seed=1).key()
        assert (
            base.key()
            != SolveRequest(shape="hexagon:3", scheduler="random:1").key()
        )

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(RequestError, match="unknown request fields"):
            SolveRequest.from_dict({"shape": "hexagon:3", "bogus": 1})

    def test_validation(self):
        with pytest.raises(RequestError, match="unknown request kind"):
            SolveRequest(kind="dance")
        with pytest.raises(RequestError, match="tokens"):
            SolveRequest(kind="solve", tokens=3)
        with pytest.raises(RequestError, match="churn"):
            SolveRequest(kind="churn", churn="melt", churn_steps=2)
        with pytest.raises(RequestError, match="scheduler"):
            SolveRequest(scheduler="bogus")
        with pytest.raises(RequestError, match="backend"):
            SolveRequest(backend="fortran")

    def test_algorithm_constraints(self):
        # A one-source tree cannot report k = 3, and the sequential
        # baseline spans the whole structure, so it cannot report l = 5.
        with pytest.raises(RequestError, match="'spt' requires k = 1"):
            SolveRequest(shape="hexagon:4", k=3, l=5, algorithm="spt")
        with pytest.raises(RequestError, match="'sequential' requires l = 0"):
            SolveRequest(shape="hexagon:4", l=5, algorithm="sequential")
        SolveRequest(shape="hexagon:4", k=1, l=5, algorithm="spt")
        SolveRequest(shape="hexagon:4", k=3, l=0, algorithm="sequential")


class TestSessionParity:
    """Request-built runs are bit-identical to direct solver calls."""

    def test_solve_matches_solve_spf(self):
        structure = random_hole_free(80, seed=2)
        sources, destinations = sample_sources_destinations(
            structure, 2, 4, seed=0
        )
        direct = solve_spf(structure, sources, destinations)
        report = Session().run(
            SolveRequest(shape="random:80:2", k=2, l=4, seed=0)
        )
        assert report.rounds == direct.rounds
        assert report.algorithm == direct.algorithm
        assert report.forest_members == len(direct.forest.members)
        assert report.sources == sources
        assert report.destinations == destinations

    def test_numpy_backend_request_matches_python(self):
        request = SolveRequest(shape="random:80:2", k=2, l=4, seed=0)
        reports = [
            Session().run(dataclasses.replace(request, backend=backend)).to_dict()
            for backend in ("python", "numpy")
        ]
        for report in reports:
            report.pop("elapsed_s")
        assert reports[0] == reports[1]
        assert reports[1]["backend"] == "python"

    def test_scheduler_request_matches_scheduler_session(self):
        report_a = Session().run(
            SolveRequest(shape="random:40:3", k=1, l=2, scheduler="random:7")
        )
        report_b = Session(scheduler="random:7").run(
            SolveRequest(shape="random:40:3", k=1, l=2)
        )
        # Same engine path, but only the request-carried scheduler is
        # part of the content key.
        assert report_a.rounds == report_b.rounds
        assert report_a.key != report_b.key
        assert report_a.sched is not None
        assert report_a.sched["activations"] > 0

    def test_route_and_churn_reports(self):
        session = Session()
        route = session.route("random:80:2", k=2, l=4, seed=1, tokens=5)
        assert route.routing["tokens"] == 5
        assert route.routing["steps"] >= route.routing["lower_bound"]
        churn = session.churn(
            "random:80:1", k=1, l=3, seed=0, churn="growth", churn_steps=3,
            churn_batch=2,
        )
        assert churn.repair["edit_batches"] == 3
        assert len(churn.repair["batches"]) == 3
        assert churn.repair["initial_rounds"] > 0
        # The fresh reference solve is the CLI's own (see test_cli.py).
        assert "fresh_rounds" not in churn.repair

    def test_report_round_trips_through_store_record(self):
        session = Session()
        report = session.solve("hexagon:3", k=1, l=3, seed=5)
        again = SolveReport.from_dict(report.to_dict())
        assert again.rounds == report.rounds
        assert again.key == report.key
        assert list(iter_report_records(session.store))[0]["key"] == report.key


class TestSessionCaching:
    def test_identical_request_is_served_from_store(self):
        session = Session()
        request = SolveRequest(shape="hexagon:3", k=1, l=3, seed=2)
        first = session.run(request)
        second = session.run(request)
        assert not first.cached
        assert second.cached
        assert second.rounds == first.rounds
        assert session.stats.cache_hits == 1
        assert session.stats.hit_rate == 0.5

    def test_backend_names_share_one_cached_result(self, tmp_path):
        session = Session(store=str(tmp_path / "store.jsonl"))
        request = SolveRequest(shape="hexagon:3", k=1, l=3, seed=2)
        first = session.run(dataclasses.replace(request, backend="python"))
        second = session.run(dataclasses.replace(request, backend="numpy"))
        assert not first.cached
        assert second.cached
        assert second.key == first.key
        assert second.rounds == first.rounds

    def test_resume_false_reexecutes_but_reuses_hot_state(self):
        session = Session()
        request = SolveRequest(shape="random:60:4", k=1, l=3, seed=1)
        session.run(request)
        GRID_STATS.reset()
        LAYOUT_STATS.reset()
        report = session.run(request, resume=False)
        # Re-execution reuses the warm structure (no new grid index
        # build) and the compiled layouts of the first run.
        assert not report.cached
        assert GRID_STATS.full_builds == 0
        assert LAYOUT_STATS.cache_hits > 0
        assert session.stats.structure_hits >= 1

    def test_churn_shares_the_cached_structure_and_leaves_it_untouched(self):
        session = Session()
        structure = session.structure("random:60:1")
        index = structure.grid_index()
        nodes = structure.nodes
        arrays = (list(index.nodes), bytes(index.nbr), bytes(index.deg),
                  bytes(index.boundary), index.n_slots)
        report = session.churn(
            "random:60:1", k=2, l=3, seed=5, churn="mixed", churn_steps=4,
            churn_batch=3,
        )
        assert report.repair["edit_ops"] > 0
        assert session.stats.structures_built == 1
        assert session.structure("random:60:1") is structure
        assert structure.nodes == nodes
        assert structure.grid_index() is index
        assert (list(index.nodes), bytes(index.nbr), bytes(index.deg),
                bytes(index.boundary), index.n_slots) == arrays

    def test_churn_repairs_trace_under_the_rounds_span(self):
        from repro.obs import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            report = Session().churn(
                "random:60:1", k=1, l=3, seed=0, churn="mixed", churn_steps=3,
            )
        records = tracer.records()
        (rounds,) = [r for r in records if r["name"] == "rounds"]
        repairs = [r for r in records if r["name"] == "repair"]
        assert len(repairs) == 3
        by_id = {r["id"]: r for r in records}
        for repair in repairs:
            parent = by_id[repair["parent"]]
            while parent["name"] != "rounds":
                parent = by_id[parent["parent"]]
            assert parent is rounds
        assert rounds["attrs"]["rounds"] == report.rounds

    def test_file_store_resumes_across_sessions(self, tmp_path):
        path = tmp_path / "reports.jsonl"
        request = SolveRequest(shape="hexagon:3", k=1, l=2, seed=3)
        first = Session(store=path).run(request)
        revived = Session(store=path).run(request)
        assert revived.cached
        assert revived.rounds == first.rounds

    def test_events_stream_rounds_in_order(self):
        events = []
        Session().run(
            SolveRequest(shape="hexagon:3", k=1, l=3, seed=0),
            on_event=events.append,
        )
        names = [e["event"] for e in events]
        assert names[0] == "start"
        assert names[1] == "structure"
        assert names[-1] == "done"
        rounds = [e["rounds"] for e in events if e["event"] == "round"]
        assert rounds == sorted(rounds)
        assert rounds[-1] == events[-1]["rounds"]

    def test_cached_run_emits_cached_event(self):
        session = Session()
        request = SolveRequest(shape="hexagon:2", k=1, l=2)
        session.run(request)
        events = []
        session.run(request, on_event=events.append)
        assert [e["event"] for e in events] == ["cached"]

    def test_run_rejects_non_requests(self):
        with pytest.raises(TypeError, match="SolveRequest"):
            Session().run({"shape": "hexagon:2"})
