"""The solver daemon: jobs, worker pool, HTTP endpoints, resume.

Covers the service contract end to end: submit → stream → fetch round
trips, cache hits on repeated identical jobs (with the layout/grid
probes asserting nothing is rebuilt), failed jobs, campaign jobs,
graceful shutdown (including mid-stream, with queued jobs, when
requested twice concurrently, and with a request still queued in the
listen backlog as the loop stops), resume-after-restart from the store,
and the HTTP shapes of the resilience features (429 shedding, 408
bodies, field-named 400s).
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.api import RequestError, Session, SolveRequest
from repro.grid.compiled import GRID_STATS
from repro.service import (
    JobSpec,
    ServiceClient,
    ServiceClosed,
    SolverService,
    serve,
)
from repro.obs import validate_prometheus_text
from repro.service.client import ServiceError
from repro.sim.circuits import LAYOUT_STATS

REQUEST = SolveRequest(shape="random:60:2", k=1, l=3, seed=1)


@pytest.fixture
def daemon():
    """An HTTP daemon on an ephemeral port plus a connected client."""
    server = serve(port=0, workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient("127.0.0.1", server.server_address[1], timeout=30)
    try:
        yield server.service, client
    finally:
        server.service.shutdown(wait=True)
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestJobSpec:
    def test_round_trip(self):
        spec = JobSpec(request=REQUEST, fresh=True)
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.key() == REQUEST.key()
        assert again.kind == "solve"

    def test_campaign_spec(self):
        spec = JobSpec(campaign="spsp-small", workers=2)
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.kind == "campaign"
        assert again.key() != JobSpec(campaign="sssp-small").key()

    def test_validation(self):
        with pytest.raises(RequestError, match="exactly one"):
            JobSpec()
        with pytest.raises(RequestError, match="exactly one"):
            JobSpec(request=REQUEST, campaign="spsp-small")
        with pytest.raises(RequestError, match="unknown job fields"):
            JobSpec.from_dict({"request": REQUEST.to_dict(), "turbo": True})


class TestSolverService:
    """The in-process daemon core, no HTTP involved."""

    def test_submit_and_wait(self):
        service = SolverService(workers=2)
        job = service.wait(service.submit(JobSpec(request=REQUEST)).id)
        assert job.state == "done"
        assert job.result["rounds"] == Session().run(REQUEST).rounds
        assert job.id.startswith(REQUEST.key()[:12])
        service.shutdown()

    def test_failed_job_does_not_kill_worker(self):
        service = SolverService(workers=1)
        bad = service.wait(
            service.submit(
                JobSpec(request=SolveRequest(shape="bogus:1"))
            ).id
        )
        assert bad.state == "failed"
        assert "bogus" in bad.error
        good = service.wait(service.submit(JobSpec(request=REQUEST)).id)
        assert good.state == "done"
        service.shutdown()

    def test_shutdown_cancels_queued_finishes_running(self):
        service = SolverService(workers=1)
        slow = service.submit(
            JobSpec(request=SolveRequest(shape="random:300:5", k=1, l=3))
        )
        # Wait for the worker to pick the job up: only *running* jobs
        # survive shutdown, queued ones are cancelled.
        deadline = time.time() + 30
        while slow.state != "running" and time.time() < deadline:
            time.sleep(0.005)
        queued = [
            service.submit(
                JobSpec(request=SolveRequest(shape="hexagon:2", seed=s))
            )
            for s in range(3)
        ]
        summary = service.shutdown(wait=True)
        assert service.wait(slow.id).state == "done"
        states = {service.wait(j.id).state for j in queued}
        assert states <= {"cancelled", "done"}
        assert summary["cancelled"] == sum(
            1 for j in queued if j.state == "cancelled"
        )
        with pytest.raises(ServiceClosed):
            service.submit(JobSpec(request=REQUEST))

    def test_resume_after_restart(self, tmp_path):
        path = tmp_path / "service.jsonl"
        first = SolverService(store=path, workers=1)
        done = first.wait(first.submit(JobSpec(request=REQUEST)).id)
        first.shutdown()

        revived = SolverService(store=path, workers=1)
        again = revived.wait(revived.submit(JobSpec(request=REQUEST)).id)
        assert again.result["cached"] is True
        assert again.result["rounds"] == done.result["rounds"]
        assert revived.session.stats.cache_hits == 1
        revived.shutdown()

    def test_fresh_bypasses_cache(self):
        service = SolverService(workers=1)
        service.wait(service.submit(JobSpec(request=REQUEST)).id)
        redo = service.wait(
            service.submit(JobSpec(request=REQUEST, fresh=True)).id
        )
        assert redo.result["cached"] is False
        service.shutdown()

    def test_campaign_job(self, tmp_path):
        service = SolverService(store=tmp_path / "c.jsonl", workers=1)
        campaign = {
            "name": "tiny",
            "description": "one-scenario smoke",
            "scenarios": [{
                "name": "s", "shape": "random:{n}:1", "sizes": [40],
                "ks": [1], "ls": [2], "seeds": [0],
            }],
        }
        job = service.wait(service.submit(JobSpec(campaign=campaign)).id)
        assert job.state == "done"
        assert job.result["record"] == "campaign-report"
        assert job.result["trials"] == 1
        # Re-submitting the campaign hits the shared store per trial.
        again = service.wait(service.submit(JobSpec(campaign=campaign)).id)
        assert again.result["cache_hits"] == 1
        service.shutdown()


class TestHTTPEndpoints:
    def test_health_and_stats(self, daemon):
        _service, client = daemon
        assert client.health()["ok"] is True
        stats = client.stats()
        assert stats["workers"] == 2
        assert "layout_stats" in stats and "grid_stats" in stats

    def test_submit_stream_fetch_round_trip(self, daemon):
        _service, client = daemon
        job = client.submit(JobSpec(request=REQUEST))
        events = list(client.stream(job["id"]))
        names = [e["event"] for e in events]
        assert names[0] == "queued"
        assert "running" in names and "done" in names
        assert names[-1] == "end" and events[-1]["state"] == "done"
        rounds = [e["rounds"] for e in events if e["event"] == "round"]
        assert rounds == sorted(rounds) and rounds
        result = client.result(job["id"], timeout=30)
        assert result["state"] == "done"
        assert result["result"]["rounds"] == rounds[-1]

    def test_repeated_job_hits_cache_without_rebuilds(self, daemon):
        _service, client = daemon
        cold = client.run(JobSpec(request=REQUEST), timeout=60)
        assert cold["result"]["cached"] is False
        LAYOUT_STATS.reset()
        GRID_STATS.reset()
        warm = client.run(JobSpec(request=REQUEST), timeout=60)
        assert warm["result"]["cached"] is True
        assert warm["result"]["rounds"] == cold["result"]["rounds"]
        # Cache hits execute nothing: no index builds, no compilations.
        assert GRID_STATS.full_builds == 0
        assert LAYOUT_STATS.compiles == 0
        assert client.stats()["session"]["cache_hits"] >= 1

    def test_concurrent_clients(self, daemon):
        _service, client = daemon
        requests = [
            SolveRequest(shape="random:40:3", k=1, l=2, seed=s)
            for s in range(8)
        ]
        results: dict = {}

        def drive(i: int) -> None:
            results[i] = client.run(
                JobSpec(request=requests[i]), timeout=120
            )

        threads = [
            threading.Thread(target=drive, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert len(results) == 8
        assert all(r["state"] == "done" for r in results.values())

    def test_error_responses(self, daemon):
        _service, client = daemon
        with pytest.raises(ServiceError) as err:
            client.job("no-such-job")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client.submit({"request": {"shape": "hexagon:2", "bogus": 1}})
        assert err.value.status == 400

    def test_result_timeout_is_408(self):
        # The job is held at the gate, so it cannot finish inside the
        # timeout however fast the solve is.
        gated, server, thread, client = gated_server(workers=1)
        try:
            job = client.submit(
                JobSpec(request=SolveRequest(shape="random:400:9", k=1, l=3))
            )
            with pytest.raises(ServiceError) as err:
                client.result(job["id"], timeout=0.001)
            assert err.value.status == 408
            gated.release()
            server.service.wait(job["id"], timeout=60)
        finally:
            gated.release()
            server.service.shutdown(wait=True)
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_metrics_endpoint_is_valid_prometheus(self, daemon):
        _service, client = daemon
        client.run(JobSpec(request=REQUEST), timeout=60)
        body = client.metrics()
        assert validate_prometheus_text(body) == []
        assert "repro_jobs_total" in body
        assert "repro_job_latency_seconds_bucket" in body
        assert "repro_session_cache_hits" in body
        assert "repro_layout_cache_hits" in body
        assert "repro_backend_info" in body

    def test_trace_endpoint(self, daemon):
        _service, client = daemon
        job = client.run(JobSpec(request=REQUEST), timeout=60)
        trace = client.trace(job["id"])
        assert trace["state"] == "done"
        names = {span["name"] for span in trace["spans"]}
        assert "solve" in names
        with pytest.raises(ServiceError) as err:
            client.trace("no-such-job")
        assert err.value.status == 404


class TestTelemetry:
    def test_latency_memory_is_bounded(self):
        """Per-job latency tracking must not grow with job count."""
        service = SolverService(workers=1)
        # The old implementation kept an unbounded per-job list; the
        # histogram keeps a fixed bucket vector regardless of volume.
        assert not hasattr(service, "_latencies")
        for seed in range(4):
            service.wait(
                service.submit(
                    JobSpec(request=SolveRequest(shape="hexagon:2", seed=seed))
                ).id
            )
        for _labels, state in service._job_latency.series():
            assert len(state.counts) == len(service._job_latency.buckets) + 1
        summary = service.stats()["latency"]
        assert summary["completed"] == 4
        assert summary["cold"]["count"] == 4
        assert summary["cold"]["p50_s"] is not None
        service.shutdown()

    def test_latency_summary_splits_warm_and_cold(self):
        service = SolverService(workers=1)
        service.wait(service.submit(JobSpec(request=REQUEST)).id)
        service.wait(service.submit(JobSpec(request=REQUEST)).id)
        summary = service.stats()["latency"]
        assert summary["completed"] == 2
        assert summary["warm"]["count"] == 1
        assert summary["cold"]["count"] == 1
        service.shutdown()

    def test_metrics_snapshot_file(self, tmp_path):
        import json

        service = SolverService(
            store=tmp_path / "jobs.jsonl", workers=1, metrics_interval=0.05
        )
        service.wait(service.submit(JobSpec(request=REQUEST)).id)
        time.sleep(0.12)
        service.shutdown()
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert lines
        last = json.loads(lines[-1])
        instruments = last["metrics"]["instruments"]
        assert "repro_jobs_total" in instruments
        assert last["metrics"]["views"]["session"]["executed"] >= 1

    def test_http_shutdown_endpoint(self):
        server = serve(port=0, workers=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(
            "127.0.0.1", server.server_address[1], timeout=30
        )
        assert client.shutdown()["shutting_down"] is True
        thread.join(timeout=30)
        assert not thread.is_alive()
        server.server_close()
        with pytest.raises(ServiceClosed):
            server.service.submit(JobSpec(request=REQUEST))


def gated_server(**service_kw):
    """An HTTP daemon over a GatedSession: jobs block until released."""
    from tests.chaos import GatedSession

    gated = GatedSession(Session())
    service = SolverService(session=gated, **service_kw)
    server = serve(port=0, service=service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient("127.0.0.1", server.server_address[1], timeout=30)
    return gated, server, thread, client


class TestShutdownEdgeCases:
    def test_shutdown_during_inflight_stream(self):
        """A stream open across /shutdown still delivers the terminal
        events of its (finishing) job."""
        gated, server, thread, client = gated_server(workers=1)
        job = client.submit(JobSpec(request=REQUEST))
        events: list = []

        def drain() -> None:
            for event in client.stream(job["id"]):
                events.append(event)

        streamer = threading.Thread(target=drain, daemon=True)
        streamer.start()
        assert gated.entered.wait(timeout=10)
        assert client.shutdown()["shutting_down"] is True
        gated.release()
        streamer.join(timeout=60)
        assert not streamer.is_alive()
        names = [e["event"] for e in events]
        assert "done" in names
        assert names[-1] == "end" and events[-1]["state"] == "done"
        thread.join(timeout=30)
        server.server_close()

    def test_shutdown_with_queued_jobs_cancels_them(self):
        gated, server, thread, client = gated_server(workers=1)
        running = client.submit(JobSpec(request=REQUEST))
        assert gated.entered.wait(timeout=10)
        queued = [
            client.submit(
                JobSpec(request=SolveRequest(shape="hexagon:2", seed=s))
            )
            for s in range(3)
        ]
        assert client.shutdown()["shutting_down"] is True
        gated.release()
        thread.join(timeout=60)
        server.server_close()
        service = server.service
        assert service.wait(running["id"], timeout=30).state == "done"
        states = [service.wait(j["id"], timeout=30).state for j in queued]
        assert states == ["cancelled"] * 3

    def test_double_concurrent_shutdown_is_idempotent(self):
        gated, server, thread, client = gated_server(workers=1)
        gated.release()  # nothing to block on in this test
        job = client.submit(JobSpec(request=REQUEST))
        server.service.wait(job["id"], timeout=60)
        responses: list = []

        def stop() -> None:
            try:
                responses.append(client.shutdown())
            except ServiceError as exc:  # pragma: no cover - timing
                responses.append(exc)

        stoppers = [threading.Thread(target=stop) for _ in range(2)]
        for t in stoppers:
            t.start()
        for t in stoppers:
            t.join(timeout=30)
        assert len(responses) == 2
        assert all(
            isinstance(r, dict) and r["shutting_down"] is True
            for r in responses
        )
        thread.join(timeout=30)
        server.server_close()
        # A third, in-process shutdown is a no-op summary, not an error.
        assert server.service.shutdown(wait=True) == {"cancelled": 0}
        with pytest.raises(ServiceClosed):
            server.service.submit(JobSpec(request=REQUEST))


    def test_request_queued_as_the_loop_stops_is_answered(self):
        """A connection in the listen backlog when the serve loop stops
        is still answered (socketserver checks its stop flag before it
        accepts a connection that select found ready)."""
        server = serve(port=0, workers=1)
        holding, release = threading.Event(), threading.Event()

        def hold() -> None:  # socketserver calls this once per loop pass
            holding.set()
            release.wait(timeout=30)

        server.service_actions = hold
        loop = threading.Thread(target=server.serve_forever, daemon=True)
        loop.start()
        assert holding.wait(timeout=10)
        # The loop is held: this request waits in the listen backlog.
        late = socket.create_connection(server.server_address[:2], timeout=10)
        late.sendall(
            b"POST /shutdown HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n\r\n"
        )
        stopper = threading.Thread(target=server.shutdown_service, daemon=True)
        stopper.start()
        # Release the loop only once the stop is requested, so its next
        # flag check ends it with the request still unaccepted.
        deadline = time.monotonic() + 10
        while not server._BaseServer__shutdown_request:  # socketserver's stop flag
            assert time.monotonic() < deadline
            time.sleep(0.001)
        release.set()
        with late, late.makefile("rb") as reply:
            status = reply.readline()
            headers = {}
            for line in iter(reply.readline, b"\r\n"):
                name, _, value = line.decode().partition(":")
                headers[name.strip().lower()] = value.strip()
            body = json.loads(reply.read(int(headers["content-length"])))
        assert status.startswith(b"HTTP/1.1 200")
        assert body == {"ok": True, "shutting_down": True}
        loop.join(timeout=30)
        stopper.join(timeout=30)
        assert not loop.is_alive() and not stopper.is_alive()
        server.server_close()


class TestResilienceOverHTTP:
    def test_healthz_reports_status_and_queue(self, daemon):
        _service, client = daemon
        health = client.health()
        assert health["ok"] is True
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0
        assert health["queue_limit"] >= 1
        assert health["workers"] == 2

    def test_submit_rejects_bad_qos_fields_by_name(self, daemon):
        _service, client = daemon
        with pytest.raises(ServiceError) as err:
            client.submit({"request": REQUEST.to_dict(), "deadline_s": -1})
        assert err.value.status == 400
        assert "deadline_s" in str(err.value)
        with pytest.raises(ServiceError) as err:
            client.submit({"campaign": "spsp-small", "workers": 0})
        assert err.value.status == 400
        assert "workers" in str(err.value)

    def test_result_408_body_names_state_and_queue_position(self):
        gated, server, thread, client = gated_server(workers=1)
        running = client.submit(JobSpec(request=REQUEST))
        assert gated.entered.wait(timeout=10)
        queued = client.submit(
            JobSpec(request=SolveRequest(shape="hexagon:2", seed=1))
        )
        with pytest.raises(ServiceError) as err:
            client.result(running["id"], timeout=0.01)
        assert err.value.status == 408
        assert err.value.payload["id"] == running["id"]
        assert err.value.payload["state"] == "running"
        assert err.value.payload["queue_position"] is None
        with pytest.raises(ServiceError) as err:
            client.result(queued["id"], timeout=0.01)
        assert err.value.payload["state"] == "queued"
        assert err.value.payload["queue_position"] == 0
        gated.release()
        server.service.wait(queued["id"], timeout=60)
        server.service.shutdown(wait=True)
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)

    def test_full_queue_is_429_with_retry_hint(self):
        gated, server, thread, client = gated_server(workers=1, max_queue=1)
        running = client.submit(JobSpec(request=REQUEST))
        assert gated.entered.wait(timeout=10)
        queued = client.submit(
            JobSpec(request=SolveRequest(shape="hexagon:2", seed=1))
        )
        with pytest.raises(ServiceError) as err:
            client.submit(
                JobSpec(request=SolveRequest(shape="hexagon:2", seed=2))
            )
        assert err.value.status == 429
        assert err.value.payload["retry_after_s"] >= 1
        assert err.value.payload["state"] == "shed"
        assert client.health()["status"] == "overloaded"
        gated.release()
        for job in (running, queued):
            server.service.wait(job["id"], timeout=60)
        server.service.shutdown(wait=True)
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)

    def test_client_retries_429_until_accepted(self):
        """A retry-configured client rides out a shed and lands the job
        once the queue drains."""
        from repro.resilience import RetryPolicy

        gated, server, thread, client = gated_server(workers=1, max_queue=1)
        client.retry = RetryPolicy(
            attempts=4, base_delay_s=0.05, max_delay_s=0.1
        )
        running = client.submit(JobSpec(request=REQUEST))
        assert gated.entered.wait(timeout=10)
        queued = client.submit(
            JobSpec(request=SolveRequest(shape="hexagon:2", seed=1))
        )
        releaser = threading.Timer(0.15, gated.release)
        releaser.start()
        third = client.submit(
            JobSpec(request=SolveRequest(shape="hexagon:2", seed=2))
        )
        for job in (running, queued, third):
            assert server.service.wait(job["id"], timeout=60).state == "done"
        assert server.service._sheds_total.value() >= 1
        releaser.join()
        server.service.shutdown(wait=True)
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
