"""Chaos suite: the resilience layer under injected faults.

Uses the injectors from :mod:`tests.chaos` to prove the guarantees the
resilience layer makes:

* a campaign survives worker processes dying mid-trial — transient
  crashes are retried on fresh pools, only a trial that keeps killing
  its worker is quarantined (as a structured store record, never an
  escaped ``BrokenProcessPool``);
* the daemon keeps serving warm cache hits while shedding cold work at
  full queue, times out jobs past their deadline (freeing the worker),
  and treats a flaky result store as degraded caching, not failure;
* a client streaming from a daemon that dies mid-stream gets a typed
  :class:`~repro.service.TransportError`, not a raw socket exception.
"""

from __future__ import annotations

import socket
import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.api import Session, SolveRequest
import repro.experiments.runner as runner_module
from repro.experiments import CampaignRunner, ResultStore
from repro.experiments.runner import QUARANTINE_RECORD
from repro.experiments.spec import CampaignSpec, ScenarioSpec
from repro.resilience import RetryPolicy
from repro.service import (
    JobSpec,
    ServiceClient,
    ServiceOverloaded,
    SolverService,
    TransportError,
)

from tests.chaos import (
    CHAOS_DIR_ENV,
    FlakyStore,
    GatedSession,
    arm_crash_once,
    arm_poison,
    chaos_crash_trial,
)

#: Fast retries so crash-recovery tests don't sleep their way to minutes.
FAST_RETRY = RetryPolicy(attempts=3, base_delay_s=0.01, max_delay_s=0.05)


def drill_campaign(n: int, name: str = "chaos") -> CampaignSpec:
    """``n`` small, distinct trials (one per seed)."""
    return CampaignSpec(
        name=f"{name}-campaign",
        scenarios=(
            ScenarioSpec(
                name=name,
                shape="random:30:1",
                ks=(1,),
                ls=(1,),
                seeds=tuple(range(n)),
            ),
        ),
    )


class TestWorkerCrashRecovery:
    def test_fifty_trials_with_three_poison_workers(self, tmp_path, monkeypatch):
        """The acceptance drill: 50 trials, 3 trials that always kill
        their worker — >= 47 results, 3 structured quarantine records,
        and no BrokenProcessPool escaping the runner."""
        campaign = drill_campaign(50)
        trials = campaign.trials()
        poison = trials[7], trials[23], trials[41]
        for trial in poison:
            arm_poison(tmp_path, trial)
        monkeypatch.setenv(CHAOS_DIR_ENV, str(tmp_path))
        store = ResultStore(tmp_path / "results.jsonl")
        runner = CampaignRunner(
            store=store, workers=2, retry=FAST_RETRY, trial_fn=chaos_crash_trial
        )
        report = runner.run(campaign, resume=False)

        assert len(report.results) >= 47
        assert len(report.quarantined) == 3
        assert {r["key"] for r in report.quarantined} == {
            t.key() for t in poison
        }
        for record in report.quarantined:
            assert record["record"] == QUARANTINE_RECORD
            assert record["attempts"] == FAST_RETRY.attempts
            assert "BrokenProcessPool" in record["error"]
            # ...and it was persisted, not just reported.
            assert store.get(record["key"])["record"] == QUARANTINE_RECORD
        assert report.total == 50

    def test_transient_crashes_recover_everything(self, tmp_path, monkeypatch):
        campaign = drill_campaign(6)
        trials = campaign.trials()
        for trial in trials[1:4]:
            arm_crash_once(tmp_path, trial)
        monkeypatch.setenv(CHAOS_DIR_ENV, str(tmp_path))
        runner = CampaignRunner(
            store=ResultStore(tmp_path / "results.jsonl"),
            workers=2,
            retry=FAST_RETRY,
            trial_fn=chaos_crash_trial,
        )
        report = runner.run(campaign, resume=False)
        assert len(report.results) == 6
        assert report.quarantined == []
        assert report.retries >= 3
        assert "retries" in report.summary()

    def test_inline_runner_quarantines_raising_trial(self, tmp_path):
        """workers=1 (no processes): in-worker exceptions follow the
        same retry-then-quarantine path."""
        campaign = drill_campaign(3)
        bad_key = campaign.trials()[1].key()
        calls: dict = {}

        def flaky_trial(trial):
            calls[trial.key()] = calls.get(trial.key(), 0) + 1
            if trial.key() == bad_key:
                raise ValueError("injected trial fault")
            from repro.experiments.runner import execute_trial

            return execute_trial(trial)

        runner = CampaignRunner(
            store=ResultStore(tmp_path / "results.jsonl"),
            workers=1,
            retry=FAST_RETRY,
            trial_fn=flaky_trial,
        )
        report = runner.run(campaign, resume=False)
        assert len(report.results) == 2
        assert [r["error"] for r in report.quarantined] == [
            "ValueError: injected trial fault"
        ]
        assert calls[bad_key] == FAST_RETRY.attempts

    def test_quarantine_record_does_not_poison_resume(self, tmp_path, monkeypatch):
        """A later run re-attempts a quarantined trial instead of
        serving the failure record as a cached result."""
        campaign = drill_campaign(3)
        poison = campaign.trials()[1]
        arm_poison(tmp_path, poison)
        monkeypatch.setenv(CHAOS_DIR_ENV, str(tmp_path))
        store = ResultStore(tmp_path / "results.jsonl")
        first = CampaignRunner(
            store=store, workers=2, retry=FAST_RETRY, trial_fn=chaos_crash_trial
        ).run(campaign, resume=False)
        assert len(first.quarantined) == 1

        # The fault is fixed (marker removed): resume recomputes exactly
        # the quarantined trial and serves the other two from cache.
        (tmp_path / f"poison-{poison.key()}").unlink()
        second = CampaignRunner(
            store=store, workers=2, retry=FAST_RETRY, trial_fn=chaos_crash_trial
        ).run(campaign, resume=True)
        assert len(second.results) == 3
        assert second.quarantined == []
        assert second.cache_hits == 2
        assert second.executed == 1

    def test_pool_breaking_during_submit_isolates_the_rest(self, tmp_path, monkeypatch):
        """A worker that dies while a batch is still being submitted
        makes ``submit`` itself raise ``BrokenProcessPool``: the trials
        not submitted yet go to the isolation pass with the outstanding
        ones instead of the error escaping the runner.  The executor is
        an in-process stand-in whose third ``submit`` finds the pool
        broken, so the test does not depend on timing."""
        submits = []

        class SubmitBreaksPool:
            def __init__(self, max_workers=None, initializer=None, initargs=()):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                submits.append(args[0].key())
                if len(submits) == 3:
                    raise BrokenProcessPool("a worker died during submit")
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", SubmitBreaksPool)
        campaign = drill_campaign(5)
        trials = campaign.trials()
        report = CampaignRunner(
            store=ResultStore(tmp_path / "results.jsonl"),
            workers=2,
            retry=FAST_RETRY,
        ).run(campaign, resume=False)

        assert {r.to_dict()["key"] for r in report.results} == {t.key() for t in trials}
        assert report.quarantined == []
        # Two trials settled in the pool; the one whose submit broke it
        # and the two never submitted ran once each in isolation.
        assert report.retries == 3
        assert submits == [t.key() for t in trials[:3]] + [t.key() for t in trials[2:]]



class TestDaemonUnderChaos:
    def test_flaky_store_degrades_caching_not_jobs(self):
        store = FlakyStore(fail_every=2)
        service = SolverService(session=Session(store=store), workers=1)
        jobs = [
            service.submit(
                JobSpec(request=SolveRequest(shape="hexagon:3", l=2, seed=s))
            )
            for s in range(3)
        ]
        states = [service.wait(j.id, timeout=60).state for j in jobs]
        assert states == ["done", "done", "done"]
        assert service.session.stats.store_failures >= 1
        assert store.injected_failures >= 1
        service.shutdown()

    def test_deadline_times_out_job_and_frees_worker(self):
        gated = GatedSession(Session())
        service = SolverService(session=gated, workers=1)
        doomed = service.submit(
            JobSpec(
                request=SolveRequest(shape="hexagon:3", l=2, seed=1),
                deadline_s=0.1,
            )
        )
        assert gated.entered.wait(timeout=10)
        follower = service.submit(
            JobSpec(request=SolveRequest(shape="hexagon:3", l=2, seed=2))
        )
        timed_out = service.wait(doomed.id, timeout=30)
        assert timed_out.state == "timeout"
        assert timed_out.result["record"] == "timeout"
        assert timed_out.result["deadline_s"] == 0.1
        assert "partial" in timed_out.result
        events = [e["event"] for e in timed_out.events(timeout=0)]
        assert "timeout" in events
        gated.release()
        # The worker survived the timeout and still drains the queue.
        assert service.wait(follower.id, timeout=60).state == "done"
        assert service._timeouts_total.value() == 1
        service.shutdown()

    def test_deadline_expiring_in_queue_never_occupies_worker(self):
        gated = GatedSession(Session())
        service = SolverService(session=gated, workers=1)
        blocker = service.submit(
            JobSpec(request=SolveRequest(shape="hexagon:3", l=2, seed=1))
        )
        assert gated.entered.wait(timeout=10)
        stale = service.submit(
            JobSpec(
                request=SolveRequest(shape="hexagon:3", l=2, seed=2),
                deadline_s=0.05,
            )
        )
        time.sleep(0.1)  # expire while queued behind the blocked worker
        gated.release()
        assert service.wait(stale.id, timeout=30).state == "timeout"
        assert stale.result["partial"] == {}
        assert service.wait(blocker.id, timeout=60).state == "done"
        service.shutdown()

    def test_full_queue_sheds_cold_serves_warm(self):
        store = ResultStore()
        warm_request = SolveRequest(shape="hexagon:3", l=3, seed=9)
        Session(store=store).run(warm_request)  # pre-warm one record

        gated = GatedSession(Session(store=store))
        service = SolverService(session=gated, workers=1, max_queue=1)
        running = service.submit(
            JobSpec(request=SolveRequest(shape="hexagon:3", l=2, seed=1))
        )
        assert gated.entered.wait(timeout=10)
        queued = service.submit(
            JobSpec(request=SolveRequest(shape="hexagon:3", l=2, seed=2))
        )
        assert service.health()["status"] == "overloaded"
        assert service.health()["ok"] is False

        # Cold work is shed with a retry hint and a terminal job...
        with pytest.raises(ServiceOverloaded) as err:
            service.submit(
                JobSpec(request=SolveRequest(shape="hexagon:3", l=2, seed=3))
            )
        assert err.value.retry_after_s >= 1
        assert err.value.job.state == "shed"
        assert service._sheds_total.value() == 1
        # ...but a warm hit is still served inline, instantly.
        warm = service.submit(JobSpec(request=warm_request))
        assert warm.state == "done"
        assert warm.result["cached"] is True
        # fresh=True insists on recomputation, so at full queue it sheds.
        with pytest.raises(ServiceOverloaded):
            service.submit(JobSpec(request=warm_request, fresh=True))

        gated.release()
        assert service.wait(running.id, timeout=60).state == "done"
        assert service.wait(queued.id, timeout=60).state == "done"
        assert service.health()["status"] == "ok"
        terminal = {"done", "failed", "timeout", "shed"}
        assert all(j["state"] in terminal for j in service.jobs())
        service.shutdown()

    def test_queue_position_reported_for_queued_jobs(self):
        gated = GatedSession(Session())
        service = SolverService(session=gated, workers=1, max_queue=4)
        service.submit(
            JobSpec(request=SolveRequest(shape="hexagon:3", l=2, seed=1))
        )
        assert gated.entered.wait(timeout=10)
        waiting = [
            service.submit(
                JobSpec(request=SolveRequest(shape="hexagon:3", l=2, seed=s))
            )
            for s in (2, 3)
        ]
        assert service.queue_position(waiting[0].id) == 0
        assert service.queue_position(waiting[1].id) == 1
        with pytest.raises(KeyError):
            service.queue_position("no-such-job")
        gated.release()
        for job in waiting:
            service.wait(job.id, timeout=60)
        assert service.queue_position(waiting[0].id) is None
        service.shutdown()


class _FakeStreamDaemon:
    """One-connection HTTP server that dies mid-stream, by script.

    Sends real response headers plus ``lines``, then either stalls
    (``stall_s``) or closes the socket — exactly what a daemon crash
    looks like to a streaming client.
    """

    def __init__(self, lines, stall_s: float = 0.0):
        self.lines = lines
        self.stall_s = stall_s
        self._server = socket.create_server(("127.0.0.1", 0))
        self.port = self._server.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        conn, _addr = self._server.accept()
        with conn:
            conn.recv(65536)  # the request; content is irrelevant
            head = b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\r\n"
            conn.sendall(head + b"".join(self.lines))
            if self.stall_s:
                time.sleep(self.stall_s)

    def close(self) -> None:
        self._server.close()
        self._thread.join(timeout=5)


class TestStreamFailureTyping:
    def test_daemon_death_mid_stream_is_typed(self):
        fake = _FakeStreamDaemon(
            [b'{"event": "queued"}\n', b'{"event": "running"}\n']
        )
        client = ServiceClient("127.0.0.1", fake.port, timeout=5)
        events = []
        with pytest.raises(TransportError, match="without the terminal"):
            for event in client.stream("j-1"):
                events.append(event)
        assert [e["event"] for e in events] == ["queued", "running"]
        fake.close()

    def test_stream_idle_timeout_is_typed(self):
        fake = _FakeStreamDaemon([b'{"event": "queued"}\n'], stall_s=2.0)
        client = ServiceClient(
            "127.0.0.1", fake.port, connect_timeout=5, read_timeout=0.2
        )
        with pytest.raises(TransportError, match="idle"):
            list(client.stream("j-1"))
        fake.close()

    def test_dead_daemon_connect_is_typed(self):
        sock = socket.create_server(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here any more
        client = ServiceClient("127.0.0.1", port, timeout=1)
        with pytest.raises(TransportError):
            list(client.stream("j-1"))
        with pytest.raises(TransportError):
            client.health()
