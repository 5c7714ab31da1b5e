"""Campaign trials are solve requests: characterization and cross-entry parity.

A campaign trial executes as ``trial.request()`` on the runner's worker
:class:`~repro.api.Session`.  The pins below were recorded from the
runner's earlier, separate solve stack: every algorithm x placement,
an all-nodes (``l = 0``) trial, an event-driven trial and one trial
per churn kind must measure exactly what they measured there.  The
cross-entry cases check that a trial, a direct ``Session.run``, a
daemon job and ``repro solve`` with the trial's sampling seed solve
the same instance into the same forest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import Session
from repro.cli import main
from repro.experiments.runner import execute_trial
from repro.experiments.spec import PLACEMENTS, TrialSpec, content_key
from repro.service import JobSpec, SolverService

SOLVE_SHAPE = "random:50:3"
CHURN_SHAPE = "random:60:1"
CHURN_KINDS = ("growth", "erosion", "tunnel", "block_move", "mixed")


def _trials():
    out = {}
    sizes = {"auto": (2, 3), "spt": (1, 3), "forest": (3, 4),
             "sequential": (3, 0), "wave": (2, 3)}
    for algorithm, (k, l) in sizes.items():
        for placement in PLACEMENTS:
            out[f"{algorithm}-{placement}"] = dict(
                shape=SOLVE_SHAPE, k=k, l=l, seed=1, algorithm=algorithm,
                placement=placement,
            )
    out["forest-all-nodes"] = dict(
        shape=SOLVE_SHAPE, k=2, l=0, seed=2, algorithm="forest",
        measure_diameter=True,
    )
    out["auto-random-sched"] = dict(
        shape=SOLVE_SHAPE, k=2, l=3, seed=3, scheduler="random:1"
    )
    for kind in CHURN_KINDS:
        out[f"churn-{kind}"] = dict(
            shape=CHURN_SHAPE, k=1, l=3, seed=0, churn=kind, churn_steps=3,
            churn_batch=2, measure_diameter=True,
        )
    return out


TRIALS = _trials()

#: name -> (rounds, forest_members, n, resolved, content_key(sections),
#: activations, diameter).
PINS = {
    'auto-random': (206, 12, 50, 'forest', '21b17d60870689328811', 10300, None),
    'auto-spread': (221, 5, 50, 'forest', '3ff41ede317b86c507fc', 11050, None),
    'auto-extremes': (160, 19, 50, 'forest', '341869b7c327ff37e4c5', 8000, None),
    'spt-random': (28, 6, 50, 'spt', '98ccbee747b7697387ac', 1400, None),
    'spt-spread': (30, 4, 50, 'spt', 'ff8123a34c6e6de42fde', 1500, None),
    'spt-extremes': (28, 17, 50, 'spt', '98ccbee747b7697387ac', 1400, None),
    'forest-random': (158, 12, 50, 'forest', '2bf8eae5ca72074538b5', 7900, None),
    'forest-spread': (219, 7, 50, 'forest', '977595dc9a5fc96cde7a', 10950, None),
    'forest-extremes': (206, 27, 50, 'forest', '6a43e9703fa5888a422f', 10300, None),
    'sequential-random': (156, 50, 50, 'sequential', '9670cf80c61688baf173', 7800, None),
    'sequential-spread': (156, 50, 50, 'sequential', '9670cf80c61688baf173', 7800, None),
    'sequential-extremes': (156, 50, 50, 'sequential', '9670cf80c61688baf173', 7800, None),
    'wave-random': (6, 39, 50, 'wave', '75dcffef33c47c8a4e56', 300, None),
    'wave-spread': (3, 14, 50, 'wave', '6d78385b0c96a80f7c29', 150, None),
    'wave-extremes': (10, 50, 50, 'wave', '13adcb863f006a7edde5', 500, None),
    'forest-all-nodes': (283, 50, 50, 'forest', '0dd33ccbc96fa73cf787', 14150, 10),
    'auto-random-sched': (158, 9, 50, 'forest', '21e746dba97babf53312', 36839, None),
    'churn-growth': (40, 11, 60, 'dynamic', 'd8423ba403f5ce4d0b28', 2436, 10),
    'churn-erosion': (43, 10, 60, 'dynamic', '94a4f715116465c4b33f', 2536, 10),
    'churn-tunnel': (41, 14, 60, 'dynamic', 'dec97db0d068023c823b', 2448, 10),
    'churn-block_move': (41, 8, 60, 'dynamic', '9559d47f14885c764e2b', 2460, 10),
    'churn-mixed': (130, 10, 60, 'dynamic', '340d38e0751d2989ae1f', 7536, 10),
}


def _measured(result):
    return (
        result.rounds, result.forest_members, result.n, result.resolved,
        content_key(result.sections), result.activations, result.diameter,
    )


@pytest.mark.parametrize("name", sorted(TRIALS))
def test_trial_measurements_pinned(name):
    result = execute_trial(TrialSpec(scenario="pin", **TRIALS[name]))
    assert _measured(result) == PINS[name], result.sections


def _parent_digest(forest):
    blob = repr(sorted(forest.parent.items())).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@pytest.fixture
def session_reports(monkeypatch):
    """Every report :meth:`Session.run` returns, from any entry point."""
    reports = []
    run = Session.run

    def recording_run(self, request, *args, **kwargs):
        report = run(self, request, *args, **kwargs)
        reports.append(report)
        return report

    monkeypatch.setattr(Session, "run", recording_run)
    return reports


class TestCrossEntry:
    def test_trial_session_daemon_and_cli_agree(self, session_reports, capsys):
        trial = TrialSpec(scenario="x", shape="random:60:4", k=2, l=4, seed=3)
        request = trial.request()
        result = execute_trial(trial)
        Session().run(request)
        service = SolverService(session=Session(), workers=1)
        try:
            job = service.wait(service.submit(JobSpec(request=request)).id,
                               timeout=60)
        finally:
            service.shutdown(wait=True)
        assert main(["solve", "--shape", trial.shape, "-k", "2", "-l", "4",
                     "--seed", str(trial.sampling_seed())]) == 0
        out = capsys.readouterr().out

        assert len(session_reports) == 4
        assert {r.key for r in session_reports} == {request.key()}
        assert not any(r.cached for r in session_reports)
        assert {r.rounds for r in session_reports} == {result.rounds}
        assert {r.forest_members for r in session_reports} == {
            result.forest_members
        }
        assert len({_parent_digest(r.forest) for r in session_reports}) == 1
        assert job.state == "done" and job.result["rounds"] == result.rounds
        assert f"synchronous rounds: {result.rounds}\n" in out

    @pytest.mark.parametrize("kind", ["growth", "mixed"])
    def test_churn_trial_matches_session_run(self, kind):
        trial = TrialSpec(scenario="x", **TRIALS[f"churn-{kind}"])
        result = execute_trial(trial)
        report = Session().run(trial.request())
        assert (report.rounds, report.forest_members) == (
            result.rounds, result.forest_members
        )
        # A churn trial records where the structure started, not the
        # report's final size, and its repair counters as sections.
        assert result.n == report.repair["initial_n"] == 60
        assert result.sections == {
            name: report.repair[name] for name in result.sections
        }
        assert len(result.sections) == 7

    def test_trial_always_executes(self, session_reports):
        trial = TrialSpec(scenario="x", shape="hexagon:2", k=1, l=2, seed=0)
        first = execute_trial(trial)
        second = execute_trial(trial)
        assert len(session_reports) == 2
        assert not any(r.cached for r in session_reports)
        assert first.rounds == second.rounds


class TestTrialRequest:
    def test_request_mirrors_trial_fields(self):
        trial = TrialSpec(scenario="s", shape="random:60:1", k=1, l=3, seed=4,
                          placement="spread", scheduler="random:1",
                          churn="erosion", churn_steps=2, churn_batch=3)
        request = trial.request()
        assert request.kind == "churn"
        assert request.seed == trial.sampling_seed()
        assert (request.shape, request.k, request.l, request.placement,
                request.scheduler, request.churn, request.churn_steps,
                request.churn_batch) == (
            "random:60:1", 1, 3, "spread", "random:1", "erosion", 2, 3)
        assert TrialSpec(scenario="s", shape="hexagon:2", k=1, l=1,
                         seed=0).request().kind == "solve"
