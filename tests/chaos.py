"""Chaos injectors for the resilience layer (not a test module itself).

Fault injectors used by the chaos suite (``tests/test_chaos.py``) and
the daemon tests:

* :func:`chaos_crash_trial` — a picklable :func:`execute_trial` wrapper
  that kills its *worker process* (``os._exit``, no cleanup, no
  exception — exactly what a segfault or OOM kill looks like to the
  pool) according to marker files under ``$REPRO_CHAOS_DIR``.  Arm it
  with :func:`arm_crash_once` (one crash, then healthy — exercises the
  retry path) or :func:`arm_poison` (crashes every time — exercises
  quarantine).  Markers travel via the environment + filesystem because
  worker processes cannot share Python state with the parent.

* :class:`FlakyStore` — a :class:`ResultStore` whose ``add`` fails
  and/or stalls on a schedule, for drills where persistence is the
  broken layer.

* :class:`GatedSession` — wraps a :class:`~repro.api.Session` so cold
  runs block on an event until the drill releases them: the
  deterministic way to keep daemon workers busy (backpressure, stalled
  streams, shutdown-with-queued-jobs) without timing races.  Deadline
  tokens are still honored while gated, so a gated job with a deadline
  times out on schedule.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Optional

from repro.experiments.runner import TrialResult, execute_trial
from repro.experiments.spec import TrialSpec
from repro.experiments.store import ResultStore

#: Environment variable pointing worker processes at the marker dir.
CHAOS_DIR_ENV = "REPRO_CHAOS_DIR"

#: Exit code of a chaos-killed worker (distinctive in pool diagnostics).
CRASH_EXIT_CODE = 23


def _marker(chaos_dir: str, prefix: str, trial: TrialSpec) -> Path:
    return Path(chaos_dir) / f"{prefix}-{trial.key()}"


def arm_crash_once(chaos_dir: os.PathLike, trial: TrialSpec) -> None:
    """Make ``trial``'s next execution kill its worker; later ones succeed."""
    _marker(str(chaos_dir), "once", trial).touch()


def arm_poison(chaos_dir: os.PathLike, trial: TrialSpec) -> None:
    """Make every execution of ``trial`` kill its worker (poison trial)."""
    _marker(str(chaos_dir), "poison", trial).touch()


def chaos_crash_trial(trial: TrialSpec) -> TrialResult:
    """:func:`execute_trial` with marker-driven worker-process death.

    Module-level (hence picklable) so it can replace ``trial_fn`` on a
    :class:`~repro.experiments.runner.CampaignRunner` running a real
    ``ProcessPoolExecutor``.
    """
    chaos_dir = os.environ.get(CHAOS_DIR_ENV)
    if chaos_dir:
        if _marker(chaos_dir, "poison", trial).exists():
            os._exit(CRASH_EXIT_CODE)
        once = _marker(chaos_dir, "once", trial)
        if once.exists():
            once.unlink()  # disarm first: the retry must find it gone
            os._exit(CRASH_EXIT_CODE)
    return execute_trial(trial)


class FlakyStore(ResultStore):
    """A result store whose writes fail (and/or stall) on a schedule.

    ``fail_every=N`` makes every Nth ``add`` raise ``OSError`` (0 = never
    fail); ``delay_s`` stalls each write first.  Reads are untouched —
    the point of the drill is that a broken *write* path must cost only
    cache entries, never results or worker threads.
    """

    def __init__(
        self,
        path: Optional[os.PathLike] = None,
        fail_every: int = 0,
        delay_s: float = 0.0,
    ):
        super().__init__(path)
        self.fail_every = fail_every
        self.delay_s = delay_s
        self.writes = 0
        self.injected_failures = 0
        self._flaky_lock = threading.Lock()

    def add(self, record) -> None:
        with self._flaky_lock:
            self.writes += 1
            write = self.writes
        if self.delay_s:
            time.sleep(self.delay_s)
        if self.fail_every and write % self.fail_every == 0:
            with self._flaky_lock:
                self.injected_failures += 1
            raise OSError(f"injected store fault (write #{write})")
        super().add(record)


class GatedSession:
    """Session proxy whose cold runs block until :meth:`release`.

    Everything except ``run`` delegates to the wrapped session, so a
    :class:`~repro.service.SolverService` built over it behaves
    normally (store, stats, caches).  ``run`` waits on the gate in
    small slices, checking the cancellation token each slice — gated
    jobs still honor deadlines.
    """

    def __init__(self, session):
        self._session = session
        self._gate = threading.Event()
        #: Set once a run has reached the gate (lets drills wait until
        #: a worker is provably occupied before submitting more).
        self.entered = threading.Event()

    def __getattr__(self, name):
        return getattr(self._session, name)

    def release(self) -> None:
        """Open the gate: all blocked and future runs proceed."""
        self._gate.set()

    def run(self, request, resume=True, on_event=None, token=None):
        self.entered.set()
        while not self._gate.wait(timeout=0.02):
            if token is not None:
                token.check()
        return self._session.run(
            request, resume=resume, on_event=on_event, token=token
        )
