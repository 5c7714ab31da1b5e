"""Campaign execution: expand specs into trials, run them in parallel.

A trial is a :class:`~repro.api.SolveRequest` on a worker session:
:func:`execute_trial` runs ``trial.request()`` through
:meth:`Session.run <repro.api.Session.run>` — the same pipeline as the
CLI, library calls and daemon jobs — and copies the report into a
:class:`TrialResult`.  The runner itself only orchestrates:

* :func:`execute_trial` is module-level, hence picklable, so the same
  function body runs inline (``workers <= 1``) and inside
  :class:`~concurrent.futures.ProcessPoolExecutor` workers.
* :class:`CampaignRunner` does cache lookups against a
  :class:`~repro.experiments.store.ResultStore`, worker fan-out,
  retries and quarantine, and progress reporting.

Determinism: a trial's request is seeded with
:meth:`TrialSpec.sampling_seed`, derived from its content hash, never
from runner state, so serial and parallel runs produce bit-identical
records.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
)

from repro.experiments.spec import CampaignSpec, TrialSpec, expand_trials
from repro.experiments.store import ResultStore
from repro.grid.oracle import structure_diameter
from repro.obs import Tracer, trace_span, use_tracer
from repro.resilience import CancellationToken, RetryPolicy

if TYPE_CHECKING:
    from repro.api import Session

logger = logging.getLogger("repro.experiments.runner")

#: ``record`` marker of the structured failure records a quarantined
#: trial leaves in the store.  Resume treats them as *not* cached — a
#: later run re-attempts the trial — but campaign reports surface them
#: so a poisoned trial is an accountable line item, not a lost abort.
QUARANTINE_RECORD = "quarantined-trial"

#: Directory per-trial span traces are spooled into, or ``None`` (off).
#: A module global (not runner state) because trials execute in worker
#: *processes*: the pool initializer sets it in each worker, and every
#: worker appends to its own ``trials-<pid>.jsonl`` — no cross-process
#: file contention, no pickling of tracer objects.
_TRACE_DIR: Optional[str] = None


def _set_trace_dir(path: Optional[str]) -> None:
    """Install the trace spool directory."""
    global _TRACE_DIR
    _TRACE_DIR = path


class _NoStore(ResultStore):
    """A result store that keeps nothing: the campaign store is the cache."""

    def add(self, record: Mapping[str, object]) -> None:
        pass


#: The process-wide session every trial a worker executes runs on.  Its
#: structure LRU and layout cache are shared across trials, so trials
#: over the same shape reuse one structure and one compiled layout per
#: wiring.  Created on first use: :mod:`repro.api` imports this package.
#: Threads racing on first use may each build one; all but one are
#: dropped, which only loses their caches.
_WORKER_SESSION: Optional["Session"] = None


def _worker_session() -> "Session":
    global _WORKER_SESSION
    if _WORKER_SESSION is None:
        from repro.api import Session

        _WORKER_SESSION = Session(store=_NoStore())
    return _WORKER_SESSION


def _init_worker(trace_dir: Optional[str]) -> None:
    """Process-pool initializer: trace spool plus a session of its own.

    A forked worker must not reuse the parent's session: one of the
    parent's threads may have held the session lock at fork time.
    """
    global _WORKER_SESSION
    _WORKER_SESSION = None
    _set_trace_dir(trace_dir)


#: Churn repair counters a churn trial records as its ``sections``.
_REPAIR_COUNTERS = (
    "edit_batches", "edit_ops", "repairs_patch", "repairs_full",
    "repair_rounds", "wave_rounds", "dirty_nodes",
)


@dataclass
class TrialResult:
    """Everything measured for one executed trial.

    ``elapsed_s`` is the wall time of the trial's request on an already
    built structure: endpoint picking, engine setup and the solve (plus
    the churn and its repairs), never the shape's construction.
    """

    key: str
    scenario: str
    shape: str
    n: int
    k: int
    l: int
    seed: int
    algorithm: str
    resolved: str
    placement: str
    rounds: int
    forest_members: int
    elapsed_s: float
    diameter: Optional[int] = None
    sections: Dict[str, int] = field(default_factory=dict)
    cached: bool = False
    # Scheduler-axis extras (new keys appended to the record; every
    # pre-existing key above is untouched, so old stores keep loading).
    scheduler: str = ""
    activations: Optional[int] = None
    sched_time: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        """Flatten into the JSON-ready record the store persists."""
        return {
            "key": self.key,
            "scenario": self.scenario,
            "shape": self.shape,
            "n": self.n,
            "k": self.k,
            "l": self.l,
            "seed": self.seed,
            "algorithm": self.algorithm,
            "resolved": self.resolved,
            "placement": self.placement,
            "rounds": self.rounds,
            "forest_members": self.forest_members,
            "elapsed_s": self.elapsed_s,
            "diameter": self.diameter,
            "sections": dict(self.sections),
            "cached": self.cached,
            "scheduler": self.scheduler,
            "activations": self.activations,
            "sched_time": self.sched_time,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TrialResult":
        """Rebuild from a stored record, ignoring unknown fields."""
        known = {
            "key", "scenario", "shape", "n", "k", "l", "seed", "algorithm",
            "resolved", "placement", "rounds", "forest_members", "elapsed_s",
            "diameter", "sections", "cached", "scheduler", "activations",
            "sched_time",
        }
        kwargs = {name: data[name] for name in known if name in data}
        return cls(**kwargs)  # type: ignore[arg-type]


def execute_trial(trial: TrialSpec) -> TrialResult:
    """Run one trial and measure rounds, forest size and wall time.

    The trial always executes (``resume=False``): the campaign's store
    is the only result cache.  When a trace spool directory is
    installed (``--trace-dir``), the whole trial runs under a span
    tracer whose records are appended — tagged with the trial key — to
    this process's ``trials-<pid>.jsonl`` in that directory.
    """
    if _TRACE_DIR is None:
        return _run_request(trial)
    tracer = Tracer()
    with use_tracer(tracer):
        with trace_span(
            "trial",
            scenario=trial.scenario,
            shape=trial.shape,
            seed=trial.seed,
            algorithm=trial.algorithm,
        ) as span:
            result = _run_request(trial)
            span.set(rounds=result.rounds)
    tracer.dump(
        os.path.join(_TRACE_DIR, f"trials-{os.getpid()}.jsonl"),
        append=True,
        extra={"trial": trial.key()},
    )
    return result


def _run_request(trial: TrialSpec) -> TrialResult:
    """The untraced trial body: ``trial.request()`` on the worker session."""
    session = _worker_session()
    # Build (or fetch) the shape first, so the request's timing starts
    # on a built structure whether or not an earlier trial built it.
    structure = session.structure(trial.shape)
    report = session.run(trial.request(), resume=False)
    if trial.churn:
        # The report describes the final structure; a churn trial
        # records the size it started from and its repair counters.
        n = report.repair["initial_n"]
        sections = {name: report.repair[name] for name in _REPAIR_COUNTERS}
    else:
        n, sections = report.n, dict(report.sections)
    return TrialResult(
        key=trial.key(),
        scenario=trial.scenario,
        shape=trial.shape,
        n=n,
        k=trial.k,
        l=trial.l,
        seed=trial.seed,
        algorithm=trial.algorithm,
        resolved=report.algorithm,
        placement=trial.placement,
        rounds=report.rounds,
        forest_members=report.forest_members,
        elapsed_s=report.elapsed_s,
        diameter=structure_diameter(structure) if trial.measure_diameter else None,
        sections=sections,
        scheduler=trial.scheduler,
        activations=report.activations,
        sched_time=report.sched_time,
    )


@dataclass
class CampaignReport:
    """Outcome of one :meth:`CampaignRunner.run` invocation."""

    campaign: str
    results: List[TrialResult]
    executed: int
    cache_hits: int
    elapsed_s: float
    #: Structured failure records of trials that exhausted their retry
    #: budget (see :data:`QUARANTINE_RECORD`); empty on a clean run.
    quarantined: List[Dict[str, object]] = field(default_factory=list)
    #: Trial re-executions after worker crashes or in-worker errors.
    retries: int = 0

    @property
    def total(self) -> int:
        """Total trials in the campaign (executed + cached + quarantined)."""
        return len(self.results) + len(self.quarantined)

    def records(self) -> List[Dict[str, object]]:
        """All results as plain dicts (aggregate-ready)."""
        return [r.to_dict() for r in self.results]

    def summary(self) -> str:
        """One human-readable line: totals, cache hits, wall time."""
        line = (
            f"campaign {self.campaign!r}: {self.total} trials, "
            f"{self.executed} executed, {self.cache_hits} cache hits "
            f"({self.elapsed_s:.2f}s)"
        )
        if self.retries or self.quarantined:
            line += (
                f" [{self.retries} retries, "
                f"{len(self.quarantined)} quarantined]"
            )
        return line


ProgressFn = Callable[[TrialSpec, TrialResult, int, int], None]


class CampaignRunner:
    """Expands a campaign and executes its trials, possibly in parallel.

    Parameters
    ----------
    store:
        Result store consulted for cached trials and appended to as
        trials complete.  Defaults to a fresh in-memory store.
    workers:
        ``<= 1`` runs inline; otherwise a ``ProcessPoolExecutor`` with
        that many workers.  Results are identical either way.
    trace_dir:
        When set, every trial runs under a span tracer and each worker
        process appends its trials' spans to ``trials-<pid>.jsonl`` in
        this directory (created if missing).  ``None`` (default) runs
        the uninstrumented path.
    retry:
        Retry budget for crashed or erroring trials
        (:class:`~repro.resilience.RetryPolicy`; ``attempts`` is total
        tries per trial).  A trial that exhausts the budget is
        *quarantined*: a structured failure record lands in the store
        and on :attr:`CampaignReport.quarantined`, and the rest of the
        campaign keeps running — a dead worker process
        (``BrokenProcessPool``) no longer aborts anything.
    trial_fn:
        The trial executor (module-level, hence picklable).  Chaos
        tests swap in fault-injecting wrappers; everyone else keeps
        :func:`execute_trial`.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        workers: int = 1,
        trace_dir: Optional[os.PathLike] = None,
        retry: Optional[RetryPolicy] = None,
        trial_fn: Callable[[TrialSpec], TrialResult] = execute_trial,
    ):
        self.store = store if store is not None else ResultStore()
        self.workers = max(1, int(workers))
        self.trace_dir = str(trace_dir) if trace_dir else None
        if self.trace_dir:
            os.makedirs(self.trace_dir, exist_ok=True)
        self.retry = retry if retry is not None else RetryPolicy(
            attempts=3, base_delay_s=0.05, max_delay_s=0.5
        )
        self.trial_fn = trial_fn
        #: Store writes that failed (results are kept in memory and the
        #: campaign continues; see :meth:`_store_add`).
        self.store_failures = 0

    def run(
        self,
        campaign: CampaignSpec,
        resume: bool = True,
        progress: Optional[ProgressFn] = None,
        token: Optional[CancellationToken] = None,
    ) -> CampaignReport:
        """Execute every trial of ``campaign`` not already in the store.

        With ``resume=False`` cached records are ignored (and
        overwritten in the store's in-memory view; the JSONL log keeps
        both, last write wins on reload).  Quarantine records never
        count as cached — a re-run re-attempts those trials.

        ``token`` is checked at trial boundaries: a deadline or cancel
        raises :class:`~repro.resilience.Cancelled` mid-campaign, with
        everything completed so far already persisted in the store.
        """
        trials = expand_trials(campaign.trials())
        started = time.perf_counter()
        cached: Dict[str, TrialResult] = {}
        todo: List[TrialSpec] = []
        for trial in trials:
            record = self.store.get(trial.key()) if resume else None
            if record is not None and record.get("record") is None:
                # Cached results keep their originally recorded scenario
                # label, so the report always matches the store contents
                # (a hit may come from another campaign's scenario).
                # Marked records (quarantine entries) are not results.
                result = TrialResult.from_dict(record)
                result.cached = True
                cached[trial.key()] = result
            else:
                todo.append(trial)

        fresh, quarantined, retries = self._execute(
            todo, progress, total=len(trials), done=len(cached), token=token
        )

        results: List[TrialResult] = []
        for trial in trials:
            key = trial.key()
            if key in cached:
                results.append(cached[key])
            elif key in fresh:
                results.append(fresh[key])
            # else: quarantined — reported separately, not a result
        return CampaignReport(
            campaign=campaign.name,
            results=results,
            executed=len(fresh),
            cache_hits=len(cached),
            elapsed_s=round(time.perf_counter() - started, 6),
            quarantined=quarantined,
            retries=retries,
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _store_add(self, record: Dict[str, object]) -> None:
        """Persist one record, tolerating store faults.

        A failed write costs a cache entry (and a resume point), never
        the in-memory result — campaigns outlive flaky disks.
        """
        try:
            self.store.add(record)
        except Exception:  # noqa: BLE001 - persistence is best-effort here
            self.store_failures += 1
            logger.warning(
                "store write failed for %s", record.get("key"), exc_info=True
            )

    def _quarantine(
        self, trial: TrialSpec, exc: BaseException, attempts: int
    ) -> Dict[str, object]:
        """Build + persist the structured failure record for one trial."""
        record = {
            "key": trial.key(),
            "record": QUARANTINE_RECORD,
            "scenario": trial.scenario,
            "shape": trial.shape,
            "seed": trial.seed,
            "algorithm": trial.algorithm,
            "error": f"{type(exc).__name__}: {exc}",
            "attempts": attempts,
        }
        self._store_add(record)
        logger.warning(
            "trial quarantined after %d attempts: %s (%s)",
            attempts,
            trial.key(),
            record["error"],
        )
        return record

    def _retry_delay(self, failures: int) -> float:
        """Backoff before re-attempting a trial that failed ``failures`` times."""
        delays = self.retry.delays()
        if not delays:
            return 0.0
        return delays[min(failures - 1, len(delays) - 1)]

    def _execute(
        self,
        todo: Sequence[TrialSpec],
        progress: Optional[ProgressFn],
        total: int,
        done: int,
        token: Optional[CancellationToken] = None,
    ) -> Tuple[Dict[str, TrialResult], List[Dict[str, object]], int]:
        out: Dict[str, TrialResult] = {}
        quarantined: List[Dict[str, object]] = []
        retries = 0
        if not todo:
            return out, quarantined, retries

        def record(trial: TrialSpec, result: TrialResult, done: int) -> None:
            # Persist immediately so an interrupted campaign resumes
            # from the last completed trial, not from scratch.
            out[trial.key()] = result
            self._store_add(result.to_dict())
            if progress is not None:
                progress(trial, result, done, total)

        budget = self.retry.attempts

        if self.workers == 1:
            previous = _TRACE_DIR
            _set_trace_dir(self.trace_dir or previous)
            try:
                for trial in todo:
                    if token is not None:
                        token.check(trials_done=done)
                    failures = 0
                    while True:
                        try:
                            result = self.trial_fn(trial)
                        except Exception as exc:  # noqa: BLE001
                            failures += 1
                            if failures >= budget:
                                done += 1
                                quarantined.append(
                                    self._quarantine(trial, exc, failures)
                                )
                                break
                            retries += 1
                            time.sleep(self._retry_delay(failures))
                            continue
                        done += 1
                        record(trial, result, done)
                        break
            finally:
                _set_trace_dir(previous)
            return out, quarantined, retries

        # Parallel execution, crash-tolerant.  Optimistic pass: fan the
        # whole batch over one pool.  If a worker process dies the pool
        # is broken and attribution is impossible (every outstanding
        # future raises BrokenProcessPool regardless of guilt) — so the
        # survivors move to a careful isolation pass, one fresh
        # single-worker pool per trial, where a crash is unambiguous.
        # Only solo crashes and in-worker exceptions charge a trial's
        # retry budget; being collateral of someone else's crash never
        # quarantines an innocent trial.
        failures: Dict[str, int] = {t.key(): 0 for t in todo}
        last_error: Dict[str, BaseException] = {}
        pending: List[TrialSpec] = list(todo)
        while pending:
            if token is not None:
                token.check(trials_done=done)
            batch = pending
            pending = []
            broke = False
            settled: set = set()
            with ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(self.trace_dir,),
            ) as pool:
                futures = {}
                try:
                    for trial in batch:
                        futures[pool.submit(self.trial_fn, trial)] = trial
                except BrokenProcessPool:
                    # A worker died while the batch was still being
                    # submitted: the trials not submitted yet are
                    # unsettled like every outstanding one.
                    broke = True
                for future in as_completed(futures):
                    trial = futures[future]
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        broke = True
                        break  # every outstanding future is doomed too
                    except Exception as exc:  # noqa: BLE001 - in-worker error
                        settled.add(trial.key())
                        failures[trial.key()] += 1
                        last_error[trial.key()] = exc
                        if failures[trial.key()] >= budget:
                            done += 1
                            quarantined.append(
                                self._quarantine(
                                    trial, exc, failures[trial.key()]
                                )
                            )
                        else:
                            retries += 1
                            pending.append(trial)
                        continue
                    settled.add(trial.key())
                    done += 1
                    record(trial, result, done)
            if not broke:
                continue
            # Isolation pass over everything the broken pool left
            # unsettled.  Each run here is a re-execution (the trial was
            # already submitted once), hence counts as a retry.
            unsettled = [t for t in batch if t.key() not in settled]
            logger.warning(
                "worker pool broke; isolating %d unsettled trials",
                len(unsettled),
            )
            for trial in unsettled:
                if token is not None:
                    token.check(trials_done=done)
                retries += 1
                try:
                    with ProcessPoolExecutor(
                        max_workers=1,
                        initializer=_init_worker,
                        initargs=(self.trace_dir,),
                    ) as solo:
                        result = solo.submit(self.trial_fn, trial).result()
                except Exception as exc:  # noqa: BLE001 - incl. BrokenProcessPool
                    failures[trial.key()] += 1
                    last_error[trial.key()] = exc
                    if failures[trial.key()] >= budget:
                        done += 1
                        quarantined.append(
                            self._quarantine(trial, exc, failures[trial.key()])
                        )
                    else:
                        time.sleep(self._retry_delay(failures[trial.key()]))
                        pending.append(trial)
                    continue
                done += 1
                record(trial, result, done)
        return out, quarantined, retries


def run_campaign(
    campaign: CampaignSpec,
    store: Optional[ResultStore] = None,
    workers: int = 1,
    resume: bool = True,
    progress: Optional[ProgressFn] = None,
    token: Optional[CancellationToken] = None,
) -> CampaignReport:
    """Convenience wrapper: ``CampaignRunner(store, workers).run(...)``."""
    return CampaignRunner(store=store, workers=workers).run(
        campaign, resume=resume, progress=progress, token=token
    )
