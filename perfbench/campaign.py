"""churn_campaign: a seeded churn grid into a fresh JSONL store, then resume.

``CampaignRunner(workers=1)`` keeps every trial in this process, so the
reference kernel (run from the progress callback, between trials, and
excluded from every time) measures the core doing the work.  Each cycle
writes a fresh store; resume passes then reopen the store from disk and
serve the whole spec from it.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from collections import defaultdict
from typing import Dict, List

from measure import (
    Outcome,
    counter_delta,
    counters,
    instrument_store,
    peak_rss_mb,
)
from plan import trial_of

#: Resume passes per cycle (each reopens the store from its JSONL file).
RESUME_PASSES = 20
#: Trials per cycle replayed through the public dynamics API and
#: checked with check_forest.
REPLAYS = 2


class _Cycle:
    """One pass of the campaign into a fresh store, timed per trial."""

    def __init__(self, meter):
        self.meter = meter
        self.intervals: List[tuple] = []
        self.results: List[tuple] = []
        self.kernel_s = 0.0
        self._last = 0.0

    def progress(self, trial, result, done, total):
        now = time.perf_counter()
        self.intervals.append((self._last, now))
        self.results.append((trial, result))
        self.meter.sample()
        self._last = time.perf_counter()
        self.kernel_s += self._last - now

    def run(self, runner, spec, tracer=None):
        from repro.obs import use_tracer

        self._last = start = time.perf_counter()
        if tracer is None:
            report = runner.run(spec, progress=self.progress)
        else:
            with use_tracer(tracer):
                report = runner.run(spec, progress=self.progress)
        self.wall_s = time.perf_counter() - start - self.kernel_s
        return report


def _timed_trial(timers):
    """A trial executor that records each trial's compute time in a span."""
    from repro.experiments.runner import execute_trial
    from repro.obs import trace_span

    def trial_fn(trial):
        start = time.perf_counter()
        try:
            with trace_span("bench.trial", request_id=trial.key(), shape=trial.shape,
                            churn=trial.churn):
                return execute_trial(trial)
        finally:
            timers["trial_compute_s"] += time.perf_counter() - start

    return trial_fn


def run(spec, workdir, cycles, meter, checker, trace: bool = False) -> Outcome:
    """Run ``cycles`` fresh-store passes of ``spec`` plus resume passes."""
    from repro.experiments import CampaignRunner, ResultStore
    from repro.obs import Tracer

    out = Outcome()
    layers: Dict[str, float] = defaultdict(float)
    intervals: List[tuple] = []
    resumes: List[tuple] = []
    tracer = Tracer() if trace else None
    traced_s = untraced_s = 0.0
    rng = random.Random(spec.name)
    os.makedirs(workdir, exist_ok=True)
    _warm_up(workdir)
    meter.sample()
    try:
        for cycle in range(cycles):
            # Traced runs pair each untraced cycle with a traced one (same
            # spec, fresh store, order alternating): their ratio is the
            # tracing overhead.
            modes = ((False, True) if cycle % 2 == 0 else (True, False)) if trace else (False,)
            for traced in modes:
                path = os.path.join(workdir, f"cycle{cycle}-{int(traced)}.jsonl")
                timers = defaultdict(float)
                store = ResultStore(path)
                if traced:
                    instrument_store(store, timers, "get_s", "experiments.store_append_s")
                    runner = CampaignRunner(store=store, workers=1,
                                            trial_fn=_timed_trial(timers))
                    before = counters()
                else:
                    runner = CampaignRunner(store=store, workers=1)
                timed = _Cycle(meter)
                report = timed.run(runner, spec, tracer if traced else None)
                if report.executed != len(timed.results) or report.quarantined:
                    checker.problems.append(
                        f"cycle {cycle}: executed {report.executed} of "
                        f"{len(timed.results)}, quarantined {len(report.quarantined)}")
                _check_cycle(out, checker, timed.results, rng,
                             first=cycle == 0 and not traced)
                if traced:
                    traced_s += timed.wall_s
                    for name, value in counter_delta(before, counters()).items():
                        layers[name] += value
                    layers["experiments.store_append_s"] += timers[
                        "experiments.store_append_s"]
                    layers["experiments.overhead_s"] += (
                        timed.wall_s - timers["trial_compute_s"])
                    _record_layers(layers, timed.results)
                    continue
                untraced_s += timed.wall_s
                intervals.extend(timed.intervals)
                pins = {t.key(): trial_of(t).pin_id for t, _ in timed.results}
                resumes.extend(_resume(spec, path, pins, meter, checker, layers))
                meter.sample()
        out.peak_rss_mb = peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out.cold = [(end - start, meter.correct(start, end)) for start, end in intervals]
    out.latencies = list(out.cold)
    out.busy_raw_s = sum(raw for raw, _ in out.cold)
    out.busy_s = sum(corrected for _, corrected in out.cold)
    out.warm = [((end - start) / trials, meter.correct(start, end) / trials)
                for start, end, trials in resumes]
    out.raw = {"trials_s": out.busy_raw_s,
               "resume_s": sum(end - start for start, end, _ in resumes)}
    if trace:
        from spans import layer_times

        layers.update(layer_times([tracer.records()]))
        layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        out.diagnostics["spans"] = {"campaign": tracer.records()}
    out.layers = dict(layers)
    return out


def _warm_up(workdir) -> None:
    """One tiny untimed churn trial: lazy imports happen outside timing."""
    from repro.experiments import CampaignRunner, CampaignSpec, ResultStore, ScenarioSpec

    spec = CampaignSpec(name="warm-up", description="untimed", scenarios=(
        ScenarioSpec(name="warm-up", shape="random:30:1", ls=(2,), churn="growth",
                     churn_steps=1, churn_batch=1),))
    CampaignRunner(store=ResultStore(os.path.join(workdir, "warm-up.jsonl")),
                   workers=1).run(spec)


def _check_cycle(out, checker, results, rng, first: bool) -> None:
    """Pins for every trial; a seeded few replayed with check_forest."""
    replay = set(rng.sample(range(len(results)), min(REPLAYS, len(results))))
    for i, (spec, result) in enumerate(results):
        out.attempted += 1
        trial = trial_of(spec)
        record = result.to_dict()
        ok = checker.record(trial.pin_id, record)
        if first:
            out.rounds_total += result.rounds
            out.rounds_pinned += checker.pins.get(trial.pin_id, {}).get("rounds", -1)
        if i in replay:
            replayed = checker.replay_trial(trial, spec)
            if replayed is None or replayed["rounds"] != result.rounds or (
                    replayed["forest_members"] != result.forest_members):
                ok = checker.fail(f"{trial.pin_id}: replay disagrees with the runner")
        if not ok:
            out.failed += 1


def _record_layers(layers, results) -> None:
    for _, result in results:
        sections = result.sections or {}
        layers["dynamics.repair_rounds"] += sections.get("repair_rounds", 0)
        layers["dynamics.batches"] += sections.get("edit_batches", 0)
        layers["dynamics.patches"] += sections.get("repairs_patch", 0)
        layers["dynamics.dirty_nodes"] += sections.get("dirty_nodes", 0)
        layers["dynamics.batch_nodes"] += sections.get("edit_batches", 0) * result.n


def _resume(spec, path, pins, meter, checker, layers) -> List[tuple]:
    """Serve the whole spec from the JSONL store: (start, end, trials)."""
    from repro.experiments import CampaignRunner, ResultStore

    passes = []
    for _ in range(RESUME_PASSES):
        meter.sample()
        start = time.perf_counter()
        report = CampaignRunner(store=ResultStore(path), workers=1).run(spec)
        passes.append((start, time.perf_counter(), max(1, report.total)))
        layers["experiments.resume_trials"] += report.total
        layers["experiments.resume_hits"] += report.cache_hits
        if report.executed:
            checker.problems.append(f"resume executed {report.executed} trials")
        for result in report.results:
            checker.record(pins.get(result.key, result.key), result.to_dict())
    return passes
