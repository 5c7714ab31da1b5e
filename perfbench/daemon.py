"""daemon_mix: an in-process daemon serving two closed-loop clients.

``repro.service.serve(port=0, workers=2)`` runs in this process, so the
reference kernel measures the core the daemon runs on.  The plan is
served in passes, each by a fresh daemon, so its cold keys are cold
again and a run collects a multiple of one daemon's samples.  In each
pass the warm key set is solved first (untimed), then two
``ServiceClient`` threads each walk their seeded op sequence, waiting
for every reply before sending the next request.  The sequences are cut into segments (see
:class:`plan.MixPlan`): in a cold segment both connections run at once,
so cold jobs queue behind each other on the GIL-bound workers; in a
warm segment the connections take turns, so warm latency is the warm
path itself (HTTP, jobs, store) rather than thread-scheduling contention
between two clients on a two-core machine, which moved its median by
20% between runs.  Between segments both clients are idle and the
kernel runs.

The whole workload runs pinned to one CPU.  Every warm request hands
the interpreter between the client, accept, handler and worker threads
several times; spread over two shared cores, those hand-offs waited on
whatever else ran on the second core (a busy-loop there raised the
corrected warm median by 5-20%), which the reference kernel, one
thread on one core, cannot see.  On one core the threads hand off
locally and the kernels measure the core they all run on.

Store-served requests are corrected by :class:`drift.HttpKernel`, a
frozen stdlib HTTP exchange, rather than by the dict/set/sort kernel:
a warm request is HTTP machinery with a quarter of its time in the
system, and when the machine changes speed it does not follow the
pure-interpreter kernel (over eighteen seeds of the pinned workload
its corrected median spread 0.077 of its median by that kernel and
0.046 by the HTTP kernel).  Cold solves are interpreter work and keep the
reference kernel.  Both kernels run between segments.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import threading
import time
from collections import defaultdict
from contextlib import nullcontext
from typing import Dict, List

from drift import HTTP_WINDOW_S, DriftMeter, HttpKernel
from measure import (
    Outcome,
    counter_delta,
    counters,
    instrument_store,
    peak_rss_mb,
    section_rounds,
)

#: Cold solves re-solved in-process and checked with check_forest.
COLD_FOREST_CHECKS = 4


def _client_loop(client, ops, results, tracer, where):
    """Closed loop: submit, block for the result, then send the next one."""
    from repro.service import JobSpec, ServiceError

    for i, op in enumerate(ops):
        spec = JobSpec(request=op.request())
        span = (tracer.span("bench.request",
                            request_id=".".join(str(part) for part in (*where, i)))
                if tracer else None)
        start = time.perf_counter()
        try:
            with span or nullcontext():
                job_id = client.submit(spec)["id"]
                if span is not None:
                    span.set(job_id=job_id)  # links to the job's own spans
                body = client.result(job_id)
            status = None if body.get("state") == "done" else body.get("state")
        except ServiceError as exc:
            job_id, body, status = None, None, exc.status
        results.append((op, start, time.perf_counter(), job_id, body, status))


def run(plan, meter, checker, http_nominal_s: float, trace: bool = False) -> Outcome:
    """Serve ``plan`` (see :func:`plan.daemon_mix`) from an in-process daemon.

    ``meter`` corrects the cold solves; store-served requests are
    corrected by an :class:`~drift.HttpKernel` meter calibrated to
    ``http_nominal_s``.  This thread, and so every thread it starts, is
    pinned to one CPU while the workload runs (see the module docstring).
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    kernel = None
    try:
        kernel = HttpKernel()
        http = DriftMeter(http_nominal_s, kernel=kernel, window_s=HTTP_WINDOW_S)
        return _serve(plan, meter, http, checker, trace)
    finally:
        if kernel is not None:
            kernel.close()
        os.sched_setaffinity(0, cpus)


def _serve(plan, meter, http, checker, trace: bool) -> Outcome:
    out = Outcome()
    layers: Dict[str, float] = defaultdict(float)
    tracer = None
    if trace:
        from repro.obs import Tracer

        tracer = Tracer()
    results: List[tuple] = []
    segments: List[tuple] = []
    traces: Dict[str, list] = {}
    end_stats: dict = {}
    for index, pass_segments in enumerate(plan.passes):
        end_stats = _serve_pass(plan.warm, pass_segments, index, meter, http, checker,
                                tracer, out, layers, results, segments, traces)
        if index == 0:
            # One daemon's peak: the next pass's daemon reuses this one's
            # freed, fragmented heap and added 13-45 MiB at random.
            out.peak_rss_mb = peak_rss_mb()
    _account(plan, results, segments, meter, http, checker, out, layers)
    if trace:
        from spans import layer_times

        layers.update(layer_times(t or [] for t in traces.values()))
        states = end_stats.get("jobs", {})
        layers["service.jobs_retained"] = sum(
            v for k, v in states.items() if k not in ("queued", "running"))
        out.diagnostics["spans"] = {
            "client": tracer.records(),
            **{f"job:{key}": t or [] for key, t in traces.items()},
        }
    out.layers = dict(layers)
    return out


def _serve_pass(warm, pass_segments, index, meter, http, checker, tracer, out,
                layers, results, segments, traces) -> dict:
    """Serve one pass from a fresh daemon; returns its final ``/stats``.

    The warm set is pre-solved (untimed) and, on the first pass,
    checked: the daemon's record against its pin and an in-process
    re-solve with check_forest.  Results, segments, counter deltas and
    job traces accumulate into the caller's collections.
    """
    from repro.api import Session
    from repro.service import JobSpec, ServiceClient, serve

    # Free the previous pass's daemon first, so the peak resident size
    # is one daemon's, not two half-collected ones.
    gc.collect()
    server = serve(port=0, workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    service = server.service
    clients = [ServiceClient("127.0.0.1", port, timeout=120) for _ in pass_segments[0]]
    warm_set = set(warm)
    first = len(results)
    try:
        for op in warm:
            result = clients[0].run(JobSpec(request=op.request())).get("result") or {}
            checker.record(op.pin_id, result)
            if index == 0:
                out.rounds_total += result.get("rounds", 0)
                out.rounds_pinned += checker.pins.get(op.pin_id, {}).get("rounds", -1)
                checker.report(op.pin_id, Session().run(op.request()))
        if tracer is not None:
            instrument_store(service.store, layers, "api.store_get_s", "api.store_add_s")
        stats0 = dict(service.session.stats.to_dict())
        counters0 = counters()
        seen = {"warm": 0, "cold": 0}
        meter.sample()
        http.sample()
        for seg, per_client_ops in enumerate(pass_segments):
            kind = "cold" if per_client_ops[0][0] not in warm_set else "warm"
            # Traced runs trace every other segment of each kind: the
            # untraced ones are the overhead baseline on the same mix.
            traced = tracer is not None and seen[kind] % 2 == 0
            seen[kind] += 1
            per_client: List[List[tuple]] = [[] for _ in clients]
            threads = [
                threading.Thread(target=_client_loop, args=(
                    client, ops, per_client[c], tracer if traced else None,
                    (index, seg, c)))
                for c, (client, ops) in enumerate(zip(clients, per_client_ops))
            ]
            start = time.perf_counter()
            if kind == "warm":
                for t in threads:
                    t.start()
                    t.join()
            else:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            segments.append((kind, start, time.perf_counter()))
            for rows in per_client:
                results.extend((traced,) + row for row in rows)
            meter.sample()
            http.sample()
        for name, value in counter_delta(counters0, counters()).items():
            layers[name] += value
        stats1 = service.session.stats.to_dict()
        layers["api.requests"] += stats1["requests"] - stats0["requests"]
        layers["api.cache_hits"] += stats1["cache_hits"] - stats0["cache_hits"]
        if tracer is not None:
            # Job ids are content hashes, so every pass reuses them.
            traces.update((f"{index}:{job_id}", service.job(job_id).trace)
                          for _, _, _, _, job_id, _, _ in results[first:] if job_id)
        return clients[0].stats()
    finally:
        service.shutdown(wait=True)
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)


def _account(plan, results, segments, meter, http, checker, out, layers) -> None:
    """Check every reply against its pin and turn replies into metrics."""
    from repro.api import Session

    warm_ids = {op.pin_id for op in plan.warm}
    exec_s, overhead_s, traced_lat, plain_lat = [], [], [], []
    cold_checked = 0
    rng = random.Random(len(results))
    for traced, op, start, end, job_id, body, status in results:
        out.attempted += 1
        result = body.get("result") if body else None
        latency = end - start
        if status is not None or result is None:
            out.failed += 1
            checker.problems.append(f"{op.pin_id}: HTTP {status}")
            if status == 429:
                layers["service.shed"] += 1
            continue
        if not checker.record(op.pin_id, result):
            out.failed += 1
            continue
        corrected = (http if result.get("cached") else meter).correct(start, end)
        out.latencies.append((latency, corrected))
        (out.warm if result.get("cached") else out.cold).append((latency, corrected))
        if not result.get("cached"):
            for name, value in section_rounds(result.get("sections") or {}).items():
                layers[name] += value
        (traced_lat if traced else plain_lat).append(corrected)
        overhead_s.append(max(0.0, latency - body["elapsed_s"]))
        if not result.get("cached"):
            exec_s.append(body["elapsed_s"])
        if (not result.get("cached") and op.pin_id not in warm_ids
                and cold_checked < COLD_FOREST_CHECKS and rng.random() < 0.5):
            cold_checked += 1
            checker.report(op.pin_id, Session().run(op.request()))
    out.busy_raw_s = sum(end - start for _, start, end in segments)
    out.busy_s = sum((http if kind == "warm" else meter).correct(start, end)
                     for kind, start, end in segments)
    out.diagnostics["http_drift"] = http.summary()
    out.raw = {"segments_s": out.busy_raw_s, "segments": len(segments)}
    layers["service.exec_p50_s"] = statistics.median(exec_s) if exec_s else 0.0
    layers["service.overhead_p50_s"] = statistics.median(overhead_s) if overhead_s else 0.0
    layers["trace.overhead_frac"] = (
        statistics.median(traced_lat) / statistics.median(plain_lat) - 1.0
        if traced_lat and plain_lat else 0.0)
