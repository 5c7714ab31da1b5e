"""solve_ladder: cold ``Session.run`` solves, one fresh session each.

This is what every ``repro solve`` invocation pays: structure build,
grid index, layouts, the paper's rounds.  Each rung runs once on each
backend.  Warm repeats on the same session give ``warm_p50_s``, which
the benchmark asks of every workload; they are timed apart from every
other metric here.  The reference kernel runs between solves (untimed).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import nullcontext
from typing import Dict, List

from measure import (
    Outcome,
    counter_delta,
    counters,
    growth_exponent,
    instrument_store,
    peak_rss_mb,
    section_rounds,
)


#: Warm repeats per cold solve (each one a warm_p50_s sample).
WARM_REPEATS = 5


def _solve(op, tracer=None, request_id=None, timers=None):
    """One cold solve, then warm repeats on the same session.

    Returns ``(cold, warms, report, repeats)``: ``cold`` and each entry
    of ``warms`` are ``(start, end)`` perf-counter pairs, ``repeats``
    the warm reports.
    """
    from repro.api import Session
    from repro.obs import use_tracer

    request = op.request()
    warms, repeats = [], []
    with use_tracer(tracer) if tracer is not None else nullcontext():
        with (tracer.span("bench.request", request_id=request_id, shape=op.shape,
                          k=op.k, l=op.l, backend=op.backend)
              if tracer is not None else nullcontext()):
            start = time.perf_counter()
            session = Session(backend=op.backend)
            if tracer is not None:
                instrument_store(session.store, timers, "api.store_get_s",
                                 "api.store_add_s")
            report = session.run(request)
            cold = (start, time.perf_counter())
        for _ in range(WARM_REPEATS):
            with (tracer.span("bench.request", request_id=request_id, warm=True)
                  if tracer is not None else nullcontext()):
                start = time.perf_counter()
                repeats.append(session.run(request))
                warms.append((start, time.perf_counter()))
    if tracer is not None:
        timers["api.requests"] = timers.get("api.requests", 0) + session.stats.requests
        timers["api.cache_hits"] = (timers.get("api.cache_hits", 0)
                                    + session.stats.cache_hits)
    return cold, warms, report, repeats


def _check(checker, op, solved) -> bool:
    """Pin and forest check of a cold solve, pin check of its repeats."""
    _, _, report, repeats = solved
    ok = checker.report(op.pin_id, report)
    for again in repeats:
        if not again.cached:
            ok = checker.fail(f"{op.pin_id}: warm repeat was not store-served")
        ok = checker.record(op.pin_id, again.to_dict()) and ok
    return ok


def run(ops, meter, checker, trace: bool = False) -> Outcome:
    """Run one pass over ``ops`` (see :func:`plan.ladder_ops`)."""
    from repro.api import Session, SolveRequest
    from repro.obs import Tracer

    for backend in ("python", "numpy"):  # lazy imports, untimed
        Session(backend=backend).run(SolveRequest(shape="hexagon:3", k=2, l=3))
    out = Outcome()
    colds: List[tuple] = []
    warm_times: List[tuple] = []
    per_family = defaultdict(list)
    layers: Dict[str, float] = defaultdict(float)
    tracer = Tracer() if trace else None
    traced_s = untraced_s = 0.0
    meter.sample()
    for i, op in enumerate(ops):
        out.attempted += 1
        if trace:
            # The same solve untraced and traced, adjacent in time and
            # in alternating order: their ratio is the tracing overhead.
            plain = _solve(op) if i % 2 else None
            before = counters()
            traced = _solve(op, tracer, i, layers)
            for name, value in counter_delta(before, counters()).items():
                layers[name] += value
            plain = plain or _solve(op)
            untraced_s += plain[0][1] - plain[0][0]
            traced_s += traced[0][1] - traced[0][0]
            ok = _check(checker, op, plain)
            solved = traced
        else:
            ok = True
            solved = _solve(op)
        ok = _check(checker, op, solved) and ok
        cold, warms, report, _ = solved
        if not ok:
            out.failed += 1
        colds.append(cold)
        warm_times.extend(warms)
        out.rounds_total += report.rounds
        out.rounds_pinned += checker.pins.get(op.pin_id, {}).get("rounds", -1)
        if op.k == 1 and op.l:
            per_family[op.family].append((report.n, cold[1] - cold[0]))
        for name, value in section_rounds(report.sections).items():
            layers[name] += value
        meter.sample()
    out.peak_rss_mb = peak_rss_mb()
    out.cold = [(end - start, meter.correct(start, end)) for start, end in colds]
    out.latencies = list(out.cold)
    out.busy_raw_s = sum(raw for raw, _ in out.cold)
    out.busy_s = sum(corrected for _, corrected in out.cold)
    out.warm = [(end - start, meter.correct(start, end)) for start, end in warm_times]
    out.raw = {"cold_sum_s": out.busy_raw_s,
               "warm_sum_s": sum(raw for raw, _ in out.warm)}
    out.diagnostics["growth_exponent"] = {
        family: round(growth_exponent(points) or 0.0, 3)
        for family, points in sorted(per_family.items())
    }
    if trace:
        from spans import layer_times

        layers.update(layer_times([tracer.records()]))
        layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        out.diagnostics["spans"] = {"ladder": tracer.records()}
    out.layers = dict(layers)
    return out
