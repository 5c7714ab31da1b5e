"""Shared measurement plumbing: latency summaries, counters, memory."""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Samples a tail percentile must have beyond it (see ``tail``).
TAIL_BEYOND = 10


def tail(values: List[float]) -> Tuple[float, float, int]:
    """Latency at the highest percentile with >= 10 samples beyond it.

    Returns ``(value, percentile, samples)``; with fewer than 11
    samples the maximum is returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def growth_exponent(points: List[Tuple[int, float]]) -> Optional[float]:
    """Least-squares slope of log(time) against log(n)."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return None
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def counters() -> Dict[str, int]:
    """Process-wide grid and layout counters (a snapshot)."""
    from repro.grid.compiled import GRID_STATS
    from repro.sim.circuits import LAYOUT_STATS

    return {
        "grid.full_builds": GRID_STATS.full_builds,
        "grid.derives": GRID_STATS.derives,
        "sim.layout_builds": LAYOUT_STATS.total_builds(),
        "sim.compiles": LAYOUT_STATS.compiles,
        "sim.beep_rounds": LAYOUT_STATS.total_rounds(),
        "sim.cache_hits": LAYOUT_STATS.cache_hits,
        "sim.cache_misses": LAYOUT_STATS.cache_misses,
    }


def counter_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {name: after[name] - before[name] for name in before}


#: Last-component tokens of ``SolveReport.sections`` names per paper layer.
SECTION_LAYERS = (
    ("rounds.pasc", ("pasc",)),
    ("rounds.ett", ("ett",)),
    ("rounds.portals", ("portal", "_rp")),
    ("rounds.spt", ("spt",)),
    ("rounds.forest", ("forest",)),
    ("rounds.merge", ("merge",)),
    ("rounds.propagate", ("propagate",)),
    ("rounds.decomposition", ("decomposition", "pdec")),
)


def section_rounds(sections: Dict[str, int]) -> Dict[str, int]:
    """Sum section counts per paper layer, matched on the last name part."""
    out = {name: 0 for name, _ in SECTION_LAYERS}
    for section, count in sections.items():
        last = section.rsplit(":", 1)[-1]
        for name, tokens in SECTION_LAYERS:
            if any(token in last for token in tokens):
                out[name] += count
    return out


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``.

    Latencies are ``(raw, drift-corrected)`` second pairs; ``busy_s``
    is the corrected time the primary operations took (the throughput
    denominator) and ``busy_raw_s`` its raw counterpart.
    """

    latencies: List[Tuple[float, float]] = field(default_factory=list)
    cold: List[Tuple[float, float]] = field(default_factory=list)
    warm: List[Tuple[float, float]] = field(default_factory=list)
    busy_s: float = 0.0
    busy_raw_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    rounds_total: int = 0
    rounds_pinned: int = 0
    peak_rss_mb: float = 0.0
    raw: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    diagnostics: Dict[str, object] = field(default_factory=dict)


def instrument_store(store, timers: Dict[str, float], get_name: str, add_name: str):
    """Time ``store.get`` / ``store.add`` on this one instance.

    Instance attributes shadow the methods, so other stores (and the
    class) are untouched; the timers accumulate seconds by name.
    """
    get, add = store.get, store.add

    def timed_get(key):
        start = time.perf_counter()
        try:
            return get(key)
        finally:
            timers[get_name] = timers.get(get_name, 0.0) + time.perf_counter() - start

    def timed_add(record):
        start = time.perf_counter()
        try:
            return add(record)
        finally:
            timers[add_name] = timers.get(add_name, 0.0) + time.perf_counter() - start

    store.get, store.add = timed_get, timed_add
    return store
