"""Solver-daemon round-trip latency: cold versus warm-cache, over HTTP.

The service contract this pins down: a daemon holding one hot
:class:`~repro.api.Session` must (a) sustain concurrent clients on its
thread pool and (b) serve a repeat of an already-computed job from the
content-hash result store *much* faster than the first computation —
the CI smoke asserts the warm p50 is at least 5x below the cold p50.

Both passes drive the real HTTP surface (submit + blocking result
fetch from N concurrent client threads), so the measured latency
includes serialization, the socket, the queue, and the worker pool —
everything a user of ``repro serve`` actually experiences.

Run quick in CI via ``BENCH_QUICK=1`` (shrinks the instance).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List

QUICK = bool(os.environ.get("BENCH_QUICK"))
CLIENTS = 8
N = 60 if QUICK else 150
WORKERS = 4


def _pct(values: List[float], q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return round(ordered[index], 6)


def service_roundtrip(
    clients: int = CLIENTS, n: int = N, workers: int = WORKERS
) -> Dict[str, float]:
    """Measure cold and warm job latency through a live daemon.

    Starts an HTTP daemon on an ephemeral port, fires ``clients``
    concurrent client threads each submitting its own solve request
    (distinct seeds — every cold job is real work), then repeats the
    identical jobs for the warm pass.  Returns the latency distribution
    and the daemon-reported cache hit rate.
    """
    from repro.api import SolveRequest
    from repro.service import JobSpec, ServiceClient, serve

    server = serve(port=0, workers=workers)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient("127.0.0.1", server.server_address[1], timeout=300)
    requests = [
        SolveRequest(shape=f"random:{n}:{seed + 1}", k=1, l=3, seed=seed)
        for seed in range(clients)
    ]

    def drive(pass_latencies: List[float], index: int) -> None:
        start = time.perf_counter()
        result = client.run(JobSpec(request=requests[index]), timeout=300)
        elapsed = time.perf_counter() - start
        assert result["state"] == "done", result
        pass_latencies[index] = elapsed

    def one_pass() -> List[float]:
        latencies = [0.0] * clients
        threads = [
            threading.Thread(target=drive, args=(latencies, i))
            for i in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return latencies

    try:
        cold = one_pass()
        warm = one_pass()
        stats = client.stats()
    finally:
        server.service.shutdown(wait=True)
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)

    return {
        "clients": clients,
        "cold_p50_s": _pct(cold, 0.50),
        "cold_p99_s": _pct(cold, 0.99),
        "warm_p50_s": _pct(warm, 0.50),
        "warm_p99_s": _pct(warm, 0.99),
        "hit_rate": stats["session"]["hit_rate"],
        "speedup": round(_pct(cold, 0.50) / max(_pct(warm, 0.50), 1e-9), 1),
    }


# ----------------------------------------------------------------------
# pytest smoke (CI perf-smoke job)
# ----------------------------------------------------------------------


def test_service_sustains_concurrent_clients_with_cache_speedup():
    result = service_roundtrip()
    assert result["clients"] >= 8
    # Every warm job repeats a cold one, so the daemon must report half
    # its requests served from the store.
    assert result["hit_rate"] == 0.5
    # The acceptance bar: a warm-cache repeat is at least 5x cheaper
    # than the cold first submission of the same job.
    assert result["cold_p50_s"] >= 5 * result["warm_p50_s"], result
