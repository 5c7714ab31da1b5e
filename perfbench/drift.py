"""Frozen reference kernel and drift correction.

On a small shared machine the speed of a core drifts on a scale of
seconds, so raw wall-clock seconds of identical work differ by 10-40%
between processes.  Every gated time of this benchmark is therefore
reported *drift-corrected*: the frozen kernel below runs in the same
process as the timed work, interleaved with it, and each time is
scaled by ``nominal / median(measured kernel times)`` over the pass.

The kernel imports nothing from ``repro`` and must never change: the
nominal time in ``perfbench/spec.json`` is calibrated against it, and a
different kernel would silently rescale every corrected metric.
"""

from __future__ import annotations

import gc
import http.client
import json
import statistics
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List

#: Kernel samples within this many seconds of an operation correct it.
WINDOW_S = 2.5
#: The same for :class:`HttpKernel` samples, taken between daemon
#: segments: over eighteen seeds of daemon_mix a 1 s window left the
#: corrected warm median a spread of 0.046 of its median, 2.5 s 0.065.
HTTP_WINDOW_S = 1.0


def reference_kernel() -> float:
    """Run the frozen dict/set/tuple/sort kernel once; return its seconds.

    Garbage left by the timed work is collected first (untimed) and the
    collector is paused while the kernel runs, so the kernel measures
    interpreter speed rather than the size of someone else's heap.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(12000):
            table[(i * 7919) % 10007, i & 15] = i
        seen = set()
        for (a, b), v in table.items():
            seen.add((a ^ v ^ b) & 4095)
        ordered = sorted(table.items(), key=lambda kv: (kv[1] ^ kv[0][0], kv[0][1]))
        chains = {}
        for (a, b), v in ordered[:6000]:
            chains.setdefault(b, []).append(a + v)
        total = sum(len(c) for c in chains.values()) + len(seen)
        elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    if total <= 0:  # keeps the work observable; never true
        raise AssertionError("reference kernel lost its work")
    return elapsed


class _EchoHandler(BaseHTTPRequestHandler):
    """Answers like a job daemon: a small JSON snapshot per request."""

    protocol_version = "HTTP/1.1"

    def log_message(self, *args) -> None:
        pass

    def _send(self, doc: dict) -> None:
        body = json.dumps(doc).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        length = int(self.headers.get("Content-Length", 0))
        spec = json.loads(self.rfile.read(length))
        self._send({"id": "0" * 16, "state": "queued", "spec": spec})

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        self._send({"id": self.path.split("/")[2], "state": "done",
                    "result": {"rounds": 40, "cached": True, "members": list(range(60))}})


class HttpKernel:
    """Frozen stdlib HTTP kernel: the warm daemon request's kind of work.

    A warm daemon request is almost all HTTP machinery: two loopback
    connections, a handler thread each, small JSON bodies.  That work
    does not follow the dict/set/sort kernel when the machine changes
    speed (its share of system time is several times larger), so the
    daemon's store-served requests are corrected by this kernel
    instead.  It is built only from the standard library, so a change
    to the program's own service code moves the corrected times and
    never the kernel.  Like :func:`reference_kernel` it must never
    change: ``nominal_http_kernel_s`` in ``perfbench/spec.json`` is
    calibrated against it.  :meth:`close` stops its server thread.
    """

    EXCHANGES = 8

    def __init__(self):
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _EchoHandler)
        self.server.daemon_threads = False  # server_close() joins every handler
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.05})
        self.thread.start()

    def __call__(self) -> float:
        """POST a job spec, then GET its result, each on a fresh connection."""
        port = self.server.server_address[1]
        start = time.perf_counter()
        for i in range(self.EXCHANGES):
            spec = {"request": {"kind": "solve", "shape": "random:200:1", "k": 1,
                                "l": 5, "seed": i}}
            for method, path, body in (("POST", "/jobs", spec),
                                       ("GET", f"/jobs/{i:016x}/result", None)):
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                try:
                    payload = json.dumps(body).encode("utf-8") if body else None
                    headers = {"Content-Type": "application/json"} if payload else {}
                    conn.request(method, path, body=payload, headers=headers)
                    reply = json.loads(conn.getresponse().read())
                finally:
                    conn.close()
                if reply.get("state") not in ("queued", "done"):
                    raise AssertionError("HTTP kernel lost its work")
        return time.perf_counter() - start

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()


def iqr_frac(values: List[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class DriftMeter:
    """Kernel samples taken between the timed operations of one pass.

    Each operation is corrected by the kernel samples taken within
    ``WINDOW_S`` of it (at least the three nearest): the speed of a core
    drifts within a pass too, and on paired runs of one seed a window of
    a few seconds halved the spread left by a single pass-wide factor.
    A factor equals 1.0 when the machine runs the kernel at its nominal
    speed, exceeds 1.0 when the core is fast (raw times are scaled up)
    and is below 1.0 when it is slow.
    """

    def __init__(self, nominal_s: float,
                 kernel: Callable[[], float] = reference_kernel,
                 window_s: float = WINDOW_S):
        if nominal_s <= 0:
            raise ValueError(f"nominal kernel time must be positive, got {nominal_s}")
        self.nominal_s = nominal_s
        self.kernel = kernel
        self.window_s = window_s
        self.samples: List[float] = []
        self.times: List[float] = []
        self.raw_s = 0.0
        self.corrected_s = 0.0

    def sample(self) -> float:
        """Run the kernel once and record its time and when it ran."""
        self.times.append(time.perf_counter())
        elapsed = self.kernel()
        self.samples.append(elapsed)
        return elapsed

    def factor_at(self, start: float, end: float) -> float:
        """Scale for an operation that ran from ``start`` to ``end``."""
        if not self.samples:
            raise RuntimeError("no kernel samples taken")
        lo, hi = start - self.window_s, end + self.window_s
        near = [k for t, k in zip(self.times, self.samples) if lo <= t <= hi]
        if len(near) < 3:
            mid = (start + end) / 2
            ranked = sorted(zip(self.times, self.samples), key=lambda tk: abs(tk[0] - mid))
            near = [k for _, k in ranked[:3]]
        return self.nominal_s / statistics.median(near)

    def correct(self, start: float, end: float) -> float:
        """Seconds the operation would have taken at nominal speed."""
        raw = end - start
        corrected = raw * self.factor_at(start, end)
        self.raw_s += raw
        self.corrected_s += corrected
        return corrected

    def factor(self) -> float:
        """Effective factor over everything corrected so far (else pass-wide)."""
        if self.raw_s > 0:
            return self.corrected_s / self.raw_s
        return self.nominal_s / statistics.median(self.samples)

    def summary(self) -> Dict[str, float]:
        """Kernel median, spread and the effective drift factor."""
        return {
            "kernel_median_s": statistics.median(self.samples),
            "kernel_iqr_frac": iqr_frac(self.samples),
            "kernel_samples": len(self.samples),
            "nominal_s": self.nominal_s,
            "factor": self.factor(),
        }
