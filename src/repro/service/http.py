"""HTTP surface of the solver daemon (stdlib ``http.server`` only).

A deliberately small JSON-over-HTTP API on a
:class:`~http.server.ThreadingHTTPServer` — one OS thread per in-flight
request, which is exactly right for a daemon whose requests either
return instantly (status, cached results) or block streaming a running
job.  No routing framework, no dependencies.

Endpoints::

    GET  /healthz                  {"ok": ..., "status": ok|degraded|overloaded}
    GET  /stats                    service + cache counters, latencies
    GET  /metrics                  Prometheus text exposition (0.0.4)
    GET  /jobs                     snapshots of every known job
    GET  /jobs/<id>                one job's snapshot
    GET  /jobs/<id>/result?timeout=S   block for the result (408 + state
                                   and queue position on timeout)
    GET  /jobs/<id>/stream         chunked JSONL progress events
    GET  /jobs/<id>/trace          the job's span records (JSON)
    POST /jobs                     submit a JobSpec body -> 202 + snapshot
                                   (429 + Retry-After when shedding load)
    POST /shutdown                 graceful stop (finishes in-flight jobs)

The stream endpoint writes one JSON object per line with
``Transfer-Encoding: chunked`` (hand-rolled — ``http.server`` does not
chunk for us), so clients see rounds as they happen without framing
ambiguity.
"""

from __future__ import annotations

import json
import logging
import selectors
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.api import RequestError
from repro.service.daemon import ServiceClosed, ServiceOverloaded, SolverService
from repro.service.jobs import JobSpec

logger = logging.getLogger("repro.service.http")

#: Prometheus text exposition format content type (version 0.0.4).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`SolverService`."""

    daemon_threads = True
    # The stdlib default listen backlog (5) makes a burst of concurrent
    # clients hit SYN retransmits (~1s latency spikes); a daemon built
    # for N simultaneous submitters needs headroom.
    request_queue_size = 128

    def __init__(self, address: Tuple[str, int], service: SolverService):
        super().__init__(address, _Handler)
        self.service = service

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Serve until shutdown, then answer the requests already queued.

        socketserver's loop checks its stop flag before it accepts a
        connection that ``select`` found ready, so a request queued as
        the loop stops (a second concurrent ``POST /shutdown``, say)
        would sit in the listen backlog unanswered until its client
        times out.  Once the loop exits, the connections already in the
        backlog are accepted and handled as usual (at most the backlog
        size of them, so new arrivals cannot keep the loop alive).
        """
        super().serve_forever(poll_interval)
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                for _ in range(self.request_queue_size):
                    if not selector.select(0):
                        break
                    self._handle_request_noblock()
        except (OSError, ValueError):
            pass  # server_close() ran meanwhile: no backlog is left

    def shutdown_service(self) -> dict:
        """Stop the worker pool, then the HTTP loop (idempotent)."""
        summary = self.service.shutdown(wait=True)
        # shutdown() blocks until the serve_forever loop exits, so it
        # must never run on a handler thread — callers spawn a thread.
        self.shutdown()
        return summary


class _Handler(BaseHTTPRequestHandler):
    # Chunked transfer encoding requires HTTP/1.1; it also gives every
    # non-streaming response keep-alive for free.
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> SolverService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        # Routed through the repro logger at debug level: silent unless
        # ``repro serve --log-level debug`` (or a test) configures it.
        logger.debug("%s %s", self.address_string(), format % args)

    # -- plumbing -------------------------------------------------------
    def _send_json(
        self, status: int, payload: dict, headers: Optional[dict] = None
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise RequestError("empty request body")
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise RequestError(f"invalid JSON body: {exc}") from exc
        if not isinstance(data, dict):
            raise RequestError("request body must be a JSON object")
        return data

    # -- GET ------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["healthz"]:
                self._send_json(200, self.service.health())
            elif parts == ["stats"]:
                self._send_json(200, self.service.stats())
            elif parts == ["metrics"]:
                self._send_metrics()
            elif parts == ["jobs"]:
                self._send_json(200, {"jobs": self.service.jobs()})
            elif len(parts) == 2 and parts[0] == "jobs":
                self._send_json(200, self.service.job(parts[1]).snapshot())
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
                self._get_result(parts[1], url.query)
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "stream":
                self._stream(parts[1])
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "trace":
                self._get_trace(parts[1])
            else:
                self._error(404, f"no such endpoint: {url.path}")
        except KeyError:
            self._error(404, f"no such job: {parts[1]}")
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away mid-stream; nothing to clean up

    def _send_metrics(self) -> None:
        body = self.service.metrics.render_prometheus().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _get_trace(self, job_id: str) -> None:
        job = self.service.job(job_id)
        if job.trace is None:
            self._error(409, f"job {job_id} has no trace yet ({job.state})")
            return
        self._send_json(
            200, {"id": job.id, "state": job.state, "spans": job.trace}
        )

    def _get_result(self, job_id: str, query: str) -> None:
        params = parse_qs(query)
        timeout: Optional[float] = None
        if "timeout" in params:
            try:
                timeout = float(params["timeout"][0])
            except ValueError:
                self._error(400, "timeout must be a number")
                return
        job = self.service.job(job_id)
        job.finished.wait(timeout=timeout)
        if not job.finished.is_set():
            # Enough context to decide whether to keep waiting: current
            # state plus how many queued jobs are still ahead.
            self._send_json(
                408,
                {
                    "error": f"job {job_id} still {job.state}",
                    "id": job.id,
                    "state": job.state,
                    "queue_position": self.service.queue_position(job_id),
                },
            )
            return
        payload = job.snapshot()
        payload["result"] = job.result
        self._send_json(200, payload)

    def _stream(self, job_id: str) -> None:
        job = self.service.job(job_id)
        self.send_response(200)
        self.send_header("Content-Type", "application/jsonl")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

        def chunk(data: bytes) -> None:
            self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
            self.wfile.write(data)
            self.wfile.write(b"\r\n")
            self.wfile.flush()

        for event in job.events():
            chunk((json.dumps(event, sort_keys=True) + "\n").encode("utf-8"))
        final = {"event": "end", "id": job.id, "state": job.state}
        chunk((json.dumps(final, sort_keys=True) + "\n").encode("utf-8"))
        self.wfile.write(b"0\r\n\r\n")
        self.wfile.flush()

    # -- POST -----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if parts == ["jobs"]:
            try:
                spec = JobSpec.from_dict(self._read_body())
                job = self.service.submit(spec)
            except RequestError as exc:
                self._error(400, str(exc))
            except ServiceOverloaded as exc:
                payload = exc.job.snapshot()
                payload["error"] = str(exc)
                payload["retry_after_s"] = exc.retry_after_s
                self._send_json(
                    429, payload, headers={"Retry-After": exc.retry_after_s}
                )
            except ServiceClosed as exc:
                self._error(503, str(exc))
            else:
                self._send_json(202, job.snapshot())
        elif parts == ["shutdown"]:
            # Close the service and cancel its queue before answering, so
            # no worker freed after the reply dequeues a queued job.
            self.service.shutdown(wait=False)
            self._send_json(200, {"ok": True, "shutting_down": True})
            # Then join the workers and stop the HTTP loop off this
            # thread: shutdown_service() joins the serve_forever loop
            # and would deadlock run here.
            threading.Thread(
                target=self.server.shutdown_service,  # type: ignore[attr-defined]
                daemon=True,
            ).start()
        else:
            self._error(404, f"no such endpoint: {url.path}")


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    service: Optional[SolverService] = None,
    **service_kw,
) -> ServiceHTTPServer:
    """Build a bound (not yet serving) daemon server.

    ``port=0`` binds an ephemeral port (see ``server_address[1]``) —
    what tests and the CI smoke use.  The caller owns the serve loop::

        server = serve(port=8100, workers=4, store="results.jsonl")
        try:
            server.serve_forever()
        finally:
            server.shutdown_service()
    """
    if service is None:
        service = SolverService(**service_kw)
    elif service_kw:
        raise TypeError("pass either a service or service kwargs, not both")
    return ServiceHTTPServer((host, port), service)
