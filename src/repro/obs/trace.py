"""Nested span tracing with a zero-cost disabled path.

A :class:`Tracer` collects finished spans as JSON-ready dicts; library
code never holds a tracer — it calls :func:`trace_span`, which resolves
the *active* tracer from a thread-local and returns a shared no-op span
when none is installed.  Activation is explicit and scoped::

    tracer = Tracer()
    with use_tracer(tracer):
        session.run(request)          # instrumented paths record spans
    tracer.dump("t.jsonl")            # one span per line
    # later: `repro trace t.jsonl` renders the flamegraph

Design constraints (the ISSUE's "compiled out when disabled" rule):

* When no tracer is active, :func:`trace_span` costs one thread-local
  attribute read plus building the keyword dict — it is therefore only
  called at *phase* granularity (build, grid index, compile, rounds,
  repair, store), never inside the per-round hot loop.  Per-round
  spans exist but are opt-in: ``Tracer(trace_rounds=True)`` makes
  :meth:`repro.sim.engine.CircuitEngine.enable_round_tracing` set that
  one engine's ``trace_rounds`` flag, which the round kernel reads;
  every untraced engine skips the span stage entirely.
* The activation is *per thread* (the daemon traces concurrent jobs on
  separate worker threads), and one tracer may be activated on several
  threads at once (campaign workers): span stacks are thread-local
  inside the tracer and the record buffer is lock-protected.

Span records carry ``id`` / ``parent`` / ``depth`` for tree
reconstruction, ``start_s`` relative to the tracer's epoch, ``dur_s``,
and an optional ``attrs`` mapping (n, backend, scheduler, cache
hit/miss counts, ...).
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class _NoopSpan:
    """The shared do-nothing span returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        """Discard attributes (the no-op counterpart of :meth:`Span.set`)."""


#: Module-wide no-op singleton; ``trace_span() is NOOP_SPAN`` when off.
NOOP_SPAN = _NoopSpan()


class Span:
    """One live (entered, not yet exited) span of an active tracer.

    Use as a context manager; :meth:`set` attaches attributes at any
    point before exit.  The finished span is appended to the owning
    tracer's record buffer on ``__exit__`` (exceptions are recorded as
    an ``error`` attribute and re-raised).
    """

    __slots__ = ("_tracer", "name", "attrs", "id", "parent", "depth", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.id: Optional[int] = None
        self.parent: Optional[int] = None
        self.depth = 0

    def set(self, **attrs) -> None:
        """Attach (or overwrite) span attributes."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack = tracer._stack()
        if stack:
            self.parent = stack[-1].id
            self.depth = len(stack)
        self.id = tracer._allocate_id()
        stack.append(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.perf_counter()
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        record: Dict[str, object] = {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "depth": self.depth,
            "start_s": round(self._t0 - tracer.epoch, 6),
            "dur_s": round(t1 - self._t0, 6),
        }
        if self.attrs:
            record["attrs"] = self.attrs
        tracer._append(record)
        return False


class Tracer:
    """Collects nested timed spans as JSON-ready dicts.

    Parameters
    ----------
    trace_rounds:
        Opt-in per-round spans: when a session sees an active tracer
        with this flag it calls ``engine.enable_round_tracing()`` on the
        engines it builds (the ``--trace-rounds`` CLI flag).  Default
        off — the round loop stays untouched.
    """

    def __init__(self, trace_rounds: bool = False):
        self.trace_rounds = trace_rounds
        #: perf_counter origin; span ``start_s`` values are relative.
        self.epoch = time.perf_counter()
        self._records: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    # -- internals used by Span ----------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _allocate_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _append(self, record: dict) -> None:
        with self._lock:
            self._records.append(record)

    # -- public API -----------------------------------------------------
    def span(self, name: str, **attrs) -> Span:
        """A new span context manager under the current thread's stack."""
        return Span(self, name, attrs)

    def records(self) -> List[dict]:
        """Snapshot of every finished span (completion order)."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def dump(
        self,
        path: os.PathLike,
        append: bool = False,
        extra: Optional[Dict[str, object]] = None,
    ) -> int:
        """Write the finished spans as JSONL; returns the span count.

        ``append`` opens the file in append mode (the campaign runner
        spools one file per worker process); ``extra`` merges constant
        top-level keys into every record (e.g. the trial key).
        """
        records = self.records()
        if extra:
            records = [{**record, **extra} for record in records]
        mode = "a" if append else "w"
        with open(path, mode, encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)


_ACTIVE = threading.local()


def current_tracer() -> Optional[Tracer]:
    """The tracer activated on this thread (``None`` when tracing is off)."""
    return getattr(_ACTIVE, "tracer", None)


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Activate ``tracer`` on the current thread for the ``with`` body.

    Nestable: the previous activation (usually none) is restored on
    exit, and an exception inside the body still deactivates cleanly.
    """
    previous = getattr(_ACTIVE, "tracer", None)
    _ACTIVE.tracer = tracer
    try:
        yield tracer
    finally:
        _ACTIVE.tracer = previous


def trace_span(name: str, **attrs):
    """A span on the active tracer — or the shared no-op when off.

    This is the one call sites use::

        with trace_span("compile", kind="full"):
            ...

    Disabled cost: one thread-local read (plus the ``attrs`` dict the
    caller built), which is why instrumentation stays at phase
    granularity.
    """
    tracer = getattr(_ACTIVE, "tracer", None)
    if tracer is None:
        return NOOP_SPAN
    return Span(tracer, name, attrs)


def load_trace(path: os.PathLike) -> List[dict]:
    """Parse a JSONL trace file back into span records.

    Blank lines are skipped; malformed lines raise ``ValueError`` with
    the offending line number.
    """
    records: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not a JSON span: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: span line must be an object")
            records.append(record)
    return records
