"""Unified facade: one request object, one session, every solver path.

Historically each entry point threaded its execution knobs through its
own kwargs — ``solve_spf(engine=, allow_holes=)``,
``DynamicSPF(engine=, threshold=, faults=)``, a global ``--backend``
flag on the CLI — so there was no single object a server could accept,
hash, queue, or replay.  The scheduler is not one of those kwargs:
it is a :class:`Session` setting.  This module is that object, in two halves:

* :class:`SolveRequest` — a frozen, JSON-round-trippable description of
  one piece of work (a solve, a token-routing run, or a churn/repair
  stream) whose identity is its content hash (:meth:`SolveRequest.key`,
  the same hashing as :meth:`~repro.experiments.spec.TrialSpec.key`).
  Requests are *data*: the CLI builds them from flags, the HTTP daemon
  parses them from POST bodies, tests construct them directly, and all
  three execute them identically.

* :class:`Session` — the owner of everything hot and reusable across
  requests: the default scheduler, a bounded structure cache (with
  warm :class:`~repro.grid.compiled.GridIndex` es), a shared
  :class:`~repro.sim.circuits.LayoutCache`, and a
  :class:`~repro.experiments.store.ResultStore` consulted by request
  key so identical requests are served from cache — in-process for a
  plain session, across daemon restarts when the store is backed by a
  JSONL file.

Quickstart::

    from repro.api import Session, SolveRequest

    session = Session()
    report = session.run(SolveRequest(shape="random:200:7", k=1, l=0))
    print(report.rounds, report.algorithm)
    again = session.run(SolveRequest(shape="random:200:7", k=1, l=0))
    assert again.cached  # served from the session's result store

Campaign trials are requests too: the experiment runner executes each
:class:`~repro.experiments.spec.TrialSpec` as ``trial.request()`` on a
worker session.  ``engine=`` on ``solve_spf``/``run_pasc`` stays
supported as the low-level composition hook the library itself uses.
"""

from __future__ import annotations

import logging
import random as _random
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.backend import check_backend
from repro.experiments.spec import (
    ALGORITHMS,
    ALL_NODES,
    PLACEMENTS,
    _check_scheduler,
    content_key,
)
from repro.experiments.store import ResultStore
from repro.grid.coords import Node
from repro.grid.structure import AmoebotStructure
from repro.obs.trace import current_tracer, trace_span
from repro.resilience import Cancelled, CancellationToken
from repro.sim.circuits import LAYOUT_STATS, LayoutCache
from repro.sim.engine import CircuitEngine
from repro.workloads.samplers import sample_sources_destinations, spread_nodes
from repro.workloads.specs import build_structure

#: Work kinds a request may describe (campaigns are a separate job kind
#: at the service layer — they are already declarative data).
REQUEST_KINDS = ("solve", "route", "churn")

#: Churn flavors (mirrors :data:`repro.dynamics.edits.CHURN_KINDS`,
#: duplicated as a literal so request validation never imports the
#: simulator).
_CHURN_KINDS = ("growth", "erosion", "tunnel", "block_move", "mixed")

#: Event callback for streaming progress (see :meth:`Session.run`).
EventFn = Callable[[Dict[str, object]], None]

logger = logging.getLogger("repro.api")


class RequestError(ValueError):
    """A :class:`SolveRequest` (or service job) description is malformed."""


@dataclass(frozen=True)
class SolveRequest:
    """One fully concrete, serializable unit of solver work.

    ``kind`` selects the pipeline:

    ``"solve"``
        Build ``shape``, pick ``k`` sources and ``l`` destinations
        (``l = 0`` means every node — the SSSP setting), run
        ``algorithm`` (``"auto"`` dispatches exactly like
        :func:`repro.solve_spf`).
    ``"route"``
        Solve, then route tokens along the forest
        (:func:`repro.motion.routing.route_tokens`); ``tokens > 0``
        seeds that many tokens on random forest members, otherwise one
        token starts on every destination.
    ``"churn"``
        Solve, then apply ``churn_steps`` batches of ``churn`` edits and
        repair incrementally (:class:`repro.dynamics.DynamicSPF`), with
        optional ``crash``/``drop`` fault injection.

    ``scheduler`` overrides the session default for this request only
    ("" = inherit).  ``backend`` is validated against
    :data:`repro.backend.BACKEND_NAMES` but selects nothing: one kernel
    set runs every request.  Identity is :meth:`key`, the content hash
    of :meth:`config` — two requests with equal configs are the same
    work, which is what the result store caches on.
    """

    kind: str = "solve"
    shape: str = "hexagon:4"
    k: int = 1
    l: int = 5
    seed: int = 0
    placement: str = "random"
    algorithm: str = "auto"
    allow_holes: bool = False
    scheduler: str = ""
    backend: str = ""
    # route-only
    tokens: int = 0
    # churn-only
    churn: str = ""
    churn_steps: int = 0
    churn_batch: int = 1
    threshold: float = 0.2
    crash: int = 0
    drop: float = 0.0
    # Quality-of-service (identity-neutral: never part of the key).
    deadline_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise RequestError(
                f"unknown request kind {self.kind!r}; expected one of {REQUEST_KINDS}"
            )
        if not isinstance(self.shape, str) or not self.shape:
            raise RequestError("shape must be a non-empty spec string")
        if self.k < 1:
            raise RequestError(f"k must be positive, got {self.k}")
        if self.l < ALL_NODES:
            raise RequestError(f"l must be >= 0 (0 = all nodes), got {self.l}")
        if self.placement not in PLACEMENTS:
            raise RequestError(
                f"unknown placement {self.placement!r}; expected one of {PLACEMENTS}"
            )
        if self.algorithm not in ALGORITHMS:
            raise RequestError(
                f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}"
            )
        if self.algorithm == "spt" and self.k != 1:
            raise RequestError("algorithm 'spt' requires k = 1")
        if self.algorithm == "sequential" and self.l != ALL_NODES:
            # sequential_merge_forest spans the whole structure; a
            # request claiming l destinations would be mislabeled.
            raise RequestError("algorithm 'sequential' requires l = 0 (all nodes)")
        try:
            _check_scheduler(self.scheduler)
        except ValueError as exc:
            raise RequestError(str(exc)) from exc
        if self.backend:
            try:
                check_backend(self.backend)
            except ValueError as exc:
                raise RequestError(str(exc)) from exc
        if self.tokens < 0:
            raise RequestError(f"tokens must be >= 0, got {self.tokens}")
        if self.tokens and self.kind != "route":
            raise RequestError("tokens is only meaningful for kind='route'")
        if self.kind == "churn":
            if self.churn not in _CHURN_KINDS:
                raise RequestError(
                    f"churn requests need a churn kind from {_CHURN_KINDS}, "
                    f"got {self.churn!r}"
                )
            if self.churn_steps < 1:
                raise RequestError(
                    f"churn requests need churn_steps >= 1, got {self.churn_steps}"
                )
            if self.churn_batch < 1:
                raise RequestError(
                    f"churn_batch must be positive, got {self.churn_batch}"
                )
            if self.algorithm != "auto":
                raise RequestError("churn requests require algorithm 'auto'")
        elif self.churn:
            raise RequestError("churn kind given on a non-churn request")
        elif self.churn_steps:
            raise RequestError("churn_steps given without a churn kind")
        if not 0.0 < self.threshold <= 1.0:
            raise RequestError(
                f"threshold must be in (0, 1], got {self.threshold}"
            )
        if self.crash < 0:
            raise RequestError(f"crash must be >= 0, got {self.crash}")
        if not 0.0 <= self.drop <= 1.0:
            raise RequestError(f"drop must be in [0, 1], got {self.drop}")
        if (self.crash or self.drop) and self.kind != "churn":
            raise RequestError("fault injection is only wired for kind='churn'")
        if not isinstance(self.deadline_s, (int, float)) or isinstance(
            self.deadline_s, bool
        ):
            raise RequestError(
                f"deadline_s must be a number, got {self.deadline_s!r}"
            )
        if self.deadline_s < 0:
            raise RequestError(
                f"deadline_s must be >= 0 (0 = no deadline), got {self.deadline_s}"
            )

    # ------------------------------------------------------------------
    # identity & serialization
    # ------------------------------------------------------------------
    def config(self) -> Dict[str, object]:
        """The identity-bearing configuration (JSON-ready).

        Kind-specific and override fields enter only when set, so a
        plain solve keeps the same key whether it was built before or
        after a new knob existed — the same stability contract as
        :meth:`TrialSpec.config`.  ``deadline_s`` never enters: it is a
        quality-of-service bound, not part of what the work *is*, so a
        request keeps its cache identity however impatient the caller.
        ``backend`` never enters either: every backend name runs the
        same kernels, so requests differing only in it share one result.
        """
        out: Dict[str, object] = {
            "kind": self.kind,
            "shape": self.shape,
            "k": self.k,
            "l": self.l,
            "seed": self.seed,
            "placement": self.placement,
            "algorithm": self.algorithm,
            "allow_holes": self.allow_holes,
        }
        if self.scheduler:
            out["scheduler"] = self.scheduler
        if self.kind == "route":
            out["tokens"] = self.tokens
        if self.kind == "churn":
            out["churn"] = self.churn
            out["churn_steps"] = self.churn_steps
            out["churn_batch"] = self.churn_batch
            out["threshold"] = self.threshold
            out["crash"] = self.crash
            out["drop"] = self.drop
        return out

    def key(self) -> str:
        """Stable content hash — the cache/queue/replay identity."""
        return content_key(self.config())

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping (inverse of :meth:`from_dict`)."""
        out = self.config()
        if self.deadline_s:
            out["deadline_s"] = self.deadline_s
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SolveRequest":
        """Parse and validate a request mapping; rejects unknown fields."""
        if not isinstance(data, Mapping):
            raise RequestError(
                f"request must be a mapping, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise RequestError(f"unknown request fields: {sorted(unknown)}")
        try:
            return cls(**data)  # type: ignore[arg-type]
        except TypeError as exc:
            raise RequestError(f"bad request: {exc}") from exc


@dataclass
class SolveReport:
    """Everything measured for one executed :class:`SolveRequest`.

    Serializable half (:meth:`to_dict`) plus in-process extras: when a
    report comes straight out of :meth:`Session.run` (not from the
    store), :attr:`forest`, :attr:`structure`, :attr:`sources`,
    :attr:`destinations` and :attr:`routing_stats` carry the live
    objects so callers (the CLI's ASCII rendering, tests) need not
    recompute them.  Cached reports have those set to ``None``.
    """

    key: str
    kind: str
    shape: str
    n: int
    k: int
    l: int
    seed: int
    algorithm: str
    rounds: int
    forest_members: int
    elapsed_s: float
    backend: str = ""
    scheduler: str = ""
    activations: int = 0
    sched_time: Optional[float] = None
    #: Event-driven runs only: scheduler name, activations, epochs,
    #: simulated time, retransmissions (what the CLI summary prints).
    sched: Optional[Dict[str, object]] = None
    sections: Dict[str, int] = field(default_factory=dict)
    routing: Optional[Dict[str, object]] = None
    repair: Optional[Dict[str, object]] = None
    faults: Optional[Dict[str, object]] = None
    cached: bool = False

    # In-process extras; never serialized.
    forest: object = field(default=None, repr=False, compare=False)
    #: Churn only: nodes added by the final edit batch that survived
    #: (the CLI highlights them in the rendered last frame).
    added: Optional[List[Node]] = field(default=None, repr=False, compare=False)
    structure: object = field(default=None, repr=False, compare=False)
    sources: Optional[List[Node]] = field(default=None, repr=False, compare=False)
    destinations: Optional[List[Node]] = field(
        default=None, repr=False, compare=False
    )
    routing_stats: object = field(default=None, repr=False, compare=False)

    #: Marker distinguishing report records from campaign trial records
    #: when both share one result store.
    RECORD = "solve-report"

    def to_dict(self) -> Dict[str, object]:
        """Flatten into the JSON-ready record the store persists."""
        return {
            "key": self.key,
            "record": self.RECORD,
            "kind": self.kind,
            "shape": self.shape,
            "n": self.n,
            "k": self.k,
            "l": self.l,
            "seed": self.seed,
            "algorithm": self.algorithm,
            "rounds": self.rounds,
            "forest_members": self.forest_members,
            "elapsed_s": self.elapsed_s,
            "backend": self.backend,
            "scheduler": self.scheduler,
            "activations": self.activations,
            "sched_time": self.sched_time,
            "sched": self.sched,
            "sections": dict(self.sections),
            "routing": self.routing,
            "repair": self.repair,
            "faults": self.faults,
            "cached": self.cached,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SolveReport":
        """Rebuild from a stored record, ignoring unknown fields."""
        known = {f.name for f in fields(cls) if f.compare}
        kwargs = {name: data[name] for name in known if name in data}
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclass
class SessionStats:
    """Per-session counters (cheap observability for ``/stats``)."""

    requests: int = 0
    executed: int = 0
    cache_hits: int = 0
    structures_built: int = 0
    structure_hits: int = 0
    #: Result-store writes that failed; the report is still returned
    #: (a flaky store degrades caching, it must not fail the solve).
    store_failures: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from the result store."""
        return self.cache_hits / self.requests if self.requests else 0.0

    def to_dict(self) -> Dict[str, object]:
        """All counters plus the derived hit rate, JSON-ready."""
        return {
            "requests": self.requests,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "hit_rate": round(self.hit_rate, 4),
            "structures_built": self.structures_built,
            "structure_hits": self.structure_hits,
            "store_failures": self.store_failures,
        }


class Session:
    """Owner of engines, scheduler, caches, and the result store.

    A session is the unit of state reuse: structures (with their warm
    grid indexes) and compiled layouts persist across every request it
    executes, and completed reports persist in its result store keyed
    by request content hash.  ``repro serve`` keeps one session alive
    across HTTP jobs; the CLI builds a throwaway one per invocation;
    library code can share one across calls for the same effect.

    Parameters
    ----------
    backend:
        Backend name (``auto``/``python``/``numpy``; ``None`` = process
        default), validated and kept for compatibility; every name runs
        the same kernels (:mod:`repro.backend`).
    scheduler:
        Default activation scheduler spec (``""`` = plain synchronous
        engine; otherwise e.g. ``"random:1"`` — see
        :func:`repro.sched.make_scheduler`).
    allow_holes:
        Session-wide policy for structures with holes (the
        ``O(diam)`` wave fallback instead of a hard error).
    store:
        Result store (or a path to a JSONL file) consulted by request
        key; ``None`` = fresh in-memory store.
    max_structures:
        Bound on the structure LRU.
    """

    def __init__(
        self,
        backend: Optional[str] = None,
        scheduler: str = "",
        allow_holes: bool = False,
        channels: int = 8,
        layouts: Optional[LayoutCache] = None,
        store: Optional[object] = None,
        max_structures: int = 32,
    ):
        if backend is not None:
            check_backend(backend)
        if isinstance(scheduler, str):
            _check_scheduler(scheduler)
        self.backend = backend
        self.scheduler = scheduler
        self.allow_holes = allow_holes
        self.channels = channels
        self.layouts = layouts if layouts is not None else LayoutCache(maxsize=256)
        if store is None or isinstance(store, ResultStore):
            self.store = store if store is not None else ResultStore()
        else:
            self.store = ResultStore(store)
        if max_structures < 1:
            raise ValueError("max_structures must be positive")
        self.max_structures = max_structures
        self._structures: "OrderedDict[str, AmoebotStructure]" = OrderedDict()
        self.stats = SessionStats()
        # Guards the structure LRU and the stats counters: the service
        # daemon runs one session across a pool of worker threads.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # hot state
    # ------------------------------------------------------------------
    def structure(self, shape: str) -> AmoebotStructure:
        """Build (or serve from the LRU) a structure and its grid index.

        Churn requests share it too: the dynamics layer edits its own
        copy of the node set and derives new indexes, never mutating
        the structure it started from.
        """
        with self._lock:
            if shape in self._structures:
                self._structures.move_to_end(shape)
                self.stats.structure_hits += 1
                return self._structures[shape]
        with trace_span("structure", shape=shape):
            structure = build_structure(shape)  # index built with it
        with self._lock:
            self.stats.structures_built += 1
            self._structures[shape] = structure
            while len(self._structures) > self.max_structures:
                self._structures.popitem(last=False)
        return structure

    def engine_for(
        self,
        structure: AmoebotStructure,
        scheduler: Optional[str] = None,
    ) -> CircuitEngine:
        """An engine over ``structure`` wired to the session's caches.

        ``scheduler`` overrides the session default (pass ``""`` to
        force the synchronous engine regardless of the session's
        scheduler).  Layouts are scoped views of the shared
        session cache, so same-structure engines reuse compiled
        layouts.
        """
        sched = self.scheduler if scheduler is None else scheduler
        layouts = self.layouts.scoped(frozenset(structure.nodes))
        if sched:
            from repro.sched import ActivationEngine

            return ActivationEngine(
                structure,
                scheduler=sched,
                channels=self.channels,
                layouts=layouts,
            )
        return CircuitEngine(structure, channels=self.channels, layouts=layouts)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        request: SolveRequest,
        resume: bool = True,
        on_event: Optional[EventFn] = None,
        token: Optional[CancellationToken] = None,
    ) -> SolveReport:
        """Execute ``request`` (or serve it from the result store).

        ``on_event`` receives JSON-ready progress dicts as the request
        executes: ``start``, ``structure``, one ``round`` event per
        synchronous round, kind-specific milestones, and ``done`` —
        the stream ``repro serve`` forwards to clients as chunked
        JSONL.  With ``resume=True`` (default) a request whose key is
        already in the store returns the recorded report immediately
        with ``cached=True``.

        ``token`` plugs in cooperative cancellation: it is checked at
        every emitted event boundary (per synchronous round, per churn
        batch, at phase transitions), so a tripped token raises
        :class:`~repro.resilience.Cancelled` (or
        :class:`~repro.resilience.DeadlineExceeded`) within one round
        of the trip, with the partial progress attached.  When the
        request carries a ``deadline_s`` and no token is given, one is
        armed automatically.  Cache hits never consult the token —
        the warm path stays check-free.
        """
        if not isinstance(request, SolveRequest):
            raise TypeError(
                f"run() takes a SolveRequest, got {type(request).__name__} "
                "(build one with SolveRequest(...) or SolveRequest.from_dict)"
            )

        progress: Dict[str, object] = {}

        def emit(event: Dict[str, object]) -> None:
            if on_event is not None:
                on_event(event)
            if token is not None:
                if event.get("event") == "round":
                    progress["rounds"] = event["rounds"]
                token.check()

        with self._lock:
            self.stats.requests += 1
        key = request.key()
        if resume:
            record = self.store.get(key)
            if record is not None and record.get("record") == SolveReport.RECORD:
                with self._lock:
                    self.stats.cache_hits += 1
                report = SolveReport.from_dict(record)
                report.cached = True
                with trace_span(request.kind, key=key, cached=True,
                                rounds=report.rounds):
                    # Deliberately not emit(): a warm hit is served even
                    # under a cancelled or long-expired token — reading
                    # a finished record costs nothing worth cancelling.
                    if on_event is not None:
                        on_event({"event": "cached", "key": key,
                                  "rounds": report.rounds})
                return report

        if token is None and request.deadline_s:
            token = CancellationToken(deadline_s=request.deadline_s)
        emit({"event": "start", "key": key, "kind": request.kind,
              "shape": request.shape})
        started = time.perf_counter()
        cache_hits0 = LAYOUT_STATS.cache_hits
        cache_misses0 = LAYOUT_STATS.cache_misses
        try:
            return self._execute(request, key, emit, started, cache_hits0, cache_misses0)
        except Cancelled as exc:
            exc.partial.update(progress)
            exc.partial.setdefault("key", key)
            exc.partial.setdefault("kind", request.kind)
            exc.partial["elapsed_s"] = round(time.perf_counter() - started, 6)
            raise

    def _execute(
        self,
        request: SolveRequest,
        key: str,
        emit: EventFn,
        started: float,
        cache_hits0: int,
        cache_misses0: int,
    ) -> SolveReport:
        """The cold path of :meth:`run`: build, solve, persist, report."""
        with trace_span(request.kind, key=key, shape=request.shape,
                        cached=False) as root_span:
            with trace_span("build", shape=request.shape) as build_span:
                structure = self.structure(request.shape)
                sources, destinations = _pick_endpoints(structure, request)
                build_span.set(n=len(structure))
            emit({"event": "structure", "n": len(structure), "k": len(sources),
                  "l": len(destinations)})
            engine = self.engine_for(structure, scheduler=request.scheduler or None)
            tracer = current_tracer()
            if tracer is not None and tracer.trace_rounds:
                engine.enable_round_tracing()
            root_span.set(
                n=len(structure),
                backend=engine.backend,
                scheduler=request.scheduler
                or (self.scheduler if isinstance(self.scheduler, str) else "")
                or "sync",
            )
            previous_hook = engine.rounds.on_tick
            engine.rounds.on_tick = lambda total: emit(
                {"event": "round", "rounds": total}
            )
            try:
                if request.kind == "churn":
                    report = self._run_churn(
                        request, structure, sources, destinations, engine, emit
                    )
                else:
                    report = self._run_solve(
                        request, structure, sources, destinations, engine, emit
                    )
            finally:
                engine.rounds.on_tick = previous_hook
            report.elapsed_s = round(time.perf_counter() - started, 6)
            report.backend = engine.backend
            report.scheduler = request.scheduler or (
                self.scheduler if isinstance(self.scheduler, str) else ""
            )
            sched_stats = getattr(engine, "stats", None)
            if sched_stats is not None:
                report.sched_time = round(sched_stats.time, 6)
                report.sched = {
                    "name": engine.scheduler.name,
                    "activations": sched_stats.activations,
                    "epochs": sched_stats.epochs,
                    "time": round(sched_stats.time, 6),
                    "retransmissions": sched_stats.retransmissions,
                }
            with self._lock:
                self.stats.executed += 1
            with trace_span("store"):
                try:
                    self.store.add(report.to_dict())
                except Exception:
                    # A flaky store loses a cache entry, never a result.
                    with self._lock:
                        self.stats.store_failures += 1
                    logger.warning(
                        "result store write failed for %s", key, exc_info=True
                    )
            root_span.set(
                rounds=report.rounds,
                layout_cache_hits=LAYOUT_STATS.cache_hits - cache_hits0,
                layout_cache_misses=LAYOUT_STATS.cache_misses - cache_misses0,
            )
        emit({"event": "done", "key": key, "rounds": report.rounds,
              "elapsed_s": report.elapsed_s})
        return report

    # Convenience verbs — thin constructors over :meth:`run`.
    def solve(self, shape: str = "hexagon:4", **kw) -> SolveReport:
        """``run(SolveRequest(kind="solve", shape=shape, **kw))``."""
        return self.run(SolveRequest(kind="solve", shape=shape, **kw))

    def route(self, shape: str = "hexagon:4", **kw) -> SolveReport:
        """``run(SolveRequest(kind="route", shape=shape, **kw))``."""
        return self.run(SolveRequest(kind="route", shape=shape, **kw))

    def churn(self, shape: str = "random:200:1", **kw) -> SolveReport:
        """``run(SolveRequest(kind="churn", shape=shape, **kw))``."""
        kw.setdefault("churn", "mixed")
        kw.setdefault("churn_steps", 8)
        return self.run(SolveRequest(kind="churn", shape=shape, **kw))

    # ------------------------------------------------------------------
    # kind pipelines
    # ------------------------------------------------------------------
    def _solve_forest(self, request, structure, sources, destinations, engine):
        """The solve core shared by ``solve`` and ``route`` requests."""
        allow_holes = request.allow_holes or self.allow_holes
        if request.algorithm == "auto":
            from repro.spf.api import solve_spf

            solution = solve_spf(
                structure, sources, destinations, engine=engine,
                allow_holes=allow_holes,
            )
            return solution.forest, solution.algorithm
        if request.algorithm == "spt":
            from repro.spf.spt import shortest_path_tree

            spt = shortest_path_tree(engine, structure, sources[0], destinations)
            return spt.forest, "spt"
        if request.algorithm == "forest":
            from repro.spf.forest import shortest_path_forest

            forest = shortest_path_forest(
                engine, structure, sources,
                destinations if request.l != ALL_NODES else None,
            )
            return forest, "forest"
        if request.algorithm == "sequential":
            from repro.baselines.sequential_merge import sequential_merge_forest

            return sequential_merge_forest(engine, structure, sources), "sequential"
        # "wave"
        from repro.baselines.bfs_wave import bfs_wave_forest

        forest = bfs_wave_forest(engine, structure, set(sources), set(destinations))
        return forest, "wave"

    def _run_solve(self, request, structure, sources, destinations, engine, emit):
        rounds_before = engine.rounds.total
        with trace_span("rounds", algorithm=request.algorithm) as rounds_span:
            forest, resolved = self._solve_forest(
                request, structure, sources, destinations, engine
            )
            rounds_span.set(
                algorithm=resolved, rounds=engine.rounds.total - rounds_before
            )
        emit({"event": "solved", "algorithm": resolved,
              "members": len(forest)})
        report = self._base_report(
            request, structure, sources, destinations, engine, forest, resolved
        )
        if request.kind == "route":
            from repro.motion.routing import RoutingPlan, route_tokens

            origins = _token_origins(request, forest, sources, destinations)
            with trace_span("route", tokens=len(origins)) as route_span:
                stats = route_tokens(RoutingPlan(forest, origins))
                route_span.set(steps=stats.steps, moves=stats.total_moves)
            report.routing = stats.to_dict()
            report.routing["tokens"] = len(origins)
            report.routing_stats = stats
            emit({"event": "routed", "steps": stats.steps,
                  "moves": stats.total_moves})
        return report

    def _run_churn(self, request, structure, sources, destinations, engine, emit):
        from repro.dynamics import DynamicSPF, FaultInjector, generate_churn

        faults = None
        if request.crash or request.drop:
            rng = _random.Random(request.seed + 1)
            pool = [u for u in sorted(structure.nodes) if u not in set(sources)]
            crashed = (
                rng.sample(pool, min(request.crash, len(pool)))
                if request.crash
                else []
            )
            faults = FaultInjector(
                crashed=crashed, drop_prob=request.drop, seed=request.seed
            )
        initial_n = len(structure)
        # One ``rounds`` span over the initial solve and every repair,
        # so traces attribute repair rounds to the simulation too.
        with trace_span("rounds", algorithm="dynamic") as rounds_span:
            dyn = DynamicSPF(
                structure,
                sources,
                destinations if request.l != ALL_NODES else None,
                threshold=request.threshold,
                faults=faults,
                engine=engine,
            )
            initial_rounds = dyn.engine.rounds.total
            initial_members = len(dyn.forest.members)
            emit({"event": "solved", "algorithm": "dynamic",
                  "members": initial_members, "rounds": initial_rounds})
            script = generate_churn(
                structure,
                request.churn,
                steps=request.churn_steps,
                batch_size=request.churn_batch,
                seed=request.seed,
                protected=dyn.protected,
            )
            batches = []
            for i, batch in enumerate(script):
                st = dyn.apply(batch)
                batches.append(st)
                emit({"event": "batch", "index": i, "ops": st.batch_ops,
                      "mode": st.mode, "rounds": st.rounds,
                      "n": st.structure_size})
            rounds_span.set(rounds=dyn.engine.rounds.total)
        report = self._base_report(
            request, dyn.structure, sources, destinations, dyn.engine,
            dyn.forest, "dynamic",
        )
        report.repair = {
            "initial_n": initial_n,
            "initial_rounds": initial_rounds,
            "initial_members": initial_members,
            "edit_batches": len(batches),
            "edit_ops": sum(s.batch_ops for s in batches),
            "repairs_patch": sum(1 for s in batches if s.mode == "patch"),
            "repairs_full": sum(1 for s in batches if s.mode == "full"),
            "repair_rounds": sum(s.rounds for s in batches),
            "wave_rounds": sum(s.wave_rounds for s in batches),
            "dirty_nodes": sum(s.dirty for s in batches),
            "batches": [
                {
                    "ops": s.batch_ops, "n": s.structure_size,
                    "region": s.region, "dirty": s.dirty, "mode": s.mode,
                    "rounds": s.rounds, "wave": s.wave_rounds,
                    "healed": s.corrected,
                }
                for s in batches
            ],
        }
        if script.batches:
            last = script.batches[-1]
            report.added = [u for u in last.add if u in dyn.structure]
        if faults is not None:
            fs = faults.stats
            report.faults = {
                "lost": fs.lost,
                "suppressed": fs.suppressed,
                "dropped": fs.dropped,
                "missed_hears": fs.missed_hears,
            }
        return report

    def _base_report(
        self, request, structure, sources, destinations, engine, forest, resolved
    ) -> SolveReport:
        report = SolveReport(
            key=request.key(),
            kind=request.kind,
            shape=request.shape,
            n=len(structure),
            k=request.k,
            l=request.l,
            seed=request.seed,
            algorithm=resolved,
            rounds=engine.rounds.total,
            forest_members=len(forest),
            elapsed_s=0.0,
            activations=engine.rounds.activations,
            sections=dict(engine.rounds.breakdown()),
        )
        report.forest = forest
        report.structure = structure
        report.sources = list(sources)
        report.destinations = list(destinations)
        return report


def _pick_endpoints(
    structure: AmoebotStructure, request: SolveRequest
) -> Tuple[List[Node], List[Node]]:
    """Sources/destinations per the request's placement policy.

    The raw ``seed`` drives sampling, so flag-built and request-built
    invocations pick identical endpoints.  Campaign trials seed their
    requests with :meth:`~repro.experiments.spec.TrialSpec.sampling_seed`.
    """
    ordered = sorted(structure.nodes)
    n = len(ordered)
    if request.k > n:
        raise RequestError(f"k = {request.k} exceeds structure size {n}")
    want_all = request.l == ALL_NODES
    if not want_all and request.k + request.l > n:
        raise RequestError(
            f"cannot pick {request.k}+{request.l} disjoint nodes from {n}"
        )
    if request.placement == "extremes":
        sources = ordered[: request.k]
        destinations = list(ordered) if want_all else ordered[n - request.l:]
    elif request.placement == "spread":
        sources = spread_nodes(structure, request.k)
        if want_all:
            destinations = list(ordered)
        else:
            chosen = set(sources)
            destinations = [u for u in ordered if u not in chosen][: request.l]
    else:  # random
        if want_all:
            rng = _random.Random(request.seed)
            sources = rng.sample(ordered, request.k)
            destinations = list(ordered)
        else:
            sources, destinations = sample_sources_destinations(
                structure, request.k, request.l, seed=request.seed
            )
    if not destinations:
        raise RequestError(f"no destinations (l = {request.l})")
    return sources, destinations


def _token_origins(
    request: SolveRequest, forest, sources: List[Node], destinations: List[Node]
) -> List[Node]:
    """Token origins for a route request (CLI-identical sampling)."""
    if not request.tokens:
        return list(destinations)
    members = sorted(forest.members - set(sources))
    if not members:
        raise RequestError("forest has no non-source members to seed tokens on")
    rng = _random.Random(request.seed)
    picks = sorted(rng.sample(range(len(members)), min(request.tokens, len(members))))
    return [members[i] for i in picks]


def iter_report_records(store: ResultStore) -> Iterator[Dict[str, object]]:
    """The solve-report records of a (possibly mixed) result store."""
    for record in store.records():
        if record.get("record") == SolveReport.RECORD:
            yield record
