"""Command line interface: ``python -m repro <command>`` (or ``repro``).

Commands
--------
``solve``
    Solve a (k, l)-SPF instance on a generated structure and print the
    result (rounds, assignments, optional ASCII rendering).
``route``
    Solve, then route tokens along the forest and report the
    :class:`~repro.motion.routing.RoutingStats` (steps, total moves,
    congestion overhead).
``churn``
    Dynamic SPF: apply a generated edit stream to the structure and
    repair the forest incrementally, reporting per-batch repair cost
    (optionally under injected faults).
``sweep``
    Quick round-complexity sweeps (spsp / sssp / forest) — thin
    wrappers over the built-in ``*-small`` campaigns.
``campaign``
    Declarative experiment campaigns: ``run`` / ``resume`` named or
    JSON-file campaigns in parallel with a persistent JSONL result
    store, ``list`` the built-ins, ``summarize`` a store.
``serve``
    Run the solver daemon: a long-lived :class:`~repro.api.Session`
    behind an HTTP job API with JSONL progress streaming and a
    persistent result store (see :mod:`repro.service`).
``trace``
    Render a JSONL span trace (written by ``solve --trace`` or a
    campaign's ``--trace-dir``) as a text flamegraph.
``info``
    Describe a generated structure (portals, diameter, holes).

The solve-family commands (``solve``/``route``/``churn``) are thin
translators: flags become a :class:`~repro.api.SolveRequest` executed
on a throwaway :class:`~repro.api.Session`, so a CLI invocation, a
library call, and a daemon job with the same parameters share one
content key and produce bit-identical results.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.backend import BACKEND_NAMES, check_backend, set_default_backend
from repro.grid.directions import Axis
from repro.grid.oracle import structure_diameter
from repro.grid.structure import AmoebotStructure
from repro.viz.ascii_art import render_forest_ascii
from repro.workloads.specs import build_structure


def make_structure(spec: str) -> AmoebotStructure:
    """Build a structure from a CLI spec like ``hexagon:3`` or ``random:200:7``.

    Supported: ``hexagon:R``, ``parallelogram:W:H``, ``triangle:S``,
    ``line:N``, ``comb:T:L``, ``staircase:S:W``, ``lollipop:R:H``,
    ``random:N[:SEED]``, ``dendrite:N[:SEED]``.
    """
    try:
        return build_structure(spec)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _request_from_args(args: argparse.Namespace, kind: str, **extra):
    """Translate solve-family flags into a :class:`SolveRequest`.

    The commands are thin: every knob lands in the request, and the
    request (not the flag set) is what executes — identically to a
    library call or an HTTP job with the same content key.
    """
    from repro.api import RequestError, SolveRequest

    if args.k < 1 or args.l < 1:
        raise SystemExit("k and l must be at least 1")
    try:
        return SolveRequest(
            kind=kind,
            shape=args.shape,
            k=args.k,
            l=args.l,
            seed=args.seed,
            placement="spread" if getattr(args, "spread", False) else "random",
            scheduler=getattr(args, "scheduler", "") or "",
            deadline_s=getattr(args, "deadline", 0.0) or 0.0,
            **extra,
        )
    except RequestError as exc:
        raise SystemExit(str(exc)) from exc


def _run_request(request, trace_path=None, trace_rounds=False):
    """Execute one request on a throwaway session (user errors exit).

    ``trace_path`` activates the span tracer for the run and dumps the
    JSONL trace there (render it with ``repro trace <file>``);
    ``trace_rounds`` additionally wraps every beep round in its own
    span.  Without a path, no tracer is installed and the run executes
    the uninstrumented fast path.
    """
    from repro.api import Session
    from repro.resilience import Cancelled

    try:
        if trace_path:
            from repro.obs import Tracer, use_tracer

            tracer = Tracer(trace_rounds=trace_rounds)
            with use_tracer(tracer):
                report = Session().run(request)
            count = tracer.dump(trace_path)
            print(f"trace: {count} spans -> {trace_path}", file=sys.stderr)
            return report
        return Session().run(request)
    except Cancelled as exc:
        rounds = exc.partial.get("rounds", 0)
        elapsed = exc.partial.get("elapsed_s", 0.0)
        raise SystemExit(
            f"{exc} after {elapsed}s ({rounds} rounds completed)"
        ) from exc
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _print_scheduler_report(sched: dict) -> None:
    """One summary line for an event-driven run (``--scheduler``)."""
    print(
        f"scheduler {sched['name']}: {sched['activations']} activations "
        f"over {sched['epochs']} epochs, simulated time {sched['time']:.1f}"
        + (
            f", {sched['retransmissions']} retransmissions"
            if sched["retransmissions"]
            else ""
        )
    )


def cmd_solve(args: argparse.Namespace) -> int:
    """Handle ``repro solve``."""
    report = _run_request(
        _request_from_args(args, "solve"),
        trace_path=args.trace,
        trace_rounds=args.trace_rounds,
    )
    print(f"n = {report.n}, k = {args.k}, l = {args.l}")
    print(f"algorithm: {report.algorithm}")
    print(f"synchronous rounds: {report.rounds}")
    if report.sched is not None:
        _print_scheduler_report(report.sched)
    print(f"forest members: {report.forest_members}")
    for d in report.destinations:
        root = report.forest.root_of(d)
        depth = report.forest.depth_of(d)
        print(f"  {tuple(d)} -> {tuple(root)} ({depth} hops)")
    if args.ascii:
        print()
        print(
            render_forest_ascii(
                report.structure,
                report.sources,
                report.destinations,
                report.forest.members,
            )
        )
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    """Handle ``repro route`` — token routing along a solved forest."""
    report = _run_request(
        _request_from_args(args, "route", tokens=args.tokens),
        trace_path=args.trace,
        trace_rounds=args.trace_rounds,
    )
    routing = report.routing
    print(f"n = {report.n}, k = {args.k}, l = {args.l}")
    print(f"algorithm: {report.algorithm} ({report.rounds} solve rounds)")
    print(f"tokens routed: {routing['tokens']}")
    print(f"steps (makespan): {routing['steps']}")
    print(f"total moves: {routing['total_moves']}")
    print(f"lower bound: {routing['lower_bound']}")
    print(f"congestion overhead: {routing['congestion_overhead']:.3f}")
    return 0


def _fresh_solve_rounds(report) -> int:
    """Rounds of one fresh solve on a churn report's final structure.

    The reference point for how much the incremental repairs saved.
    With ``l = 0`` every node of the final structure is a destination,
    as it is for the repaired forest; otherwise the request's
    destinations are, which churn never removes.
    """
    from repro.api import ALL_NODES
    from repro.spf.api import solve_spf

    structure = report.structure
    destinations = (
        list(structure.nodes) if report.l == ALL_NODES else report.destinations
    )
    return solve_spf(structure, report.sources, destinations).rounds


def cmd_churn(args: argparse.Namespace) -> int:
    """Handle ``repro churn`` — dynamic SPF repair under an edit stream."""
    report = _run_request(
        _request_from_args(
            args,
            "churn",
            churn=args.kind,
            churn_steps=args.steps,
            churn_batch=args.batch,
            threshold=args.threshold,
            crash=args.crash,
            drop=args.drop,
        ),
        trace_path=args.trace,
        trace_rounds=args.trace_rounds,
    )
    repair = report.repair
    fresh_rounds = _fresh_solve_rounds(report)
    print(f"n = {repair['initial_n']}, k = {args.k}, l = {args.l}")
    print(f"initial solve: {repair['initial_rounds']} rounds, "
          f"{repair['initial_members']} members")
    print(f"edit stream: {repair['edit_batches']} batches, "
          f"{repair['edit_ops']} ops ({args.kind})")
    print(f"{'batch':>5} {'ops':>4} {'n':>5} {'region':>6} {'dirty':>6} "
          f"{'mode':>6} {'rounds':>6} {'wave':>5} {'healed':>6}")
    for i, b in enumerate(repair["batches"]):
        print(f"{i:>5} {b['ops']:>4} {b['n']:>5} {b['region']:>6} "
              f"{b['dirty']:>6} {b['mode']:>6} {b['rounds']:>6} {b['wave']:>5} "
              f"{b['healed']:>6}")
    print(f"repair total: {repair['repair_rounds']} rounds over "
          f"{repair['edit_batches']} batches "
          f"(one fresh solve on the final structure: {fresh_rounds} rounds)")
    if report.sched is not None:
        _print_scheduler_report(report.sched)
    if report.faults is not None:
        fs = report.faults
        print(f"faults: {fs['lost']} beeps lost ({fs['suppressed']} crashed, "
              f"{fs['dropped']} dropped), {fs['missed_hears']} missed hears detected")
    if args.ascii:
        from repro.viz.ascii_art import render_churn_ascii

        print()
        print(render_churn_ascii(
            report.structure,
            sources=report.sources,
            destinations=report.destinations,
            members=report.forest.members,
            added=report.added or [],
        ))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Handle ``repro serve`` — the solver daemon (see :mod:`repro.service`)."""
    from repro.api import Session
    from repro.obs import configure_logging
    from repro.service import SolverService, serve

    try:
        configure_logging(level=args.log_level, fmt=args.log_format)
        session = Session(scheduler=args.scheduler, store=args.store)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    service = SolverService(
        session=session,
        workers=args.workers,
        max_queue=args.queue_depth,
        metrics_interval=args.metrics_interval,
    )
    server = serve(host=args.host, port=args.port, service=service)
    host, port = server.server_address[:2]
    print(f"repro serve: listening on http://{host}:{port} "
          f"({args.workers} workers)")
    if args.store:
        print(f"store: {args.store} ({len(service.store)} prior records)")
    sys.stdout.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down (finishing in-flight jobs)...")
    finally:
        summary = service.shutdown(wait=True)
        server.server_close()
        if summary["cancelled"]:
            print(f"cancelled {summary['cancelled']} queued job(s)")
    return 0


#: sweep experiment -> (built-in campaign, sweep axis, table title)
_SWEEPS = {
    "spsp": ("spsp-small", "n", "SPSP rounds vs n"),
    "sssp": ("sssp-small", "n", "SSSP rounds vs n"),
    "forest": ("forest-small", "k", "forest rounds vs k (n = 200)"),
}


def cmd_sweep(args: argparse.Namespace) -> int:
    """Handle ``repro sweep`` — thin wrapper over built-in campaigns."""
    from repro.experiments import get_campaign, run_campaign, summary_table

    name, axis, title = _SWEEPS[args.experiment]
    report = run_campaign(get_campaign(name))
    table = summary_table(report.records(), x=axis, columns=("rounds",), title=title)
    print(table.render())
    return 0


def _load_campaign(args: argparse.Namespace):
    """Resolve ``--name`` (registry) or ``--spec`` (JSON file)."""
    from repro.experiments import CampaignSpec, SpecError, get_campaign

    if getattr(args, "spec", None):
        try:
            return CampaignSpec.from_json(Path(args.spec).read_text())
        except OSError as exc:
            raise SystemExit(f"cannot read campaign spec: {exc}") from exc
        except SpecError as exc:
            raise SystemExit(f"bad campaign spec: {exc}") from exc
    if getattr(args, "name", None):
        try:
            return get_campaign(args.name)
        except KeyError as exc:
            raise SystemExit(exc.args[0]) from exc
    raise SystemExit("one of --name or --spec is required")


def _store_path(args: argparse.Namespace, campaign_name: str) -> Path:
    if args.store:
        return Path(args.store)
    return Path("campaigns") / f"{campaign_name}.jsonl"


def _print_store_summary(records: List[dict]) -> None:
    from repro.experiments import group_records, growth_report, summary_table, sweep_axis

    for scenario, rows in sorted(group_records(records, "scenario").items()):
        axis = sweep_axis(rows)
        table = summary_table(
            rows,
            x=axis,
            columns=("rounds", "forest_members"),
            title=f"scenario {scenario!r}: mean rounds vs {axis}",
        )
        print()
        print(table.render())
        fit = growth_report(rows, x=axis)
        if fit is not None:
            print(f"growth vs {axis}: {fit.describe()}")


def cmd_campaign_run(args: argparse.Namespace) -> int:
    """Handle ``repro campaign run`` and ``repro campaign resume``."""
    from repro.experiments import CampaignRunner, ResultStore

    campaign = _load_campaign(args)
    if getattr(args, "scheduler", None):
        import dataclasses

        from repro.experiments.spec import SpecError

        try:
            campaign = dataclasses.replace(
                campaign,
                scenarios=tuple(
                    dataclasses.replace(s, schedulers=(args.scheduler,))
                    for s in campaign.scenarios
                ),
            )
        except SpecError as exc:
            raise SystemExit(f"bad --scheduler: {exc}") from exc
    path = _store_path(args, campaign.name)
    if args.action == "resume" and not path.exists():
        raise SystemExit(f"no result store to resume at {path}")
    store = ResultStore(path)
    if args.action == "resume":
        reclaimed = store.compact()
        if reclaimed:
            print(f"compacted store: dropped {reclaimed} superseded line(s)")
    trials = campaign.trial_count()
    print(
        f"campaign {campaign.name!r}: {trials} trials, "
        f"{len(campaign.scenarios)} scenario(s), workers = {args.workers}"
    )
    print(f"store: {path} ({len(store)} prior records)")

    def progress(trial, result, done, total):
        print(
            f"[{done:>3}/{total}] {trial.scenario}: {trial.shape} "
            f"k={trial.k} l={trial.l} seed={trial.seed} -> "
            f"{result.rounds} rounds ({result.elapsed_s:.2f}s)"
        )
        sys.stdout.flush()

    runner = CampaignRunner(
        store=store,
        workers=args.workers,
        trace_dir=getattr(args, "trace_dir", None),
    )
    try:
        report = runner.run(
            campaign,
            resume=not args.fresh,
            progress=None if args.quiet else progress,
        )
    except ValueError as exc:
        raise SystemExit(f"campaign aborted: {exc}") from exc
    print(report.summary())
    print(f"executed {report.executed}, cache hits {report.cache_hits}")
    _print_store_summary(report.records())
    return 0


def cmd_campaign_list(args: argparse.Namespace) -> int:
    """Handle ``repro campaign list``."""
    from repro.experiments import campaign_names, get_campaign

    for name in campaign_names():
        campaign = get_campaign(name)
        print(
            f"{name:<14} {campaign.trial_count():>3} trials  "
            f"{campaign.description}"
        )
    return 0


def cmd_campaign_summarize(args: argparse.Namespace) -> int:
    """Handle ``repro campaign summarize``."""
    from repro.experiments import ResultStore

    if not args.store and not args.name:
        raise SystemExit("one of --store or --name is required")
    path = Path(args.store) if args.store else _store_path(args, args.name)
    if not path.exists():
        raise SystemExit(f"no result store at {path}")
    store = ResultStore(path)
    reclaimed = store.compact()
    if reclaimed:
        print(f"compacted store: dropped {reclaimed} superseded line(s)")
    records = store.records(scenario=args.scenario)
    if not records:
        raise SystemExit(f"store {path} has no matching records")
    print(f"store: {path} ({len(store)} records, scenarios: {store.scenarios()})")
    _print_store_summary(records)
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Dispatch ``repro campaign <action>``."""
    if args.action in ("run", "resume"):
        return cmd_campaign_run(args)
    if args.action == "list":
        return cmd_campaign_list(args)
    return cmd_campaign_summarize(args)


def cmd_trace(args: argparse.Namespace) -> int:
    """Handle ``repro trace`` — render a JSONL span trace as text."""
    from repro.obs import load_trace, render_trace

    try:
        records = load_trace(args.file)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc
    print(render_trace(records, width=args.width))
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    """Handle ``repro info``."""
    structure = make_structure(args.shape)
    from repro.portals.portals import PortalSystem

    print(f"n = {len(structure)}")
    print(f"edges = {structure.edge_count()}")
    print(f"diameter = {structure_diameter(structure)}")
    for axis in Axis:
        system = PortalSystem(structure, axis)
        print(f"{axis.name}-portals: {system.portal_count()} "
              f"(tree: {system.is_portal_graph_tree()})")
    return 0


def _add_trace_flags(parser: argparse.ArgumentParser) -> None:
    """Add the shared ``--trace`` / ``--trace-rounds`` flags."""
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a JSONL span trace of the run (view: repro trace FILE)",
    )
    parser.add_argument(
        "--trace-rounds",
        action="store_true",
        help="with --trace: one span per beep round (verbose, slower)",
    )


def _backend_name(name: str) -> str:
    """argparse type for ``--backend``: :func:`check_backend`'s verdict."""
    try:
        return check_backend(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Shortest path forests in programmable matter (PODC 2024 reproduction)",
    )
    parser.add_argument(
        "--backend",
        type=_backend_name,
        default="auto",
        metavar="{" + ",".join(BACKEND_NAMES) + "}",
        help="backend name, accepted for compatibility: every name runs "
        "the same pure-Python kernels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a (k, l)-SPF instance")
    solve.add_argument("--shape", default="hexagon:4", help="e.g. hexagon:4, random:200:7")
    solve.add_argument("-k", type=int, default=2, help="number of sources")
    solve.add_argument("-l", type=int, default=5, help="number of destinations")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--spread", action="store_true", help="spread sources far apart")
    solve.add_argument(
        "--scheduler",
        default="",
        metavar="NAME[:PARAM]",
        help="event-driven activation scheduler: sync, random:SEED, "
        "adversarial:DELTA, weighted:SEED",
    )
    solve.add_argument("--ascii", action="store_true", help="render the forest")
    solve.add_argument(
        "--deadline", type=float, default=0.0, metavar="SECONDS",
        help="give up after this much wall time (0 = unbounded)",
    )
    _add_trace_flags(solve)
    solve.set_defaults(func=cmd_solve)

    route = sub.add_parser(
        "route", help="route tokens along a solved shortest path forest"
    )
    route.add_argument("--shape", default="hexagon:4", help="e.g. hexagon:4, random:200:7")
    route.add_argument("-k", type=int, default=1, help="number of sources")
    route.add_argument("-l", type=int, default=5, help="number of destinations")
    route.add_argument("--seed", type=int, default=0)
    route.add_argument("--spread", action="store_true", help="spread sources far apart")
    route.add_argument(
        "--tokens",
        type=int,
        default=0,
        help="route this many tokens from random forest members "
        "(default: one token per destination)",
    )
    route.add_argument(
        "--deadline", type=float, default=0.0, metavar="SECONDS",
        help="give up after this much wall time (0 = unbounded)",
    )
    _add_trace_flags(route)
    route.set_defaults(func=cmd_route)

    churn = sub.add_parser(
        "churn", help="dynamic SPF: edit stream + incremental repair"
    )
    churn.add_argument("--shape", default="random:200:1")
    churn.add_argument("-k", type=int, default=1, help="number of sources")
    churn.add_argument("-l", type=int, default=5, help="number of destinations")
    churn.add_argument("--seed", type=int, default=0)
    churn.add_argument("--spread", action="store_true", help="spread sources far apart")
    churn.add_argument(
        "--kind",
        default="mixed",
        help="edit flavor: growth, erosion, tunnel, block_move, mixed",
    )
    churn.add_argument("--steps", type=int, default=8, help="edit batches to apply")
    churn.add_argument("--batch", type=int, default=3, help="operations per batch")
    churn.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="dirty fraction that triggers a full re-solve",
    )
    churn.add_argument(
        "--crash", type=int, default=0, help="crash this many random amoebots"
    )
    churn.add_argument(
        "--drop", type=float, default=0.0, help="per-beep drop probability"
    )
    churn.add_argument(
        "--scheduler",
        default="",
        metavar="NAME[:PARAM]",
        help="event-driven activation scheduler (see 'solve --help')",
    )
    churn.add_argument("--ascii", action="store_true", help="render the final frame")
    churn.add_argument(
        "--deadline", type=float, default=0.0, metavar="SECONDS",
        help="give up after this much wall time (0 = unbounded)",
    )
    _add_trace_flags(churn)
    churn.set_defaults(func=cmd_churn)

    sweep = sub.add_parser("sweep", help="round-complexity sweeps")
    sweep.add_argument("experiment", choices=["spsp", "sssp", "forest"])
    sweep.set_defaults(func=cmd_sweep)

    campaign = sub.add_parser(
        "campaign", help="declarative experiment campaigns"
    )
    campaign.add_argument(
        "action",
        choices=["run", "resume", "list", "summarize"],
        help="run/resume a campaign, list built-ins, summarize a store",
    )
    campaign.add_argument("--name", help="built-in campaign name (see 'list')")
    campaign.add_argument("--spec", help="path to a campaign JSON file")
    campaign.add_argument(
        "--store",
        help="JSONL result store path (default: campaigns/<name>.jsonl)",
    )
    campaign.add_argument(
        "--workers", type=int, default=1, help="parallel worker processes"
    )
    campaign.add_argument(
        "--fresh",
        action="store_true",
        help="ignore cached results and re-execute every trial",
    )
    campaign.add_argument(
        "--scenario", help="summarize: restrict to one scenario"
    )
    campaign.add_argument(
        "--scheduler",
        default="",
        metavar="NAME[:PARAM]",
        help="run/resume: override every scenario's scheduler axis",
    )
    campaign.add_argument(
        "--quiet", action="store_true", help="suppress per-trial progress lines"
    )
    campaign.add_argument(
        "--trace-dir",
        help="run/resume: spool one JSONL span trace per worker into "
        "this directory (view: repro trace <dir>/trials-<pid>.jsonl)",
    )
    campaign.set_defaults(func=cmd_campaign)

    serve = sub.add_parser(
        "serve", help="run the solver daemon (HTTP job API, JSONL streaming)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8100,
                       help="listen port (0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker threads executing jobs")
    serve.add_argument(
        "--queue-depth", type=int, default=64, metavar="N",
        help="bound on queued jobs: beyond it cold submissions get "
        "429 + Retry-After while warm cache hits are still served",
    )
    serve.add_argument(
        "--store",
        help="JSONL result store path: results persist and a restarted "
        "daemon resumes from them (default: in-memory)",
    )
    serve.add_argument(
        "--scheduler",
        default="",
        metavar="NAME[:PARAM]",
        help="session-wide default activation scheduler (see 'solve --help')",
    )
    from repro.obs.logs import LOG_FORMATS, LOG_LEVELS

    serve.add_argument(
        "--log-level",
        choices=list(LOG_LEVELS),
        default="info",
        help="structured log verbosity on stderr (debug also logs HTTP access)",
    )
    serve.add_argument(
        "--log-format",
        choices=list(LOG_FORMATS),
        default="text",
        help="log line format: human text or one JSON object per line",
    )
    serve.add_argument(
        "--metrics-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="with --store: append a metrics snapshot to metrics.jsonl "
        "next to the store every SECONDS (0 = off)",
    )
    serve.set_defaults(func=cmd_serve)

    trace = sub.add_parser(
        "trace", help="render a JSONL span trace as a text flamegraph"
    )
    trace.add_argument("file", help="trace file written by --trace / --trace-dir")
    trace.add_argument(
        "--width", type=int, default=40, help="bar width of a 100%% span"
    )
    trace.set_defaults(func=cmd_trace)

    info = sub.add_parser("info", help="describe a generated structure")
    info.add_argument("--shape", default="hexagon:3")
    info.set_defaults(func=cmd_info)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    set_default_backend(args.backend)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. `repro campaign summarize | head`
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
