"""The one round kernel: observers never change what a round computes.

Every beep round runs through :meth:`CircuitEngine.run_round_indexed`,
whose optional stages (scheduler epoch, fault filter, propagate, tick,
round trace / per-round span) are plain engine fields.  This file pins
the two consequences:

* tracing an engine keeps its scheduler and fault stages — a traced
  engine with every amoebot crashed hears nothing, and a traced
  :class:`~repro.sched.ActivationEngine` charges the same epochs as an
  untraced one;
* tracing is neutral across the whole execution matrix: shape ×
  engine × faults × tracing give identical rounds, activations,
  scheduler checksums, fault counters, and forests.  Each matrix runs on
  a random hole-free blob and on a deep shape (a comb or a line).
"""

from __future__ import annotations

import dataclasses
import functools
from contextlib import nullcontext

import pytest

from repro.api import Session, SolveRequest
from repro.dynamics import DynamicSPF, FaultInjector, generate_churn
from repro.obs.trace import Tracer, use_tracer
from repro.sched import ActivationEngine
from repro.sim.engine import CircuitEngine
from repro.sim.trace import attach_trace
from repro.spf.spt import shortest_path_tree
from repro.workloads import random_hole_free
from repro.workloads.specs import build_structure
from tests.node_oracles import index_of, run_round

SHAPES = ("random:60:11", "comb:6:8")
ENGINES = ("sync", "random:1", "adversarial")
FAULTS = ("off", "crash", "drop")
TRACING = ("off", "attach_trace", "trace_rounds")


class TestTracedEngineKeepsItsStages:
    def test_traced_all_crashed_engine_hears_nothing(self):
        structure = build_structure("hexagon:2")
        engine = CircuitEngine(structure)
        engine.fault_injector = FaultInjector(crashed=structure.nodes)
        trace = attach_trace(engine)
        layout = engine.global_layout()
        beeper = next(iter(structure))
        beep = index_of(layout.compiled().index, (beeper, "global"))
        assert list(engine.run_round_indexed(layout, [beep], [beep])) == [False]
        heard = run_round(engine, layout, [(beeper, "global")])
        assert not any(heard.values())
        assert engine.fault_injector.stats.suppressed == 2
        assert [r.beeping_sets for r in trace.records] == [0, 0]

    def test_traced_activation_engine_charges_the_same_epochs(self):
        structure = random_hole_free(40, seed=3)
        nodes = sorted(structure.nodes)
        runs = []
        for traced in (False, True):
            engine = ActivationEngine(structure, scheduler="random:1")
            if traced:
                trace = attach_trace(engine)
            shortest_path_tree(engine, structure, nodes[0], nodes[-3:])
            runs.append(
                (
                    engine.rounds.total,
                    engine.rounds.activations,
                    engine.stats.epochs,
                    engine.stats.activations,
                    engine.stats.checksum,
                )
            )
        assert runs[0] == runs[1]
        assert runs[1][2] == runs[1][0] > 0  # one epoch per round
        assert len(trace) == runs[1][0]


def _fingerprint(engine, injector, forest):
    """Everything tracing must leave untouched, as one comparable tuple."""
    stats = getattr(engine, "stats", None)
    return (
        engine.rounds.total,
        engine.rounds.activations,
        None if stats is None else (stats.epochs, stats.retransmissions, stats.checksum),
        None if injector is None else dataclasses.astuple(injector.stats),
        dict(forest.parent),
    )


@functools.lru_cache(maxsize=None)
def _dynamic_run(shape, engine, faults, tracing):
    """A seeded churn run through ``DynamicSPF``, the armed-fault path."""
    structure = build_structure(shape)
    nodes = sorted(structure.nodes)
    injector = {
        "off": None,
        "crash": FaultInjector(crashed=nodes[1::2]),
        "drop": FaultInjector(drop_prob=0.3, seed=5),
    }[faults]
    runner = (
        CircuitEngine(structure)
        if engine == "sync"
        else ActivationEngine(structure, scheduler=engine)
    )
    dyn = DynamicSPF(structure, [nodes[0]], nodes[-4:], faults=injector, engine=runner)
    script = generate_churn(
        structure, "mixed", steps=4, batch_size=3, seed=7, protected=dyn.protected
    )
    tracer = Tracer(trace_rounds=True)
    if tracing == "attach_trace":
        trace = attach_trace(dyn.engine)
    elif tracing == "trace_rounds":
        dyn.engine.enable_round_tracing()
    with use_tracer(tracer) if tracing == "trace_rounds" else nullcontext():
        dyn.apply_script(script)
    if tracing == "attach_trace":
        assert len(trace) > 0
    elif tracing == "trace_rounds":
        assert any(r["name"] == "round" for r in tracer.records())
    return _fingerprint(dyn.engine, injector, dyn.forest)


@pytest.mark.parametrize("tracing", TRACING)
@pytest.mark.parametrize("faults", FAULTS)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("shape", SHAPES)
def test_tracing_is_neutral(shape, engine, faults, tracing):
    traced = _dynamic_run(shape, engine, faults, tracing)
    assert traced == _dynamic_run(shape, engine, faults, "off")
    if faults != "off":
        assert traced[3] != dataclasses.astuple(FaultInjector().stats)


@pytest.mark.parametrize("faults", ({"crash": 20}, {"drop": 0.3}), ids=("crash", "drop"))
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("shape", ("random:60:3", "line:40"))
def test_session_churn_tracing_is_neutral(shape, engine, faults):
    request = SolveRequest(
        kind="churn", shape=shape, k=1, l=3, churn="mixed",
        churn_steps=4, scheduler="" if engine == "sync" else engine,
        **faults,
    )
    plain = Session().run(request)
    tracer = Tracer(trace_rounds=True)
    with use_tracer(tracer):
        traced = Session().run(request)
    assert any(r["name"] == "round" for r in tracer.records())
    for report in (plain, traced):
        assert report.faults["lost"] > 0
    assert (traced.rounds, traced.activations, traced.sched, traced.faults) == (
        plain.rounds, plain.activations, plain.sched, plain.faults,
    )
    assert traced.forest.parent == plain.forest.parent
