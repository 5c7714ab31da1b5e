"""Public entry point for the (k, l)-shortest path forest problem.

Quickstart (the unified facade)::

    from repro import Session, SolveRequest, hexagon, solve_spf

    structure = hexagon(4)
    nodes = sorted(structure.nodes)

    # One-shot: the classic free function.
    solution = solve_spf(structure, [nodes[0]], nodes[-5:])

    # Reusing hot state across solves: a Session owns the engine
    # configuration (scheduler, layout caches) and hands the
    # same engine policy to every call.
    session = Session(scheduler="random:1")
    solution = solve_spf(structure, [nodes[0]], nodes[-5:], session=session)
    print(solution.rounds, solution.activations)

    # Fully declarative (what `repro serve` executes): requests are
    # serializable, content-hashed, and cached by the session's store.
    report = session.run(SolveRequest(shape="hexagon:4", k=1, l=5))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Set

from repro.grid.coords import Node
from repro.grid.structure import AmoebotStructure
from repro.sim.engine import CircuitEngine
from repro.spf.forest import shortest_path_forest
from repro.spf.spt import shortest_path_tree
from repro.spf.types import Forest


@dataclass
class SPFSolution:
    """Result of :func:`solve_spf`.

    Attributes
    ----------
    forest:
        The computed (S, D)-shortest path forest.
    rounds:
        Synchronous rounds spent (preprocessing for compass/chirality
        and leader agreement — ``O(log n)`` w.h.p. by Theorems 1/2 —
        is assumed done, exactly as in the paper).
    algorithm:
        ``"spt"`` (Section 4) for ``k = 1``; ``"forest"`` (Section 5)
        otherwise.
    activations:
        Amoebot activations spent; ``n * rounds`` under the synchronous
        engine, the real wake-up count under an event-driven one
        (:mod:`repro.sched`).
    """

    forest: Forest
    rounds: int
    algorithm: str
    activations: int = 0


def solve_spf(
    structure: AmoebotStructure,
    sources: Iterable[Node],
    destinations: Iterable[Node],
    engine: Optional[CircuitEngine] = None,
    allow_holes: bool = False,
    *,
    session: Optional[object] = None,
) -> SPFSolution:
    """Solve (k, l)-SPF on an amoebot structure.

    Dispatches to the shortest path tree algorithm (Theorem 39,
    ``O(log l)`` rounds) for a single source and to the divide & conquer
    forest algorithm (Theorem 56, ``O(log n log² k)`` rounds) otherwise.

    Both polylogarithmic algorithms require a hole-free structure
    (Lemmas 9 and 11 fail otherwise — the paper's stated open problem).
    With ``allow_holes=True`` a structure with holes is handled by the
    circuit-free BFS wave instead: still a correct (S, D)-shortest path
    forest, but at ``Θ(max_d dist(S, d))`` rounds.  The returned
    ``algorithm`` field says which path was taken.

    ``session`` (a :class:`repro.api.Session`) supplies the engine —
    scheduler and shared layout caches in one object; the
    session's ``allow_holes`` policy applies when the kwarg is left at
    its default.  ``engine`` remains the low-level composition hook for
    callers that manage an engine's lifecycle themselves (the dynamics
    layer, the session's own pipelines); it is mutually exclusive with
    ``session``.  An event-driven scheduler is a session setting:
    ``session=Session(scheduler="random:1")``.
    """
    source_set = set(sources)
    dest_set = set(destinations)
    if not source_set or not dest_set:
        raise ValueError("sources and destinations must be non-empty")
    if session is not None:
        if engine is not None:
            raise ValueError("pass either engine or session, not both")
        engine = session.engine_for(structure)
        allow_holes = allow_holes or getattr(session, "allow_holes", False)
    if engine is None:
        engine = CircuitEngine(structure)
    start = engine.rounds.total
    start_activations = engine.rounds.activations

    # The constructor counted the holes on the grid index; a trusted
    # structure counts them there on first use.
    if structure.hole_count():
        if not allow_holes:
            raise ValueError(
                "structure has holes; the polylogarithmic algorithms "
                "require hole-free structures (pass allow_holes=True "
                "for the O(diam) wave fallback)"
            )
        forest = _wave_fallback(engine, structure, source_set, dest_set)
        algorithm = "wave-fallback"
    elif len(source_set) == 1:
        source = next(iter(source_set))
        forest = shortest_path_tree(engine, structure, source, dest_set).forest
        algorithm = "spt"
    else:
        forest = shortest_path_forest(engine, structure, source_set, dest_set)
        algorithm = "forest"

    return SPFSolution(
        forest=forest,
        rounds=engine.rounds.total - start,
        algorithm=algorithm,
        activations=engine.rounds.activations - start_activations,
    )


def _wave_fallback(
    engine: CircuitEngine,
    structure: AmoebotStructure,
    sources: Set[Node],
    destinations: Set[Node],
) -> Forest:
    """BFS wave + pruning: correct on any structure, Θ(diam) rounds."""
    from repro.baselines.bfs_wave import bfs_wave_forest

    wave = bfs_wave_forest(engine, structure, sources, destinations)
    return Forest.chains(wave.index, sources, wave.parent, destinations)
