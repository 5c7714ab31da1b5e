"""Circuit-free BFS wave baseline.

Without reconfigurable circuits, a beep only reaches direct neighbors,
so distance information spreads one hop per round — this is the regime
of the plain geometric amoebot model and of the beeping model, with its
``Ω(diam)`` lower bound for shortest path problems.  The wave is run on
the circuit engine with every partition set a *singleton* (one pin),
which by definition restricts each circuit to a single external link
(Section 1.2: "if each partition set is a singleton, every circuit just
connects two neighboring amoebots").

Every round, wavefront amoebots beep on all incident links; an
unreached amoebot that hears a beep joins the forest, taking the first
beeping direction (counterclockwise) as its parent.  The wave runs
until every destination is reached; reaching all of ``D`` is detected
with one global-circuit beep per round by the freshly covered
destinations' counter — charged one extra round at the end, keeping the
baseline's cost at ``ecc(S) + O(1)`` rounds.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.grid.coords import Node
from repro.grid.directions import Direction
from repro.grid.structure import AmoebotStructure
from repro.sim.circuits import CircuitLayout
from repro.sim.engine import CircuitEngine
from repro.spf.types import Forest


def wave_set_label(direction: Direction) -> str:
    """The singleton partition set of an amoebot's link toward ``direction``."""
    return f"wave:{direction.name}"


def build_wave_layout(engine: CircuitEngine, structure: AmoebotStructure) -> CircuitLayout:
    """Singleton pin configuration: one partition set per incident link.

    Shared by the BFS wave baseline and the dynamic repair wave
    (:class:`repro.dynamics.maintain.DynamicSPF`), which derives it
    across structure versions.
    """
    layout = engine.new_layout()
    layout.assign_sets(_link_sets(engine.structure.grid_index(), structure.grid_index()))
    layout.freeze()
    return layout


def _link_sets(index, sub):
    """One singleton set per link of ``sub``, with ``index``'s ids.

    The wave may run on a sub-structure: its links are the
    sub-structure's, its ids the engine structure's.
    """
    labels = [wave_set_label(d) for d in Direction]
    for sid in sub.live_ids():
        nid = index.id_of(sub.nodes[sid])
        for d in sub.occupied_direction_values(sid):
            yield nid, labels[d], ((nid * 6 + d, 0),)


def bfs_wave_forest(
    engine: CircuitEngine,
    structure: AmoebotStructure,
    sources: Iterable[Node],
    destinations: Optional[Iterable[Node]] = None,
    section: str = "bfs_wave",
) -> Forest:
    """Multi-source BFS wave; ``Θ(max_d dist(S, d))`` rounds."""
    source_set = set(sources)
    if not source_set:
        raise ValueError("need at least one source")
    dest_set = (
        set(destinations) if destinations is not None else set(structure.nodes)
    )
    pending = set(dest_set) - source_set

    # The wiring never changes, so the layout is built once (and cached
    # on the engine for repeated waves over the same structure).  The
    # key carries the node set: callers may run waves over
    # sub-structures of the engine's structure.
    layout = engine.layouts.get_or_build(
        ("bfs-wave", 0, structure.nodes),
        lambda: build_wave_layout(engine, structure),
    )

    parent: Dict[Node, Node] = {}
    reached: Set[Node] = set(source_set)
    frontier: Set[Node] = set(source_set)
    unreached: Set[Node] = set(structure.nodes) - reached

    # Integer set-ids per (amoebot, incident direction), resolved once:
    # each wave round then builds flat index lists instead of re-keying
    # f-string labels into dicts.
    index = layout.compiled().index
    slots: Dict[Node, List[Tuple[Direction, int]]] = {
        u: [
            (d, index.index_of((u, wave_set_label(d)), "listen on"))
            for d in structure.occupied_directions(u)
        ]
        for u in structure
    }

    with engine.rounds.section(section):
        while pending:
            beeps = [i for u in frontier for _d, i in slots[u]]
            if not beeps:
                raise AssertionError("wave died before covering all destinations")
            # Only unreached amoebots read their link sets; the heard
            # region shrinks as the wave advances.
            ordered = list(unreached)
            listen = [i for u in ordered for _d, i in slots[u]]
            received = engine.run_round_indexed(layout, beeps, listen)
            new_frontier: Set[Node] = set()
            cursor = 0
            for u in ordered:
                u_slots = slots[u]
                for offset, (d, _i) in enumerate(u_slots):
                    if received[cursor + offset]:
                        parent[u] = u.neighbor(d)
                        new_frontier.add(u)
                        break
                cursor += len(u_slots)
            reached |= new_frontier
            unreached -= new_frontier
            pending -= new_frontier
            frontier = new_frontier
        # Termination announcement on a global circuit.
        engine.charge_local_round()

    members = reached
    return Forest(sources=source_set, parent=parent, members=members)
