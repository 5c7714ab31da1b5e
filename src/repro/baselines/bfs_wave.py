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

:func:`timed_wave` is that round loop in grid-index ids.  The baseline
starts it from the sources at label 0; the dynamic repair
(:class:`repro.dynamics.maintain.DynamicSPF`) starts it from the
surviving labels around each dirty component.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.grid.coords import Node
from repro.grid.directions import Direction
from repro.grid.structure import AmoebotStructure
from repro.sim.circuits import CircuitLayout
from repro.sim.engine import CircuitEngine
from repro.spf.types import Forest


#: ``WAVE_LABELS[d]``: the singleton set of a link toward direction value ``d``.
WAVE_LABELS = [f"wave:{d.name}" for d in Direction]


def build_wave_layout(engine: CircuitEngine) -> CircuitLayout:
    """Singleton pin configuration: one partition set per incident link
    of the engine's structure.

    Shared by the BFS wave baseline and the dynamic repair wave
    (:class:`repro.dynamics.maintain.DynamicSPF`), which derives it
    across structure versions.
    """
    layout = engine.new_layout()
    layout.assign_sets(_link_sets(engine.structure.grid_index()))
    layout.freeze()
    return layout


def _link_sets(index):
    """One singleton set per link of the index's structure."""
    for nid in index.live_ids():
        for d in index.occupied_direction_values(nid):
            yield nid, WAVE_LABELS[d], ((nid * 6 + d, 0),)


def timed_wave(
    engine: CircuitEngine,
    layout: CircuitLayout,
    directions: Callable[[int], Sequence[int]],
    labels: Dict[int, int],
    listeners: Sequence[int],
    until: Optional[Iterable[int]] = None,
    cap: Optional[int] = None,
) -> Dict[int, Tuple[int, int]]:
    """Run one timed beep wave on a singleton wave layout.

    Amoebots are node ids of the layout's grid index.  ``labels`` maps
    the labelled amoebots to their labels, in beep order; ``listeners``
    are the unlabelled ones, in listen order; ``directions(nid)`` lists
    an amoebot's link directions in the wave's structure.  In round
    ``t`` the amoebots labelled ``base + t - 1`` (``base`` the smallest
    initial label) beep on all their links; every listener that hears
    takes the first direction that heard as its parent and ``base + t``
    as its label, and beeps one round later.  Beepers keep the given
    order, with listeners appended in listen order: under beep drops
    the order decides which beeps are lost.

    The wave ends once every id of ``until`` (default: every listener)
    is labelled.  Without a ``cap`` a round with no beeper is an error,
    and the end is announced on a global circuit, charged as one more
    round.  With a ``cap`` at most ``cap`` rounds run, and listeners
    never reached stay out of the result.

    Returns ``{nid: (parent id, label)}`` for every listener reached.
    """
    nbr = layout.structure.grid_index().nbr
    dirs_of = {nid: directions(nid) for nid in [*labels, *listeners]}
    slots = {
        nid: layout.set_ids([(nid, WAVE_LABELS[d]) for d in ds], "wave on")
        for nid, ds in dirs_of.items()
    }

    levels: Dict[int, List[int]] = {}
    for nid, label in labels.items():
        levels.setdefault(label, []).append(nid)
    base = min(labels.values())
    pending = list(listeners)
    remaining = set(pending if until is None else until)
    heard: Dict[int, Tuple[int, int]] = {}
    t = 0
    while remaining and (cap is None or t < cap):
        t += 1
        beeps = [i for nid in levels.get(base + t - 1, ()) for i in slots[nid]]
        if not beeps and cap is None:
            raise AssertionError("wave died before covering all destinations")
        listen = [i for nid in pending for i in slots[nid]]
        bits = engine.run_round_indexed(layout, beeps, listen)
        label = base + t
        newly: List[int] = []
        still: List[int] = []
        cursor = 0
        for nid in pending:
            ds = dirs_of[nid]
            for offset, d in enumerate(ds):
                if bits[cursor + offset]:
                    heard[nid] = (nbr[nid * 6 + d], label)
                    newly.append(nid)
                    break
            else:
                still.append(nid)
            cursor += len(ds)
        levels.setdefault(label, []).extend(newly)
        remaining.difference_update(newly)
        pending = still
    if cap is None:
        # Termination announcement on a global circuit.
        engine.charge_local_round()
    return heard


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

    # The wiring never changes, so the layout is built once (and cached
    # on the engine for repeated waves over the same structure).  The
    # key carries the node set: a layout cache may serve the engines
    # of several structures.
    layout = engine.layouts.get_or_build(
        ("bfs-wave", 0, structure.nodes),
        lambda: build_wave_layout(engine),
    )

    index = engine.structure.grid_index()
    id_of = index.id_of
    labels = dict.fromkeys(sorted(id_of(s) for s in source_set), 0)
    with engine.rounds.section(section):
        heard = timed_wave(
            engine,
            layout,
            index.occupied_direction_values,
            labels,
            [nid for nid in index.live_ids() if nid not in labels],
            until={id_of(d) for d in dest_set}.difference(labels),
        )
    return Forest(index, labels, {nid: p for nid, (p, _label) in heard.items()})
