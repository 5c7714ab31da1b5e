"""Property test: compiled-array rounds match a dict-based reference.

The compiled layer (:mod:`repro.sim.compiled`) must be observationally
identical to the specification it replaced: beeps propagate exactly
within the connected components of the partition-set graph induced by
the wired external links.  This file keeps an *independent* reference
implementation — plain dict/set BFS over (node, label) tuples, no shared
code with the compiled layer — and checks, over random hole-free
structures and random pin assignments:

* the full ``run_round`` result dict,
* ``listen`` subsets (including the empty subset),
* the integer fast path ``run_round_indexed`` bit lists,
* error paths (beeping or listening on undeclared sets), and
* incremental recompilation after ``derive``/``reassign``/
  ``exchange_slots`` re-wiring versus a from-scratch build of the same
  wiring,
* faulty rounds: one injector seed replays the same drops, and a drop
  only ever removes hears, and
* the union-find labeler against a BFS labeling of the same graph.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.coords import Node
from repro.grid.directions import opposite
from repro.sim.circuits import CircuitLayout
from repro.sim.engine import CircuitEngine
from repro.sim.errors import PinConfigurationError
from repro.workloads.random_structures import random_hole_free

from tests.conftest import exchange_pins
from tests.node_oracles import assign, index_of, indices, reassign, run_round

CHANNELS = 3
LABELS = ("a", "b", "c")

PinSpec = Tuple[Node, object, int]  # (node, direction, channel)
SetId = Tuple[Node, str]


# ----------------------------------------------------------------------
# reference implementation (dicts and BFS only)
# ----------------------------------------------------------------------


def reference_components(
    declared: Set[SetId], pins_of: Dict[SetId, List[PinSpec]]
) -> Dict[SetId, int]:
    """Connected components of the partition-set graph, by plain BFS."""
    owner: Dict[PinSpec, SetId] = {}
    for set_id, pins in pins_of.items():
        for pin in pins:
            owner[pin] = set_id
    neighbors: Dict[SetId, List[SetId]] = {s: [] for s in declared}
    for (node, direction, channel), set_id in owner.items():
        mate = (node.neighbor(direction), opposite(direction), channel)
        mate_owner = owner.get(mate)
        if mate_owner is not None:
            neighbors[set_id].append(mate_owner)
    component: Dict[SetId, int] = {}
    label = 0
    for start in declared:
        if start in component:
            continue
        queue = [start]
        component[start] = label
        while queue:
            current = queue.pop()
            for nxt in neighbors[current]:
                if nxt not in component:
                    component[nxt] = label
                    queue.append(nxt)
        label += 1
    return component


def reference_round(
    declared: Set[SetId],
    pins_of: Dict[SetId, List[PinSpec]],
    beeps: List[SetId],
) -> Dict[SetId, bool]:
    """The expected full round result: hears iff sharing a circuit."""
    component = reference_components(declared, pins_of)
    beeping = {component[s] for s in beeps}
    return {s: component[s] in beeping for s in declared}


# ----------------------------------------------------------------------
# random wirings
# ----------------------------------------------------------------------


def build_assignment(draw, structure) -> Dict[SetId, List[PinSpec]]:
    """Draw a random, valid pin assignment over ``structure``."""
    pins_of: Dict[SetId, List[PinSpec]] = {}
    for node in sorted(structure.nodes):
        # Randomly declare up to all three labels, some possibly empty.
        declared = draw(
            st.lists(st.sampled_from(LABELS), unique=True, max_size=len(LABELS))
        )
        for label in declared:
            pins_of[(node, label)] = []
        if not declared:
            continue
        for direction in structure.occupied_directions(node):
            for channel in range(CHANNELS):
                choice = draw(
                    st.one_of(st.none(), st.sampled_from(declared))
                )
                if choice is not None:
                    pins_of[(node, choice)].append((node, direction, channel))
    return pins_of


def apply_assignment(
    engine: CircuitEngine, pins_of: Dict[SetId, List[PinSpec]]
) -> CircuitLayout:
    layout = engine.new_layout()
    for (node, label), pins in pins_of.items():
        assign(layout, node, label, [(d, c) for (_n, d, c) in pins])
    return layout


@st.composite
def round_cases(draw):
    """A structure, a wiring, and the beep/listen choices of one round."""
    n = draw(st.integers(min_value=2, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    compactness = draw(st.sampled_from([0.1, 0.5, 0.9]))
    structure = random_hole_free(n, seed=seed, compactness=compactness)
    pins_of = build_assignment(draw, structure)
    declared = sorted(pins_of)
    beeps = draw(st.lists(st.sampled_from(declared), max_size=6)) if declared else []
    listen = (
        draw(st.lists(st.sampled_from(declared), max_size=8)) if declared else []
    )
    return structure, pins_of, beeps, listen


# ----------------------------------------------------------------------
# equivalence properties
# ----------------------------------------------------------------------


def compile_wiring(sets, pin_owner) -> Dict:
    """Tuple-keyed reference lowering of a wiring to its circuits.

    ``pin_owner`` maps each :class:`~repro.sim.pins.Pin` to its owning
    partition set; a pin's partner is found by ``Pin.mate()`` and a
    dict probe, the object-level path the integer lowering replaced.
    Returns partition set -> circuit label.
    """
    adj: Dict = {set_id: [] for set_id in sets}
    for pin, owner in pin_owner.items():
        mate_owner = pin_owner.get(pin.mate())
        if mate_owner is not None:
            adj[owner].append(mate_owner)
    comp: Dict = {}
    for start in adj:
        if start in comp:
            continue
        label = comp[start] = len(comp)
        stack = [start]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in comp:
                    comp[nxt] = label
                    stack.append(nxt)
    return comp


@settings(max_examples=40, deadline=None)
@given(case=round_cases())
def test_integer_lowering_matches_tuple_reference(case):
    # The layout lowers through compile_wiring_ids (integer pins, grid
    # index mirror-edge mates); compile_wiring above is the tuple-keyed
    # reference lowering.  Both must produce the same circuits, up to
    # component renumbering.
    structure, pins_of, _beeps, _listen = case
    engine = CircuitEngine(structure, channels=CHANNELS)
    layout = apply_assignment(engine, pins_of)
    compiled = layout.compiled()

    reference = compile_wiring(layout.partition_sets(), layout.pin_assignments())
    grouped: Dict[int, Set] = {}
    for set_id, label in reference.items():
        grouped.setdefault(label, set()).add(set_id)
    expected = {frozenset(members) for members in grouped.values()}

    actual: Dict[int, Set] = {}
    for i, set_id in enumerate(compiled.index.ids):
        actual.setdefault(compiled.comp[i], set()).add(set_id)
    assert {frozenset(members) for members in actual.values()} == expected
    assert compiled.n_components == len(grouped)


@settings(max_examples=60, deadline=None)
@given(case=round_cases())
def test_round_matches_reference(case):
    structure, pins_of, beeps, listen = case
    engine = CircuitEngine(structure, channels=CHANNELS)
    layout = apply_assignment(engine, pins_of)
    expected = reference_round(set(pins_of), pins_of, beeps)

    # Full materialization.
    assert run_round(engine, layout, beeps) == expected

    # Listen subsets (duplicates allowed; empty subset stays empty).
    subset = run_round(engine, layout, beeps, listen=listen)
    assert subset == {s: expected[s] for s in listen}
    assert run_round(engine, layout, beeps, listen=()) == {}

    # Integer fast path: same bits, in listen order and in index order.
    index = layout.compiled().index
    beep_idx = indices(index, beeps, "beep on")
    bits = engine.run_round_indexed(layout, beep_idx, indices(index, listen))
    assert list(bits) == [expected[s] for s in listen]
    all_bits = engine.run_round_indexed(layout, beep_idx)
    assert list(all_bits) == [expected[s] for s in index.ids]

    # The layout's component view agrees with the reference grouping.
    reference = reference_components(set(pins_of), pins_of)
    component_map = layout.component_map()
    assert len(set(component_map.values())) == len(set(reference.values()))
    for a in pins_of:
        for b in pins_of:
            assert (component_map[a] == component_map[b]) == (
                reference[a] == reference[b]
            )


@settings(max_examples=30, deadline=None)
@given(case=round_cases(), data=st.data())
def test_derived_rewiring_matches_fresh_build(case, data):
    structure, pins_of, beeps, listen = case
    engine = CircuitEngine(structure, channels=CHANNELS)
    base = apply_assignment(engine, pins_of)
    base.freeze()

    # Randomly re-wire a few sets on a derived layout...
    derived = base.derive()
    rewired = {k: list(v) for k, v in pins_of.items()}
    declared = sorted(pins_of)
    if declared:
        for set_id in data.draw(
            st.lists(st.sampled_from(declared), unique=True, max_size=3)
        ):
            node, label = set_id
            keep = [
                p
                for p in rewired[set_id]
                if data.draw(st.booleans())
            ]
            rewired[set_id] = keep
            reassign(derived, node, label, [(d, c) for (_n, d, c) in keep])
    derived.freeze()

    # ...and the incremental recompilation must match both the reference
    # and a from-scratch build of the identical wiring.
    expected = reference_round(set(rewired), rewired, beeps)
    assert run_round(engine, derived, beeps) == expected

    fresh = apply_assignment(engine, rewired)
    assert run_round(engine, fresh, beeps) == expected

    def grouping(layout):
        return {frozenset(circuit) for circuit in layout.circuits()}

    assert grouping(derived) == grouping(fresh)


def test_error_paths_match_reference_contract():
    structure = random_hole_free(5, seed=3)
    engine = CircuitEngine(structure, channels=CHANNELS)
    layout = engine.global_layout(label="g")
    probe = (next(iter(structure)), "g")
    ghost = (next(iter(structure)), "ghost")

    with pytest.raises(PinConfigurationError, match="cannot beep on undeclared"):
        run_round(engine, layout, [ghost])
    with pytest.raises(PinConfigurationError, match="cannot listen on undeclared"):
        run_round(engine, layout, [probe], listen=[ghost])
    index = layout.compiled().index
    with pytest.raises(PinConfigurationError, match="cannot beep on undeclared"):
        indices(index, [ghost], "beep on")
    with pytest.raises(PinConfigurationError, match="cannot listen on undeclared"):
        index_of(index, ghost, "listen on")
    # The round counter must not tick when validation rejects the beeps.
    before = engine.rounds.total
    with pytest.raises(PinConfigurationError):
        run_round(engine, layout, [ghost])
    assert engine.rounds.total == before


def test_exchange_on_derived_layout_matches_reference():
    # PASC's crossing flip: swapping pin ownership between sibling sets
    # on a derived layout must recompile to the circuits of the swapped
    # wiring.
    structure = random_hole_free(12, seed=5)
    engine = CircuitEngine(structure, channels=CHANNELS)
    pins_of: Dict[SetId, List[PinSpec]] = {}
    for node in sorted(structure.nodes):
        dirs = list(structure.occupied_directions(node))
        pins_of[(node, "a")] = [(node, d, 0) for d in dirs]
        pins_of[(node, "b")] = [(node, d, 1) for d in dirs]
    base = apply_assignment(engine, pins_of)
    base.freeze()
    derived = base.derive()
    swapped = dict(pins_of)
    for node in sorted(structure.nodes)[:4]:
        dirs = list(structure.occupied_directions(node))
        exchange_pins(derived, node, "a", "b", [(d, c) for d in dirs for c in (0, 1)])
        swapped[(node, "a")] = pins_of[(node, "b")]
        swapped[(node, "b")] = pins_of[(node, "a")]
    derived.freeze()

    component = reference_components(set(swapped), swapped)
    circuits: Dict[int, Set[SetId]] = {}
    for set_id, label in component.items():
        circuits.setdefault(label, set()).add(set_id)
    assert {frozenset(c) for c in derived.circuits()} == {
        frozenset(c) for c in circuits.values()
    }
    for set_id in sorted(swapped):
        assert run_round(engine, derived, [set_id]) == reference_round(
            set(swapped), swapped, [set_id]
        )


@settings(max_examples=20, deadline=None)
@given(case=round_cases(), seed=st.integers(min_value=0, max_value=1000))
def test_faulty_rounds_replay_from_the_injector_seed(case, seed):
    # The fault injector owns its randomness, so two engines armed with
    # the same seed drop the same beeps and detect the same missed
    # hears.  A drop only removes beeps, so every faulty hear is one the
    # reference hears too.
    from repro.dynamics.faults import FaultInjector

    structure, pins_of, beeps, listen = case
    expected = reference_round(set(pins_of), pins_of, beeps)
    runs = []
    for _ in range(2):
        engine = CircuitEngine(structure, channels=CHANNELS)
        layout = apply_assignment(engine, pins_of)
        injector = FaultInjector(drop_prob=0.5, seed=seed)
        engine.fault_injector = injector
        index = layout.compiled().index
        beep_idx = indices(index, beeps, "beep on")
        listen_idx = indices(index, listen)
        bits = [
            list(engine.run_round_indexed(layout, beep_idx, listen_idx))
            for _ in range(4)
        ]
        for round_bits in bits:
            for set_id, heard in zip(listen, round_bits):
                assert expected[set_id] or not heard
        runs.append((bits, dataclasses.astuple(injector.stats)))
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# the labeler: union-find over the integer adjacency table against a
# plain BFS labeling, on orders that stress path halving and union by
# size
# ----------------------------------------------------------------------


def reference_labels(size: int, edges: List[Tuple[int, int]]) -> Tuple[List[int], int]:
    """Dense labels by BFS, numbered by each component's least member."""
    neighbors: List[List[int]] = [[] for _ in range(size)]
    for a, b in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    labels = [-1] * size
    count = 0
    for start in range(size):
        if labels[start] != -1:
            continue
        labels[start] = count
        queue = [start]
        while queue:
            current = queue.pop()
            for nxt in neighbors[current]:
                if labels[nxt] == -1:
                    labels[nxt] = count
                    queue.append(nxt)
        count += 1
    return labels, count


def _labeler_output(size: int, edges: List[Tuple[int, int]]) -> Tuple[List[int], int]:
    from repro.sim.compiled import _components

    labels, count = _components(size, edges)
    return list(labels), count


def _path_edges(order: List[int]) -> List[Tuple[int, int]]:
    return list(zip(order, order[1:]))


def _labeler_cases() -> Dict[str, Tuple[int, List[Tuple[int, int]]]]:
    import random

    n = 257
    zigzag = [i // 2 if i % 2 == 0 else n - 1 - i // 2 for i in range(n)]
    shuffled = list(range(n))
    random.Random(7).shuffle(shuffled)
    star = [(0, i) for i in range(1, 40)]
    reversed_star = [(i, 39) for i in range(39)]
    two_paths = _path_edges(list(range(0, 60, 2))) + _path_edges(
        list(range(59, 0, -2))
    )
    return {
        "path_ascending": (n, _path_edges(list(range(n)))),
        "path_descending": (n, _path_edges(list(range(n - 1, -1, -1)))),
        "path_zigzag": (n, _path_edges(zigzag)),
        "path_random": (n, _path_edges(shuffled)),
        "star_center_first": (40, star),
        "star_center_last": (40, reversed_star),
        "stars_with_singletons": (100, star + [(70, 50), (50, 90)]),
        "isolated_singletons": (12, []),
        "empty_universe": (0, []),
        "duplicate_and_reversed": (
            10,
            [(3, 1), (1, 3), (3, 1), (1, 3), (7, 7), (9, 4), (4, 9), (9, 4)],
        ),
        "interleaved_paths": (60, two_paths),
    }


@pytest.mark.parametrize("name", sorted(_labeler_cases()))
def test_labeler_matches_reference(name):
    size, edges = _labeler_cases()[name]
    assert _labeler_output(size, edges) == reference_labels(size, edges)


@settings(max_examples=60, deadline=None)
@given(
    data=st.integers(min_value=1, max_value=80).flatmap(
        lambda size: st.tuples(
            st.just(size),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=size - 1),
                    st.integers(min_value=0, max_value=size - 1),
                ),
                max_size=3 * size,
            ),
        )
    )
)
def test_labeler_matches_reference_on_random_graphs(data):
    size, edges = data
    assert _labeler_output(size, edges) == reference_labels(size, edges)
