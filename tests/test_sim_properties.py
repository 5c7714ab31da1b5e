"""Property-based tests of the circuit simulator's invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import CircuitEngine
from repro.workloads import random_hole_free
from tests.node_oracles import assign, run_round


def random_layout(engine, rng):
    """A random pin configuration: each amoebot splits its pins into
    one or two partition sets on channel 0."""
    structure = engine.structure
    layout = engine.new_layout()
    for u in structure:
        directions = structure.occupied_directions(u)
        rng.shuffle(directions)
        cut = rng.randint(0, len(directions))
        assign(layout, u, "a", [(d, 0) for d in directions[:cut]])
        assign(layout, u, "b", [(d, 0) for d in directions[cut:]])
    layout.freeze()
    return layout


@given(st.integers(min_value=0, max_value=2**16))
@settings(max_examples=20, deadline=None)
def test_circuits_partition_the_partition_sets(seed):
    rng = random.Random(seed)
    structure = random_hole_free(rng.randint(5, 60), seed=seed)
    engine = CircuitEngine(structure)
    layout = random_layout(engine, rng)
    circuits = layout.circuits()
    flattened = [set_id for circuit in circuits for set_id in circuit]
    assert len(flattened) == len(set(flattened))
    assert set(flattened) == layout.partition_sets()


@given(st.integers(min_value=0, max_value=2**16))
@settings(max_examples=20, deadline=None)
def test_beep_delivery_equals_component_membership(seed):
    rng = random.Random(seed)
    structure = random_hole_free(rng.randint(5, 50), seed=seed + 1)
    engine = CircuitEngine(structure)
    layout = random_layout(engine, rng)
    all_sets = sorted(layout.partition_sets())
    beepers = rng.sample(all_sets, max(1, len(all_sets) // 5))
    received = run_round(engine, layout, beepers)
    beeping_circuits = {layout.circuit_of(*b) for b in beepers}
    for set_id in all_sets:
        expected = layout.circuit_of(*set_id) in beeping_circuits
        assert received[set_id] == expected


@given(st.integers(min_value=0, max_value=2**16))
@settings(max_examples=15, deadline=None)
def test_connected_partition_sets_share_circuits_symmetrically(seed):
    rng = random.Random(seed)
    structure = random_hole_free(rng.randint(5, 40), seed=seed + 2)
    engine = CircuitEngine(structure)
    layout = random_layout(engine, rng)
    # Any two partition sets joined by an external link must be in the
    # same circuit; verified by walking all physical links.
    from repro.sim.pins import Pin

    component = layout.component_map()
    # The decoded pin-assignment view exists exactly for this kind of
    # white-box check; the layout itself stores integer pins.
    owners = layout.pin_assignments()
    for u in structure:
        for d in structure.occupied_directions(u):
            pin = Pin(u, d, 0)
            owner = owners.get(pin)
            mate_owner = owners.get(pin.mate())
            if owner and mate_owner:
                assert component[owner] == component[mate_owner]
