"""Contract of the hot value types: ``Node`` and ``Pin``.

Both are ``typing.NamedTuple`` classes, so hashing, equality, ordering
and construction run in C.  Their hash must equal the hash of the tuple
of their fields: the iteration order of every node- and pin-keyed set
or dict depends on it, and with that order every tie-break, round count
and pinned forest.
"""

import pickle

import pytest

from repro.grid.coords import Node
from repro.grid.directions import Direction
from repro.sim.pins import Pin

NODES = [Node(x, y) for x in (-2, 0, 1, 3) for y in (-1, 0, 2)]
PINS = [
    Pin(node, direction, channel)
    for node in NODES[:4]
    for direction in (Direction.E, Direction.NW, Direction.SE)
    for channel in (0, 2)
]

FIELDS = {
    Node: lambda v: (v.x, v.y),
    Pin: lambda v: (v.node, v.direction, v.channel),
}

ALL_VALUES = NODES + PINS


def fields(value):
    return FIELDS[type(value)](value)


@pytest.mark.parametrize("value", ALL_VALUES, ids=repr)
def test_hash_is_the_field_tuple_hash(value):
    assert hash(value) == hash(fields(value))


@pytest.mark.parametrize("values", [NODES, PINS], ids=["Node", "Pin"])
def test_order_is_field_wise(values):
    shuffled = values[::-1][1::2] + values[::-1][::2]
    assert sorted(shuffled) == sorted(shuffled, key=fields)
    for a, b in zip(values, values[1:]):
        assert (a < b) == (fields(a) < fields(b))
        assert (a == b) == (fields(a) == fields(b))


@pytest.mark.parametrize("value", [NODES[0], PINS[0]], ids=repr)
def test_instances_carry_no_dict(value):
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value", [NODES[-1], PINS[-1]], ids=repr)
def test_pickle_round_trip(value):
    restored = pickle.loads(pickle.dumps(value))
    assert restored == value
    assert type(restored) is type(value)
    assert fields(restored) == fields(value)


def test_node_repr():
    assert repr(Node(1, 2)) == "Node(1, 2)"
    assert repr(Node(-3, 0)) == "Node(-3, 0)"


def test_node_equals_plain_tuple():
    # Documented behaviour of a tuple-backed node.
    assert Node(1, 2) == (1, 2)
    assert {(1, 2): "a"}[Node(1, 2)] == "a"
    x, y = Node(1, 2)
    assert (x, y) == (1, 2)
