"""Id-native Euler tours, ETT weights and PASC chains against the
Node-keyed oracles of :mod:`tests.node_oracles`.

The tour is read off per-node tree-direction bitmasks in grid-index
integers and the ETT's chain is wired by one
:meth:`~repro.sim.circuits.CircuitLayout.assign_pasc` call; "equal"
means the same directed edges in the same order, the same
``(node, occurrence)`` units, the same marked edges and the same prefix
sums as the historical ``Node``-keyed construction.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

import repro.spf.propagate as propagate_mod
from repro.api import Session, SolveRequest
from repro.ett.technique import ETTOp, mark_one_outgoing_edge, run_ett
from repro.ett.tour import adjacency_from_edges, edge_masks, euler_tour, tree_masks
from repro.grid.coords import Node
from repro.grid.directions import Axis, Direction
from repro.grid.structure import AmoebotStructure
from repro.portals.portals import PortalSystem
from repro.portals.primitives import PortalScope, portal_root_and_prune
from repro.sim.engine import CircuitEngine
from repro.sim.errors import PinConfigurationError
from repro.workloads import line_structure
from repro.workloads.specs import build_structure
from tests.conftest import bfs_tree_adjacency, node_chain, node_ids, node_tour
from tests.node_oracles import build_euler_tour, ett_prefix
from tests.node_oracles import mark_one_outgoing_edge as oracle_mark

SHAPES = ("random:300:7", "line:40", "comb:6:8", "hexagon:4", "staircase:4:5")


def assert_ett_matches_oracle(structure, tour, oracle, members, seed):
    """Same tour, marking and prefix sums as the Node-keyed oracle."""
    assert tour.edges == oracle.edges
    assert tour.units == oracle.units
    assert tour.root == oracle.root
    marked = mark_one_outgoing_edge(tour, node_ids(structure, members))
    oracle_marked = oracle_mark(oracle, members)
    assert marked == sorted(marked)
    assert {tour.edges[i] for i in marked} == oracle_marked
    result, _ = run_ett(CircuitEngine(structure), tour, marked)
    want = ett_prefix(oracle, oracle_marked)
    assert result.prefix == want
    assert result.total == len(set(members))
    rng = random.Random(seed)
    for u, v in rng.sample(oracle.edges, min(20, len(oracle.edges))):
        assert result.diff(u, v) == want[(u, v)] - want[(v, u)]


@pytest.mark.parametrize("axis", list(Axis), ids=lambda a: a.name)
@pytest.mark.parametrize("shape", SHAPES)
def test_portal_tree_tour_and_ett_match_oracle(shape, axis):
    structure = build_structure(shape)
    system = PortalSystem(structure, axis)
    count = system.portal_count()
    root_portal = count // 3
    tour = PortalScope(system).tour(root_portal)
    oracle = build_euler_tour(system.portal_nodes(root_portal)[0], system.implicit_adjacency)
    rng = random.Random(f"{shape}:{axis.name}")
    q = rng.sample(range(count), max(1, count // 4))
    members = [system.portal_nodes(p)[0] for p in q]
    assert_ett_matches_oracle(structure, tour, oracle, members, shape)


@pytest.mark.parametrize("shape", SHAPES)
def test_node_tree_tour_and_ett_match_oracle(shape):
    structure = build_structure(shape)
    root = min(structure.nodes)
    adjacency, parent = bfs_tree_adjacency(structure, root)
    tour = node_tour(structure, root, adjacency)
    oracle = build_euler_tour(root, adjacency)
    members = random.Random(shape).sample(sorted(adjacency), len(adjacency) // 5 + 1)
    assert_ett_matches_oracle(structure, tour, oracle, members, shape)
    # The same tree from its edges, without the adjacency lists.
    index = structure.grid_index()
    assert edge_masks(index, parent.items(), (root,)) == tree_masks(index, adjacency)


def test_one_node_tree():
    structure = line_structure(1)
    root = Node(0, 0)
    tour = node_tour(structure, root, {root: []})
    oracle = build_euler_tour(root, {root: []})
    assert (tour.length, tour.edges, tour.units) == (0, [], oracle.units)
    assert mark_one_outgoing_edge(tour, [tour.root_id]) == []
    op = ETTOp(tour, [])
    assert op.chain is None
    assert op.result().total == 0


def test_two_node_tree():
    structure = line_structure(2)
    a, b = Node(0, 0), Node(1, 0)
    adjacency = adjacency_from_edges([(a, b)])
    tour = node_tour(structure, b, adjacency)
    oracle = build_euler_tour(b, adjacency)
    assert tour.twin == [1, 0]
    assert tour.first_positions() == [0, 1]
    assert_ett_matches_oracle(structure, tour, oracle, [a, b], "two")


class TestTourErrors:
    def setup_method(self):
        self.a, self.b, self.c = Node(0, 0), Node(1, 0), Node(0, 1)
        self.structure = AmoebotStructure(
            [self.a, self.b, self.c, Node(1, 1), Node(2, 1), Node(3, 1)]
        )
        self.index = self.structure.grid_index()

    def ids(self, *nodes):
        return node_ids(self.structure, nodes)

    def test_cycle_is_not_a_tree(self):
        adjacency = adjacency_from_edges([(self.a, self.b), (self.b, self.c), (self.c, self.a)])
        with pytest.raises(ValueError, match="does not describe a tree"):
            node_tour(self.structure, self.a, adjacency)

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError, match="once from each end"):
            tree_masks(self.index, {self.a: [self.b], self.b: []})

    def test_root_outside_the_tree(self):
        adjacency = adjacency_from_edges([(self.a, self.b)])
        with pytest.raises(ValueError, match="is not a tree node"):
            node_tour(self.structure, self.c, adjacency)

    def test_isolated_root(self):
        # A triangle has as many edges as a four-node tree.
        masks = edge_masks(self.index, [(self.b, self.c), (self.c, Node(1, 1)), (Node(1, 1), self.b)])
        masks[self.ids(self.a)[0]] = 0
        with pytest.raises(ValueError, match="isolated root"):
            euler_tour(self.index, self.ids(self.a)[0], masks)

    def test_second_component_breaks_the_cycle(self):
        # A triangle plus a separate edge: as many edges as a five-node
        # tree, but the walk from the root closes after two steps.
        masks = edge_masks(
            self.index,
            [(self.b, self.c), (self.c, Node(1, 1)), (Node(1, 1), self.b), (Node(2, 1), Node(3, 1))],
        )
        with pytest.raises(ValueError, match="single cycle"):
            euler_tour(self.index, self.ids(Node(2, 1))[0], masks)

    def test_marked_position_outside_the_tour(self):
        tour = node_tour(self.structure, self.a, adjacency_from_edges([(self.a, self.b)]))
        with pytest.raises(ValueError, match="outside the tour"):
            ETTOp(tour, [2])

    def test_member_outside_the_tree(self):
        tour = node_tour(self.structure, self.a, adjacency_from_edges([(self.a, self.b)]))
        with pytest.raises(ValueError, match="not on the tree"):
            mark_one_outgoing_edge(tour, self.ids(self.c))


class TestAssignChain:
    """``assign_pasc`` makes the checks of ``assign_sets``."""

    def setup_method(self):
        self.structure = line_structure(4)
        self.engine = CircuitEngine(self.structure)
        self.nodes = [Node(i, 0) for i in range(4)]

    def test_channel_out_of_budget(self):
        run = node_chain(self.structure, self.nodes, (7, 8))
        with pytest.raises(PinConfigurationError, match=r"^channel 8 out of range \(c=8\)$"):
            run.contribute_layout(self.engine.new_layout())

    def test_pin_owned_by_another_set(self):
        layout = self.engine.new_layout()
        nid = node_ids(self.structure, self.nodes[1:2])[0]
        layout.assign_sets([(nid, "other", [(nid * 6 + Direction.E, 0)])])
        run = node_chain(self.structure, self.nodes)
        with pytest.raises(PinConfigurationError, match=r"already assigned to partition set \(Node\(1, 0\), 'other'\)"):
            run.contribute_layout(layout)

    def test_set_declared_twice(self):
        layout = self.engine.new_layout()
        node_chain(self.structure, self.nodes).contribute_layout(layout)
        with pytest.raises(PinConfigurationError, match="already declared"):
            node_chain(self.structure, self.nodes, (2, 3)).contribute_layout(layout)

    def test_refused_run_leaves_earlier_sets_declared(self):
        # A run that re-declares a set is refused before it declares any
        # of its own: the earlier run's sets keep their slots and pins.
        layout = self.engine.new_layout()
        node_chain(self.structure, self.nodes).contribute_layout(layout)
        before = (dict(layout._key_slot), list(layout._slot_keys), dict(layout._pin_slot))
        with pytest.raises(PinConfigurationError, match="already declared"):
            node_chain(self.structure, self.nodes, (2, 3)).contribute_layout(layout)
        assert (dict(layout._key_slot), list(layout._slot_keys), dict(layout._pin_slot)) == before

    def test_derived_layouts_are_rewired_not_rebuilt(self):
        layout = self.engine.new_layout()
        run = node_chain(self.structure, self.nodes)
        run.contribute_layout(layout)
        with pytest.raises(PinConfigurationError, match="fresh layouts"):
            node_chain(self.structure, self.nodes, tag="x").contribute_layout(
                layout.derive()
            )

    def test_binding_a_layout_of_another_wiring_is_refused(self):
        layout = self.engine.new_layout()
        node_chain(self.structure, self.nodes).contribute_layout(layout)
        layout.freeze()
        with pytest.raises(PinConfigurationError, match="out of order"):
            node_chain(self.structure, self.nodes[::-1]).bind_layout(layout)

    def test_chain_of_another_structure(self):
        other = line_structure(6)
        run = node_chain(other, self.nodes)
        with pytest.raises(PinConfigurationError, match="another structure"):
            run.contribute_layout(self.engine.new_layout())


def _contains_node(value) -> bool:
    if isinstance(value, Node):
        return True
    if isinstance(value, (tuple, list, set, frozenset)):
        return any(_contains_node(item) for item in value)
    if isinstance(value, dict):
        return any(_contains_node(k) or _contains_node(v) for k, v in value.items())
    return False


def test_cached_pasc_layouts_hold_no_node_objects():
    """Cached wiring keys and layouts after a portal root-and-prune are
    ints, strings and bytes: nothing the garbage collector must walk."""
    structure = build_structure("random:200:3")
    engine = CircuitEngine(structure)
    system = PortalSystem(structure, Axis.X)
    portal_root_and_prune(engine, system, 0, range(0, system.portal_count(), 3))
    entries = engine.layouts._entries
    assert any(key[0] == "pasc" for key in entries)
    for key, layout in entries.items():
        assert not _contains_node(key), key
        # No (node, label) tuple view was ever materialized.
        assert layout.compiled().index._ids is None
        state = {k: v for k, v in vars(layout).items() if k not in ("_structure", "_gi")}
        assert not _contains_node(state)


def test_forest_builds_each_portal_system_once(monkeypatch):
    """Propagations over one member set share its portal systems."""
    builds: Counter = Counter()
    alive = []

    def counting(structure, axis, members):
        alive.append(members)  # keep ids unique for the whole solve
        builds[(id(members), axis)] += 1
        return PortalSystem(structure, axis, members)

    monkeypatch.setattr(propagate_mod, "PortalSystem", counting)
    report = Session().run(SolveRequest(kind="solve", shape="random:500:3", k=4, l=5, seed=1))
    assert report.rounds == 460
    assert builds and max(builds.values()) == 1


def test_solve_cache_keys_hold_no_node_objects():
    """Every wiring key a forest solve caches — PASC chains and trees,
    elections, edge subsets — is made of ints, strings and bytes below
    the session's per-structure scope."""
    session = Session()
    session.run(SolveRequest(kind="solve", shape="random:500:3", k=4, l=5, seed=1))
    keys = [key for _scope, key in session.layouts._entries]
    assert {key[0] for key in keys} >= {"pasc", "elect", "edges", "global"}
    assert not any(_contains_node(key) for key in keys)
