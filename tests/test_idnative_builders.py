"""Id-native circuit builders against their Node-keyed oracles.

Fresh layouts are built from grid-index integers:
:meth:`CircuitLayout.assign_edges` (edge subsets from ``nid * 6 + d``
edge ids) and :meth:`CircuitLayout.assign_sets` (``(edge id, channel)``
pins into sets ``(nid, label)``), used by the engine's edge-subset
layouts, PASC runs (chains and trees alike) and the election layout.  The oracles
below are the Node-keyed constructions those builders replaced, written
with :meth:`CircuitLayout.assign`; "the same circuits" means the same
partition of ``(node, label)`` sets into circuits and the same
beep -> hear bits for a seeded sample of beep sets.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.api import Session, SolveRequest
from repro.ett.election import ElectionRequest, _election_layout
from repro.ett.technique import ETTOp, mark_one_outgoing_edge
from repro.grid.coords import Node
from repro.grid.directions import Axis, Direction, opposite
from repro.pasc.runner import run_pasc
from repro.portals.portals import PortalSystem
from repro.portals.primitives import PortalScope
from repro.sim.circuits import CircuitLayout
from repro.sim.engine import CircuitEngine
from repro.sim.errors import PinConfigurationError
from repro.workloads import line_structure
from repro.workloads.specs import build_structure
from tests.conftest import bfs_tree_adjacency, edge_ids, node_chain, node_ids, node_tour
from tests.node_oracles import assign, build_euler_tour, channels_for, node_tree_run, run_round, tour_links

SHAPES = (
    "random:150:2",
    "random:300:7",
    "line:40",
    "comb:6:8",
    "hexagon:4",
    "lollipop:2:8",
    "staircase:4:5",
)


# ----------------------------------------------------------------------
# Node-keyed oracles
# ----------------------------------------------------------------------
def oracle_edge_subset(structure, pairs, label, channel, isolated_ok):
    layout = CircuitLayout(structure, 8)
    touched = set()
    for u, v in pairs:
        assign(layout, u, label, [(u.direction_to(v), channel)])
        assign(layout, v, label, [(v.direction_to(u), channel)])
        touched.update((u, v))
    if isolated_ok:
        for node in structure:
            if node not in touched:
                assign(layout, node, label, ())
    layout.freeze()
    return layout


def oracle_chain(layout, units, links, weights, tag):
    """Unit ``i`` — a ``(node, occurrence)`` pair of the Node-keyed tour
    — joins its incoming ``ChainLink`` straight and its outgoing link
    straight, or crossed while active (weight 1)."""
    for i, (node, uid) in enumerate(units):
        p_pins, s_pins = [], []
        if i > 0:
            link = links[i - 1]
            back = opposite(link.direction)
            p_pins.append((back, link.primary_channel))
            s_pins.append((back, link.secondary_channel))
        if i < len(links):
            link = links[i]
            if weights[i]:
                p_pins.append((link.direction, link.secondary_channel))
                s_pins.append((link.direction, link.primary_channel))
            else:
                p_pins.append((link.direction, link.primary_channel))
                s_pins.append((link.direction, link.secondary_channel))
        assign(layout, node, f"{tag}:{uid}:p", p_pins)
        assign(layout, node, f"{tag}:{uid}:s", s_pins)


def oracle_tree(layout, root, parent, channels, tag):
    """Corollary 5 over a ``Node`` parent map: every node joins its
    parent edge straight and, active at the start, crosses every child
    edge."""
    pch, sch = channels
    children = {}
    for child, par in parent.items():
        children.setdefault(par, []).append(child)
    for u in [root, *parent]:
        p_pins, s_pins = [], []
        par = parent.get(u)
        if par is not None:
            d = u.direction_to(par)
            p_pins.append((d, pch))
            s_pins.append((d, sch))
        for child in children.get(u, ()):
            d = u.direction_to(child)
            p_pins.append((d, sch))
            s_pins.append((d, pch))
        assign(layout, u, f"{tag}:0:p", p_pins)
        assign(layout, u, f"{tag}:0:s", s_pins)


def oracle_election(layout, tours, marked, tag):
    """Subpath circuits of Node-keyed tours cut at the marked positions."""
    for tour, cut in zip(tours, marked):
        for i, (node, uid) in enumerate(tour.units):
            pins = []
            if i > 0:
                u, v = tour.edges[i - 1]
                d = u.direction_to(v)
                pins.append((opposite(d), channels_for(d)[0]))
            if i < len(tour.edges) and i not in cut:
                u, v = tour.edges[i]
                d = u.direction_to(v)
                pins.append((d, channels_for(d)[0]))
            assign(layout, node, f"{tag}:{uid}", pins)
    layout.freeze()


def assert_same_circuits(engine, got, want, seed):
    """Same partition of sets into circuits, same bits for sampled beeps."""
    assert {frozenset(c) for c in got.circuits()} == {
        frozenset(c) for c in want.circuits()
    }
    rng = random.Random(seed)
    sets = sorted(want.partition_sets())
    for _ in range(6):
        beeps = rng.sample(sets, min(len(sets), rng.randint(1, 3)))
        assert run_round(engine, got, beeps) == run_round(engine, want, beeps)


def _tree(structure):
    root = min(structure.nodes)
    adjacency, parent = bfs_tree_adjacency(structure, root)
    return root, adjacency, parent


# ----------------------------------------------------------------------
# equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", SHAPES)
class TestSameCircuitsAsOracle:
    def test_edge_subset_layout(self, shape):
        structure = build_structure(shape)
        engine = CircuitEngine(structure)
        rng = random.Random(shape)
        pairs = rng.sample(structure.edges(), len(structure.edges()) // 3)
        for isolated_ok in (True, False):
            got = engine.edge_subset_layout(
                edge_ids(structure, pairs), label="net", channel=2, isolated_ok=isolated_ok
            )
            want = oracle_edge_subset(structure, pairs, "net", 2, isolated_ok)
            assert_same_circuits(engine, got, want, shape)

    def test_pasc_chain_contribution(self, shape):
        structure = build_structure(shape)
        engine = CircuitEngine(structure)
        root, adjacency, _parent = _tree(structure)
        trees = [(node_tour(structure, root, adjacency), build_euler_tour(root, adjacency))]
        # ETT chains of the three implicit portal trees (Theorem 39).
        for axis in Axis:
            system = PortalSystem(structure, axis)
            portal = system.portals[len(system.portals) // 2]
            trees.append(
                (
                    PortalScope(system).tour(portal),
                    build_euler_tour(portal.representative, system.implicit_adjacency),
                )
            )
        rng = random.Random(shape)
        for tour, oracle in trees:
            assert tour.edges == oracle.edges
            marked = [i for i in range(tour.length) if rng.random() < 0.5]
            chain = ETTOp(tour, marked).chain
            got = engine.new_layout()
            chain.contribute_layout(got)
            want = engine.new_layout()
            oracle_chain(want, oracle.units, tour_links(oracle), chain.weights, "ett")
            assert_same_circuits(engine, got, want, shape)

    def test_pasc_tree_contribution(self, shape):
        structure = build_structure(shape)
        engine = CircuitEngine(structure)
        root, _adjacency, parent = _tree(structure)
        run = node_tree_run(structure.grid_index(), root, parent, (2, 3), tag="fd")
        got = engine.new_layout()
        run.contribute_layout(got)
        want = engine.new_layout()
        oracle_tree(want, root, parent, (2, 3), "fd")
        assert_same_circuits(engine, got, want, shape)

    def test_election_layout(self, shape):
        structure = build_structure(shape)
        engine = CircuitEngine(structure)
        root, adjacency, _parent = _tree(structure)
        tour = node_tour(structure, root, adjacency)
        rng = random.Random(shape)
        members = rng.sample(sorted(adjacency), max(1, len(adjacency) // 4))
        marked = mark_one_outgoing_edge(tour, node_ids(structure, members))
        requests = [ElectionRequest(tour, marked)]
        got = _election_layout(engine, requests, "elect")
        want = engine.new_layout()
        oracle_election(want, [build_euler_tour(root, adjacency)], [set(marked)], "elect")
        assert_same_circuits(engine, got, want, shape)


@pytest.mark.parametrize("shape", ("line:37", "parallelogram:6:5"))
def test_path_shaped_tree_is_the_chain(shape):
    """Corollary 5 on a path: the tree run of a path is the chain run
    over the same amoebots — same circuits, iterations and values."""
    structure = build_structure(shape)
    # A boustrophedon path through every row.
    rows = {}
    for u in sorted(structure.nodes, key=lambda u: (u.y, u.x)):
        rows.setdefault(u.y, []).append(u)
    nodes = [u for k, y in enumerate(sorted(rows)) for u in rows[y][:: -1 if k % 2 else 1]]
    assert all(u.is_adjacent(v) for u, v in zip(nodes, nodes[1:]))
    tree = node_tree_run(structure.grid_index(), nodes[0], dict(zip(nodes[1:], nodes)))
    chain = node_chain(structure, nodes)
    engine = CircuitEngine(structure)
    layouts = []
    for run in (tree, chain):
        layout = engine.new_layout()
        run.contribute_layout(layout)
        layout.freeze()
        layouts.append(layout)
    assert_same_circuits(engine, layouts[0], layouts[1], shape)
    assert len(layouts[0].circuits()) == 2  # primary and secondary
    results = [run_pasc(CircuitEngine(structure), [run]) for run in (tree, chain)]
    assert results[0] == results[1]
    assert tree.values() == chain.values() == list(range(len(nodes)))


def test_slots_are_compiled_set_ids():
    structure = build_structure("hexagon:3")
    engine = CircuitEngine(structure)
    layout = engine.new_layout()
    gi = structure.grid_index()
    nids = [gi.id_of(u) for u in sorted(structure.nodes)[:4]]
    slots = layout.assign_sets((nid, "a", ()) for nid in nids)
    index = layout.compiled().index
    assert [index.ids[s] for s in slots] == [(gi.nodes[n], "a") for n in nids]
    assert layout.set_ids((nid, "a") for nid in nids) == slots


def test_exchange_slots_matches_fresh_build():
    structure = line_structure(3)
    engine = CircuitEngine(structure)
    u = Node(1, 0)
    edge = structure.grid_index().id_of(u) * 6 + Direction.E
    base = engine.new_layout()
    slot_a, slot_b = base.assign_sets(
        [(edge // 6, "a", [(edge, 0)]), (edge // 6, "b", [(edge, 1)])]
    )
    by_slot = base.derive()
    by_slot.exchange_slots(slot_a, slot_b, [(edge, 0), (edge, 1)])
    fresh = engine.new_layout()
    assign(fresh, u, "a", [(Direction.E, 1)])
    assign(fresh, u, "b", [(Direction.E, 0)])
    assert by_slot.wiring_fingerprint() == fresh.wiring_fingerprint()


# ----------------------------------------------------------------------
# error paths: PinConfigurationError with the Node-keyed messages
# ----------------------------------------------------------------------
class TestErrorPaths:
    def setup_method(self):
        self.structure = line_structure(4)
        self.engine = CircuitEngine(self.structure)
        self.u = Node(0, 0)
        self.nid = self.structure.grid_index().id_of(self.u)
        self.east = self.nid * 6 + Direction.E

    def oracle_message(self, *calls):
        layout = self.engine.new_layout()
        with pytest.raises(PinConfigurationError) as err:
            for label, pins in calls:
                assign(layout, self.u, label, pins)
        return str(err.value)

    def test_frozen(self):
        layout = self.engine.new_layout()
        layout.freeze()
        with pytest.raises(PinConfigurationError, match="^layout is frozen$"):
            layout.assign_edges("a", 0, [self.east])
        with pytest.raises(PinConfigurationError, match="^layout is frozen$"):
            layout.assign_sets([(self.nid, "a", [(self.east, 0)])])

    def test_channel_out_of_budget(self):
        want = self.oracle_message(("a", [(Direction.E, 8)]))
        assert want == "channel 8 out of range (c=8)"
        with pytest.raises(PinConfigurationError) as err:
            self.engine.new_layout().assign_edges("a", 8, [self.east])
        assert str(err.value) == want
        with pytest.raises(PinConfigurationError) as err:
            self.engine.new_layout().assign_sets([(self.nid, "a", [(self.east, 8)])])
        assert str(err.value) == want

    def test_missing_pin(self):
        want = self.oracle_message(("a", [(Direction.NE, 0)]))
        assert want == f"{self.u} has no neighbor toward NE; pin does not exist"
        north_east = self.nid * 6 + Direction.NE
        with pytest.raises(PinConfigurationError) as err:
            self.engine.new_layout().assign_edges("a", 0, [north_east])
        assert str(err.value) == want
        with pytest.raises(PinConfigurationError) as err:
            self.engine.new_layout().assign_sets([(self.nid, "a", [(north_east, 0)])])
        assert str(err.value) == want

    def test_pin_owned_by_another_set(self):
        want = self.oracle_message(("a", [(Direction.E, 0)]), ("b", [(Direction.E, 0)]))
        assert want.startswith("pin ") and want.endswith(
            f"already assigned to partition set {(self.u, 'a')}"
        )
        layout = self.engine.new_layout()
        layout.assign_edges("a", 0, [self.east])
        with pytest.raises(PinConfigurationError) as err:
            layout.assign_edges("b", 0, [self.east])
        assert str(err.value) == want
        layout = self.engine.new_layout()
        with pytest.raises(PinConfigurationError) as err:
            layout.assign_sets(
                [(self.nid, "a", [(self.east, 0)]), (self.nid, "b", [(self.east, 0)])]
            )
        assert str(err.value) == want

    def test_undeclared_set(self):
        layout = self.engine.edge_subset_layout([self.east], label="a")
        with pytest.raises(
            PinConfigurationError,
            match=r"^cannot beep on undeclared partition set \(Node\(0, 0\), 'b'\)$",
        ):
            layout.set_ids([(self.nid, "b")], "beep on")


# ----------------------------------------------------------------------
# counting contracts
# ----------------------------------------------------------------------
def test_edge_subset_builds_per_solve(monkeypatch):
    """One portal-circuit layout per scope wiring, whatever the round is for."""
    builds = Counter()
    portal_builds = Counter()
    build = CircuitEngine._build_edge_subset_layout

    def counting(self, subsets, channel, isolated_ok):
        subsets = {label: list(edges) for label, edges in subsets.items()}
        builds[tuple(subsets)] += 1
        if "portal" in subsets:
            portal_builds[frozenset(subsets["portal"])] += 1
        return build(self, subsets, channel, isolated_ok)

    monkeypatch.setattr(CircuitEngine, "_build_edge_subset_layout", counting)
    report = Session().run(
        SolveRequest(kind="solve", shape="random:500:3", k=4, l=5, seed=1)
    )
    assert report.rounds == 460
    assert sum(builds.values()) <= 31
    assert portal_builds and set(portal_builds.values()) == {1}


def test_visibility_circuits_are_transversal_portals():
    """Each transversal axis keeps its own sets: one circuit per portal."""
    from repro.spf.propagate import visibility_layout

    structure = build_structure("random:500:1")
    engine = CircuitEngine(structure)
    systems = {d: PortalSystem(structure, d) for d in Axis.X.others}
    layout = visibility_layout(engine, systems)
    assert layout.compiled().n_components == sum(
        len(system.portals) for system in systems.values()
    )
    for d, system in systems.items():
        for portal in system.portals:
            circuits = {layout.circuit_of(u, f"vis:{d.name}") for u in portal.nodes}
            assert len(circuits) == 1
