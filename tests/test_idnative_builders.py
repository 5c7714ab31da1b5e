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
from repro.dynamics.faults import FaultInjector
from repro.ett.election import ElectionRequest, _election_layout
from repro.ett.technique import ETTOp, mark_one_outgoing_edge
from repro.grid.coords import Node
from repro.grid.directions import Axis, Direction, opposite
from repro.pasc.runner import run_pasc
from repro.portals.portals import PortalSystem
from repro.portals.primitives import PortalScope
from repro.sim.circuits import CircuitLayout
from repro.sim.compiled import CompiledLayout
from repro.sim.engine import CircuitEngine
from repro.sim.errors import PinConfigurationError
from repro.spf.forest import shortest_path_forest
from repro.workloads import line_structure, random_hole_free, spread_nodes
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
def oracle_edge_subset(structure, subsets, channel, isolated_ok):
    """The edge-subset build before sets were declared only where pins
    are: ``subsets`` maps each label to its ``(u, v)`` node pairs, and
    with ``isolated_ok`` every amoebot no edge of a label touches
    declares an empty set of that label."""
    layout = CircuitLayout(structure, 8)
    for label, pairs in subsets.items():
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
        # The build declares exactly the sets the edges touch: the
        # oracle's circuits without the pinless sets it declared for the
        # untouched amoebots.  Those amoebots' keys are singleton
        # circuits, so every amoebot hears what it heard in the oracle.
        structure = build_structure(shape)
        engine = CircuitEngine(structure)
        rng = random.Random(shape)
        pairs = rng.sample(structure.edges(), len(structure.edges()) // 3)
        got = engine.edge_subset_layout(edge_ids(structure, pairs), label="net", channel=2)
        want = oracle_edge_subset(structure, {"net": pairs}, 2, isolated_ok=False)
        assert_same_circuits(engine, got, want, shape)
        isolated = oracle_edge_subset(structure, {"net": pairs}, 2, isolated_ok=True)
        touched = {u for pair in pairs for u in pair}
        assert {frozenset(c) for c in isolated.circuits()} == {
            frozenset(c) for c in got.circuits()
        } | {frozenset([(u, "net")]) for u in structure if u not in touched}
        keys = sorted(isolated.partition_sets())
        for _ in range(6):
            beeps = rng.sample(keys, rng.randint(1, 3))
            assert run_round(engine, got, beeps, keys) == run_round(
                engine, isolated, beeps, keys
            )

    def test_pasc_chain_contribution(self, shape):
        structure = build_structure(shape)
        engine = CircuitEngine(structure)
        root, adjacency, _parent = _tree(structure)
        trees = [(node_tour(structure, root, adjacency), build_euler_tour(root, adjacency))]
        # ETT chains of the three implicit portal trees (Theorem 39).
        for axis in Axis:
            system = PortalSystem(structure, axis)
            portal = system.portal_count() // 2
            trees.append(
                (
                    PortalScope(system).tour(portal),
                    build_euler_tour(system.portal_nodes(portal)[0], system.implicit_adjacency),
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
# oracle: every edge-subset round of real solves
# ----------------------------------------------------------------------
#: One instance per shape family (those of ``test_pasc_parity.py``).
FAMILIES = (
    "hexagon:4",
    "parallelogram:6:8",
    "triangle:9",
    "line:40",
    "comb:5:6",
    "staircase:4:5",
    "lollipop:3:8",
    "random:70:3",
    "dendrite:70:2",
)


@pytest.fixture
def isolated_oracle(monkeypatch):
    """Check every round on an edge-subset or global layout against the
    build that declares an empty set for every untouched amoebot.

    Each such layout is rebuilt by :func:`oracle_edge_subset` with
    ``isolated_ok``; every round executed on it (after the fault filter,
    and the fault-free re-run that detects missed hears) is re-run on the
    oracle with the same ``(node id, label)`` keys, and the listened bits
    must agree, as must the set and circuit counts a trace records.
    Returns the counters ``rounds`` / ``singleton_rounds``
    and the list of ``mismatches``.
    """
    oracles = {}
    keys_of = {}
    seen = {"rounds": 0, "singleton_rounds": 0, "mismatches": []}

    def track(build):
        def wrapped(engine, subsets, channel):
            subsets = {label: list(edges) for label, edges in subsets.items()}
            layout = build(engine, subsets, channel)
            nodes = engine.structure.grid_index().nodes
            mates = engine.structure.grid_index().mate_edges()
            pairs = {
                label: [(nodes[e // 6], nodes[mates[e] // 6]) for e in edges]
                for label, edges in subsets.items()
            }
            oracle = oracle_edge_subset(engine.structure, pairs, channel, isolated_ok=True)
            got, want = layout.compiled(), oracle.compiled()
            if (len(got.index) + got.n_singletons, got.n_components + got.n_singletons) != (
                len(want.index),
                want.n_components,
            ):
                seen["mismatches"].append((layout, "counts"))
            oracles[id(layout.compiled())] = (layout, oracle)
            keys_of[id(layout)] = {}
            return layout

        return wrapped

    build_edges = CircuitEngine._build_edge_subset_layout
    monkeypatch.setattr(CircuitEngine, "_build_edge_subset_layout", track(build_edges))
    build_global = CircuitEngine._build_global_layout

    def global_subsets(engine, label, channel):
        nbr = engine.structure.grid_index().nbr
        edges = [e for e in range(len(nbr)) if e % 6 < 3 and nbr[e] >= 0]
        layout = track(lambda eng, subsets, ch: build_global(eng, label, ch))(
            engine, {label: edges}, channel
        )
        return layout

    monkeypatch.setattr(CircuitEngine, "_build_global_layout", global_subsets)

    set_ids = CircuitLayout.set_ids

    def recording(layout, keys, action="address"):
        keys = list(keys)
        ids = set_ids(layout, keys, action)
        known = keys_of.get(id(layout))
        if known is not None:
            known.update(zip(ids, keys))
        return ids

    monkeypatch.setattr(CircuitLayout, "set_ids", recording)
    execute = CompiledLayout.execute

    def checked(compiled, beeps, listen=None):
        beeps = list(beeps)
        bits = execute(compiled, beeps, listen)
        entry = oracles.get(id(compiled))
        if entry is None or listen is None:
            return bits
        layout, oracle = entry
        known = keys_of[id(layout)]
        want = oracle.compiled().execute(
            oracle.set_ids([known[i] for i in beeps]),
            oracle.set_ids([known[i] for i in listen]),
        )
        seen["rounds"] += 1
        size = len(compiled.index)
        if any(i >= size for i in [*beeps, *listen]):
            seen["singleton_rounds"] += 1
        if bits != want:
            seen["mismatches"].append((layout, beeps, listen, bits, want))
        return bits

    monkeypatch.setattr(CompiledLayout, "execute", checked)
    return seen


def _oracle_solve(structure, k, axis=Axis.X, injector=None):
    engine = CircuitEngine(structure)
    engine.fault_injector = injector
    sources = spread_nodes(structure, min(k, len(structure)))
    try:
        shortest_path_forest(engine, structure, sources, axis=axis)
    except Exception:  # noqa: BLE001 - faulty solves may fail; the bits are checked
        if injector is None:
            raise


def _assert_oracle_held(seen):
    assert seen["rounds"], "no edge-subset round was executed"
    assert not seen["mismatches"], (
        f"{len(seen['mismatches'])} of {seen['rounds']} edge-subset rounds "
        "heard differently from the isolated-set build"
    )


@pytest.mark.parametrize("k", [1, 4, 32])
@pytest.mark.parametrize("spec", FAMILIES)
def test_solve_rounds_match_isolated_build(isolated_oracle, spec, k):
    _oracle_solve(build_structure(spec), k)
    _assert_oracle_held(isolated_oracle)


@pytest.mark.parametrize("axis", list(Axis))
def test_every_axis_matches_isolated_build(isolated_oracle, axis):
    _oracle_solve(random_hole_free(80, seed=92), 4, axis=axis)
    _assert_oracle_held(isolated_oracle)
    assert isolated_oracle["singleton_rounds"]


@pytest.mark.parametrize("fault", ["drops", "crash"])
@pytest.mark.parametrize("spec", FAMILIES)
def test_faulty_solve_rounds_match_isolated_build(isolated_oracle, spec, fault):
    structure = build_structure(spec)
    if fault == "drops":
        injector = FaultInjector(drop_prob=0.1, seed=5)
    else:
        injector = FaultInjector(crashed=spread_nodes(structure, 1))
    _oracle_solve(structure, 4, injector=injector)
    _assert_oracle_held(isolated_oracle)
    assert injector.stats.lost


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
        # A label the layout does not carry, or a node id outside the
        # structure, still raises; an untouched amoebot's key of a
        # carried label is its singleton circuit, past the declared sets.
        layout = self.engine.edge_subset_layout([self.east], label="a")
        with pytest.raises(
            PinConfigurationError,
            match=r"^cannot beep on undeclared partition set \(Node\(0, 0\), 'b'\)$",
        ):
            layout.set_ids([(self.nid, "b")], "beep on")
        for foreign in (-1, self.structure.grid_index().n_slots, None):
            with pytest.raises(
                PinConfigurationError,
                match=rf"^cannot listen on undeclared partition set \({foreign}, 'a'\)$",
            ):
                layout.set_ids([(foreign, "a")], "listen on")
        far = self.structure.grid_index().id_of(Node(3, 0))
        size = len(layout.compiled().index)
        (singleton,) = layout.set_ids([(far, "a")])
        assert size == 2 and singleton >= size
        assert layout.set_ids([(far, "a")]) == [singleton]
        assert len(layout.compiled().index) == size
        # circuit_of agrees: the singleton gets an index past the
        # declared circuits, and the unknown label raises.
        compiled = layout.compiled()
        assert layout.circuit_of(Node(3, 0), "a") == compiled.n_components + singleton - size
        assert layout.circuit_of(Node(1, 0), "a") == layout.circuit_of(self.u, "a")
        with pytest.raises(PinConfigurationError, match="undeclared partition set"):
            layout.circuit_of(Node(3, 0), "b")

    def test_undeclared_set_of_assigned_label(self):
        # Only labels an edge subset wired have singleton keys: a label
        # that assign_sets declared names only its declared sets.
        layout = self.engine.new_layout()
        layout.assign_sets([(self.nid, "a", [(self.east, 0)])])
        layout.assign_edges("e", 0, [])
        far = self.structure.grid_index().id_of(Node(3, 0))
        with pytest.raises(
            PinConfigurationError,
            match=r"^cannot beep on undeclared partition set \(Node\(3, 0\), 'a'\)$",
        ):
            layout.set_ids([(far, "a")], "beep on")
        with pytest.raises(PinConfigurationError, match="undeclared partition set"):
            layout.circuit_of(Node(3, 0), "a")
        # An empty edge subset still makes every live amoebot's key a
        # singleton circuit.
        (lone,) = layout.set_ids([(far, "e")])
        assert lone >= len(layout.compiled().index)
        assert layout.compiled().n_singletons == len(self.structure)


# ----------------------------------------------------------------------
# counting contracts
# ----------------------------------------------------------------------
def test_edge_subset_builds_per_solve(monkeypatch):
    """One portal-circuit layout per scope wiring, whatever the round is for."""
    builds = Counter()
    portal_builds = Counter()
    build = CircuitEngine._build_edge_subset_layout

    def counting(self, subsets, channel):
        subsets = {label: list(edges) for label, edges in subsets.items()}
        builds[tuple(subsets)] += 1
        if "portal" in subsets:
            portal_builds[frozenset(subsets["portal"])] += 1
        return build(self, subsets, channel)

    monkeypatch.setattr(CircuitEngine, "_build_edge_subset_layout", counting)
    report = Session().run(
        SolveRequest(kind="solve", shape="random:500:3", k=4, l=5, seed=1)
    )
    assert report.rounds == 460
    assert sum(builds.values()) <= 31
    assert portal_builds and set(portal_builds.values()) == {1}


def test_visibility_circuits_are_transversal_portals():
    """Each transversal axis keeps its own sets: one circuit per portal.

    A one-amoebot portal has no edge, so its amoebot declares no set:
    its key is a singleton circuit that hears only its own beep.
    """
    from repro.spf.propagate import visibility_layout

    structure = build_structure("random:500:1")
    engine = CircuitEngine(structure)
    id_of = structure.grid_index().id_of
    systems = {d: PortalSystem(structure, d) for d in Axis.X.others}
    layout = visibility_layout(engine, systems)
    assert layout.compiled().n_components == sum(
        1 for system in systems.values() for run in system.runs if len(run) > 1
    )
    singles = []
    for d, system in systems.items():
        for k, run in enumerate(system.runs):
            if len(run) == 1:
                singles.append((run[0], f"vis:{d.name}"))
                continue
            circuits = {layout.circuit_of(u, f"vis:{d.name}") for u in system.portal_nodes(k)}
            assert len(circuits) == 1
    assert singles
    ids = layout.set_ids(singles)
    assert min(ids) >= len(layout.compiled().index)
    assert engine.run_round_indexed(layout, ids[:1], ids[:2]) == [True, False]
