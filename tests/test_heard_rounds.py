"""Rounds are read: what the amoebots hear is what the algorithms use.

Portal circuits (Fig. 4a) tell each portal whether it holds a source or
a destination, is in ``V_Q`` or ``A_Q``, won an election, is a centroid
or was elected into the centroid decomposition; the transversal portal circuits of the propagation algorithm
tell each ``B``-amoebot whether ``P`` sees it (Lemma 50).  Every such
round listens, and its callers take their result from the bits — so a
mis-wired circuit fails here by name, and under an
:class:`~repro.sched.ActivationEngine` a dropped beep in these rounds is
retransmitted like any other.
"""

from __future__ import annotations

import random

import pytest

import repro.portals.primitives as portal_primitives
import repro.spf.propagate as propagate_module
from repro.dynamics import FaultInjector
from repro.grid.directions import Axis
from repro.portals.portals import PortalSystem
from repro.portals.primitives import (
    PortalScope,
    portal_centroid_decomposition,
    portal_centroids,
    portal_elect,
    portal_root_and_prune,
)
from repro.sched import ActivationEngine
from repro.sim.engine import CircuitEngine
from repro.spf.forest import shortest_path_forest
from repro.spf.line import line_forest
from repro.spf.propagate import propagate_forest
from repro.spf.spt import shortest_path_tree
from repro.verify import check_forest
from repro.workloads import hexagon, parallelogram, random_hole_free


def skip_first_edge(run_edges):
    """``portal_run_edges`` that loses the first edge it would yield."""

    def damaged(engine, key):
        edges = run_edges(engine, key)
        next(edges, None)
        yield from edges

    return damaged


def forest_instance():
    structure = hexagon(3)
    sources = random.Random(3).sample(sorted(structure.nodes), 4)
    return structure, sources


@pytest.fixture
def broadcasts(monkeypatch):
    """Every ``PortalScope.broadcast`` as ``(retransmissions before, after, heard)``."""
    calls = []
    broadcast = PortalScope.broadcast

    def spy(self, engine, beepers):
        stats = getattr(engine, "stats", None)
        before = stats.retransmissions if stats else 0
        heard = broadcast(self, engine, beepers)
        calls.append((before, stats.retransmissions if stats else 0, heard))
        return heard

    monkeypatch.setattr(PortalScope, "broadcast", spy)
    return calls


class TestPortalBroadcast:
    def test_returns_the_portals_that_heard(self):
        structure = random_hole_free(80, seed=4)
        engine = CircuitEngine(structure)
        beepers = random.Random(0).sample(sorted(structure.nodes), 6)
        id_of = structure.grid_index().id_of
        for axis in Axis:
            system = PortalSystem(structure, axis)
            scope = PortalScope(system)
            heard = scope.broadcast(engine, [id_of(u) for u in beepers])
            assert heard == {system.portal_of[u] for u in beepers}
            assert scope.broadcast(engine, ()) == set()

    def test_restricted_scope_hears_only_its_portals(self):
        structure = hexagon(3)
        engine = CircuitEngine(structure)
        system = PortalSystem(structure, Axis.X)
        scope = PortalScope(system)
        root = system.portal_of[structure.westernmost()]
        part = {root, *system.portal_adjacency[root]}
        everyone = [run[-1] for run in system.runs]
        assert scope.broadcast(engine, everyone) == set(range(system.portal_count()))
        assert scope.restrict(part).broadcast(engine, everyone) == part

    def test_one_amoebot_portals_listen_alone(self):
        structure = random_hole_free(40, seed=2)
        engine = CircuitEngine(structure)
        system = PortalSystem(structure, Axis.Y)
        singles = [p for p, run in enumerate(system.runs) if len(run) == 1]
        assert singles
        scope = PortalScope(system)
        assert scope.broadcast(engine, scope.representative_ids(singles[:1])) == {singles[0]}

    def test_primitives_return_what_was_heard(self, broadcasts):
        structure = random_hole_free(70, seed=8)
        system = PortalSystem(structure, Axis.X)
        root = system.portal_of[structure.westernmost()]
        q = set(random.Random(1).sample(range(system.portal_count()), 5))
        engine = CircuitEngine(structure)
        rp = portal_root_and_prune(
            engine, system, root, q, compute_augmentation=True
        )
        (_, _, in_vq), (_, _, augmentation) = broadcasts
        assert rp.in_vq is in_vq and rp.augmentation is augmentation
        assert q <= rp.in_vq
        broadcasts.clear()
        winner = portal_elect(engine, system, root, q)
        assert [heard for _, _, heard in broadcasts] == [{winner}]
        broadcasts.clear()
        centroids = portal_centroids(engine, system, root, q)
        assert [heard for _, _, heard in broadcasts] == [centroids]
        assert centroids and centroids <= q


def decomposition_instance():
    structure = random_hole_free(70, seed=8)
    system = PortalSystem(structure, Axis.X)
    root = system.portal_of[structure.westernmost()]
    q = set(random.Random(1).sample(range(system.portal_count()), 5))
    engine = CircuitEngine(structure)
    rp = portal_root_and_prune(engine, system, root, q, compute_augmentation=True)
    return engine, system, root, q | rp.augmentation


class TestAnnouncedWinners:
    def test_each_level_hears_its_elected_portals(self, monkeypatch):
        engine, system, root, q_prime = decomposition_instance()
        announced = []
        announce = PortalScope.announce_winner

        def spy(self, engine, winner_ids):
            heard = announce(self, engine, winner_ids)
            announced.append(heard)
            return heard

        monkeypatch.setattr(PortalScope, "announce_winner", spy)
        tree = portal_centroid_decomposition(engine, system, root, q_prime)
        assert announced == [set(level) for level in tree.levels]
        assert tree.members() == q_prime

    def test_silent_winners_fail_the_decomposition(self, monkeypatch):
        engine, system, root, q_prime = decomposition_instance()

        def silent(self, engine, winner_ids):
            return self.broadcast(engine, ())

        monkeypatch.setattr(PortalScope, "announce_winner", silent)
        with pytest.raises(AssertionError, match="heard 0 elected units instead of one"):
            portal_centroid_decomposition(engine, system, root, q_prime)


class TestMisWiredCircuits:
    def test_skipped_portal_edge_raises_split_portal_error(self, monkeypatch):
        structure, sources = forest_instance()
        monkeypatch.setattr(
            portal_primitives,
            "portal_run_edges",
            skip_first_edge(portal_primitives.portal_run_edges),
        )
        with pytest.raises(AssertionError, match=r"portal circuit of portal \d+ at .*is split"):
            shortest_path_forest(CircuitEngine(structure), structure, sources)

    def test_skipped_visibility_edge_changes_propagation(self, monkeypatch):
        structure = parallelogram(8, 5)
        row = sorted(u for u in structure.nodes if u.y == 0)

        def propagate():
            engine = CircuitEngine(structure)
            base = line_forest(engine, row, [row[0], row[-1]])
            return propagate_forest(engine, structure, row, base).parent

        clean = propagate()
        monkeypatch.setattr(
            propagate_module,
            "portal_run_edges",
            skip_first_edge(propagate_module.portal_run_edges),
        )
        assert propagate() != clean


def test_every_round_listens(monkeypatch):
    """Theorem 56, Theorem 39 and Lemma 50 run no round nobody reads."""
    listens = []
    run_round = CircuitEngine.run_round_indexed

    def spy(self, layout, beeps, listen=None):
        listens.append(listen)
        return run_round(self, layout, beeps, listen)

    monkeypatch.setattr(CircuitEngine, "run_round_indexed", spy)
    structure, sources = forest_instance()
    shortest_path_forest(CircuitEngine(structure), structure, sources)
    nodes = sorted(structure.nodes)
    shortest_path_tree(CircuitEngine(structure), structure, nodes[0], nodes[-5:])
    strip = parallelogram(8, 5)
    row = sorted(u for u in strip.nodes if u.y == 0)
    engine = CircuitEngine(strip)
    propagate_forest(engine, strip, row, line_forest(engine, row, [row[0]]))
    assert listens
    assert all(listen is not None and len(listen) > 0 for listen in listens)


class TestFaultsOnPortalRounds:
    def test_dropped_source_beep_is_retransmitted(self, broadcasts):
        structure, sources = forest_instance()
        clean = shortest_path_forest(CircuitEngine(structure), structure, sources)
        system = PortalSystem(structure, Axis.X)
        clean_q = {system.portal_of[s] for s in sources}
        assert broadcasts[0][2] == clean_q
        broadcasts.clear()

        engine = ActivationEngine(structure, scheduler="sync")
        engine.fault_injector = FaultInjector(drop_prob=0.2, seed=1)
        forest = shortest_path_forest(engine, structure, sources)
        before, after, q = broadcasts[0]
        assert after == before + 1  # the sources' round was retransmitted
        assert q == clean_q
        assert forest.parent == clean.parent
        broadcasts.clear()

        # The plain synchronous engine never retransmits: the same drop
        # costs its portal the membership in Q.
        engine = CircuitEngine(structure)
        engine.fault_injector = FaultInjector(drop_prob=0.2, seed=1)
        scope = PortalScope(system)
        id_of = structure.grid_index().id_of
        assert scope.broadcast(engine, {id_of(s) for s in sources}) < clean_q

    def test_crashed_source_leaves_q_without_retransmission(self, broadcasts):
        structure, sources = forest_instance()
        system = PortalSystem(structure, Axis.X)
        crashed = sources[0]
        alone = system.portal_of[crashed]
        assert all(system.portal_of[s] != alone for s in sources[1:])

        engine = ActivationEngine(structure, scheduler="sync")
        engine.fault_injector = FaultInjector(crashed=[crashed])
        forest = shortest_path_forest(engine, structure, sources)
        # Crashed amoebots are fail-silent: the portal of a source that
        # shares it with no other source hears nothing and leaves Q.
        # Detection counts the missed hears; crashes are permanent, so
        # nothing is retransmitted.
        assert broadcasts[0][2] == {system.portal_of[s] for s in sources[1:]}
        assert engine.stats.retransmissions == 0
        assert engine.fault_injector.stats.missed_hears > 0
        # On this instance the solve still completes: the crashed source
        # is an ordinary member of a forest of the remaining sources.
        assert forest.sources == set(sources[1:])
        nodes = set(structure.nodes)
        assert not check_forest(structure, set(sources[1:]), nodes, forest.parent)
