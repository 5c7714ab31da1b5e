"""Tests for the portal-level primitives (Section 3.5)."""

import math
import random

import pytest

from repro.grid.coords import Node
from repro.grid.directions import Axis
from repro.portals.portals import PortalSystem
from repro.portals.primitives import (
    PortalScope,
    portal_centroid_decomposition,
    portal_centroids,
    portal_elect,
    portal_root_and_prune,
)
from repro.sim.engine import CircuitEngine
from repro.workloads import comb, random_hole_free


def make_system(seed=9, n=150):
    s = random_hole_free(n, seed=seed)
    return s, PortalSystem(s, Axis.X)


def oracle_portal_vq(system, root, q):
    parent = system.parent_relation(root)
    children = {}
    for p, par in parent.items():
        if par is not None:
            children.setdefault(par, []).append(p)

    def subtree(p):
        out = {p}
        for c in children.get(p, []):
            out |= subtree(c)
        return out

    return {p for p in system.portals if subtree(p) & q}


class TestPortalRootPrune:
    def test_matches_oracle(self):
        s, system = make_system()
        rng = random.Random(4)
        q_nodes = rng.sample(sorted(s.nodes), 10)
        q = system.portals_containing(q_nodes)
        root = system.portal_of[s.westernmost()]
        engine = CircuitEngine(s)
        result = portal_root_and_prune(engine, system, root, q)
        assert result.in_vq == oracle_portal_vq(system, root, q)
        oracle_parent = system.parent_relation(root)
        for p, par in result.parent.items():
            assert oracle_parent[p] == par

    def test_q_size(self):
        s, system = make_system()
        q = set(system.portals[:5])
        root = system.portal_of[s.westernmost()]
        engine = CircuitEngine(s)
        assert portal_root_and_prune(engine, system, root, q).q_size == 5

    def test_augmentation_on_comb(self):
        # A comb's x-portal tree is a star around the spine: choosing the
        # teeth tips as Q makes the spine the augmentation portal.
        s = comb(4, 3, spacing=2)
        system = PortalSystem(s, Axis.X)
        tips = [u for u in s if u.y == 3]
        q = system.portals_containing(tips)
        root = system.portal_of[Node(0, 0)]
        engine = CircuitEngine(s)
        result = portal_root_and_prune(
            engine, system, root, q, compute_augmentation=True
        )
        spine = system.portal_of[Node(0, 0)]
        # Teeth rows (y in 1..3) each form one portal per tooth; the
        # spine joins all teeth, so with 4 teeth in Q its T_Q degree is
        # >= 4 unless the spine is the root's own portal... it is, and
        # roots of degree >= 3 are still in A_Q.
        assert result.degree_q[spine] >= 3
        assert spine in result.augmentation

    def test_rounds_logarithmic_in_q(self):
        s, system = make_system(n=250, seed=2)
        root = system.portal_of[s.westernmost()]
        q = set(system.portals[:3])
        engine = CircuitEngine(s)
        portal_root_and_prune(engine, system, root, q, section="prp")
        assert engine.rounds.section_total("prp") <= 40

    def test_scope_restriction(self):
        s, system = make_system()
        root = system.portal_of[s.westernmost()]
        scope = PortalScope(system)
        assert set(scope.portals) == set(system.portals)
        with pytest.raises(ValueError):
            portal_root_and_prune(
                engine=CircuitEngine(s),
                system=system,
                root_portal=root,
                q_portals=[Portal_like_outsider()],
            )


def Portal_like_outsider():
    from repro.portals.portals import Portal

    return Portal(Axis.X, (Node(99, 99),))


class TestPortalElection:
    def test_winner_in_q(self):
        s, system = make_system()
        rng = random.Random(5)
        q = system.portals_containing(rng.sample(sorted(s.nodes), 6))
        root = system.portal_of[s.westernmost()]
        engine = CircuitEngine(s)
        assert portal_elect(engine, system, root, q) in q

    def test_constant_rounds(self):
        s, system = make_system()
        q = set(system.portals[:4])
        root = system.portal_of[s.westernmost()]
        engine = CircuitEngine(s)
        portal_elect(engine, system, root, q, section="pe")
        assert engine.rounds.section_total("pe") <= 3  # Lemma 35: O(1)

    def test_empty_rejected(self):
        s, system = make_system()
        root = system.portal_of[s.westernmost()]
        with pytest.raises(ValueError):
            portal_elect(CircuitEngine(s), system, root, [])

    def test_candidates_outside_single_portal_scope_rejected(self):
        # A one-portal scope must not hand out a candidate it does not
        # contain, as the node-level elect() refuses the same input.
        s, system = make_system(seed=3, n=60)
        p, q = system.portals[0], system.portals[1]
        scope = PortalScope(system, [p])
        for candidates in ([q], [p, q]):
            with pytest.raises(ValueError):
                portal_elect(CircuitEngine(s), system, p, candidates, scope=scope)
        assert portal_elect(CircuitEngine(s), system, p, [p], scope=scope) == p


def brute_force_portal_centroids(system, q, scope_portals=None):
    portals = scope_portals or set(system.portals)
    adjacency = {
        p: [x for x in system.portal_adjacency[p] if x in portals] for p in portals
    }
    result = set()
    for p in q:
        worst = 0
        for start in adjacency[p]:
            seen = {start}
            stack = [start]
            while stack:
                a = stack.pop()
                for b in adjacency[a]:
                    if b not in seen and b != p:
                        seen.add(b)
                        stack.append(b)
            worst = max(worst, len(seen & q))
        if 2 * worst <= len(q):
            result.add(p)
    return result


class TestPortalCentroids:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force(self, seed):
        s, system = make_system(seed=seed + 20)
        rng = random.Random(seed)
        q = system.portals_containing(rng.sample(sorted(s.nodes), 8))
        root = system.portal_of[s.westernmost()]
        engine = CircuitEngine(s)
        got = portal_centroids(engine, system, root, q)
        assert got == brute_force_portal_centroids(system, q)


class TestPortalDecomposition:
    def test_members_and_height(self):
        s, system = make_system()
        rng = random.Random(6)
        q = system.portals_containing(rng.sample(sorted(s.nodes), 9))
        root = system.portal_of[s.westernmost()]
        engine = CircuitEngine(s)
        rp = portal_root_and_prune(
            engine, system, root, q, compute_augmentation=True
        )
        q_prime = q | rp.augmentation
        tree = portal_centroid_decomposition(engine, system, root, q_prime)
        assert tree.members() == q_prime
        assert tree.height <= math.ceil(math.log2(len(q_prime))) + 1

    def test_deterministic(self):
        s, system = make_system()
        q = set(system.portals[:6])
        root = system.portal_of[s.westernmost()]
        engine = CircuitEngine(s)
        rp = portal_root_and_prune(engine, system, root, q, compute_augmentation=True)
        q_prime = q | rp.augmentation
        a = portal_centroid_decomposition(engine, system, root, q_prime)
        b = portal_centroid_decomposition(engine, system, root, q_prime)
        assert a.levels == b.levels

    def test_depths_consistent(self):
        s, system = make_system(seed=30)
        q = set(system.portals[::3])
        root = system.portal_of[s.westernmost()]
        engine = CircuitEngine(s)
        rp = portal_root_and_prune(engine, system, root, q, compute_augmentation=True)
        q_prime = q | rp.augmentation
        tree = portal_centroid_decomposition(engine, system, root, q_prime)
        for portal, parent in tree.parent.items():
            if parent is not None:
                assert tree.depth_of(parent) < tree.depth_of(portal)
