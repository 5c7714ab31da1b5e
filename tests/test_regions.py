"""Tests for the region decomposition (§5.4.1, Lemmas 51-52)."""

import random

import pytest

from repro.grid.coords import Node
from repro.grid.directions import Axis
from repro.portals.portals import PortalSystem
from repro.portals.primitives import portal_root_and_prune
from repro.sim.engine import CircuitEngine
from repro.spf.regions import RegionDecomposition
from repro.workloads import parallelogram, random_hole_free


def build_decomposition(structure, k, seed):
    system = PortalSystem(structure, Axis.X)
    rng = random.Random(seed)
    sources = rng.sample(sorted(structure.nodes), k)
    q = {system.portal_of[u] for u in sources}
    root = system.portal_of[structure.westernmost()]
    engine = CircuitEngine(structure)
    rp = portal_root_and_prune(
        engine, system, root, q, compute_augmentation=True
    )
    q_prime = q | rp.augmentation
    decomposition = RegionDecomposition(system, q_prime, rp.in_vq)
    regions = decomposition.build_regions()
    return system, q_prime, decomposition, regions, set(sources)


class TestRegionStructure:
    @pytest.mark.parametrize("seed", range(5))
    def test_lemma52_at_most_two_boundary_portals(self, seed):
        s = random_hole_free(140, seed=seed + 50)
        _system, _qp, _dec, regions, _src = build_decomposition(s, 6, seed)
        for region in regions:
            assert 1 <= len(region.boundary_portals()) <= 2

    @pytest.mark.parametrize("seed", range(5))
    def test_regions_cover_structure(self, seed):
        s = random_hole_free(140, seed=seed + 50)
        _system, _qp, _dec, regions, _src = build_decomposition(s, 6, seed)
        covered = set()
        for region in regions:
            covered |= region.nodes
        assert covered == set(s.grid_index().live_ids())

    @pytest.mark.parametrize("seed", range(5))
    def test_regions_connected(self, seed):
        s = random_hole_free(140, seed=seed + 50)
        _system, _qp, _dec, regions, _src = build_decomposition(s, 6, seed)
        nbr = s.grid_index().nbr
        for region in regions:
            ids = region.nodes
            start = next(iter(ids))
            seen = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for v in nbr[u * 6 : u * 6 + 6]:
                    if v in ids and v not in seen:
                        seen.add(v)
                        stack.append(v)
            assert seen == ids

    def test_overlap_only_on_q_prime_portals_and_marks(self):
        s = random_hole_free(140, seed=55)
        system, q_prime, _dec, regions, _src = build_decomposition(s, 6, 1)
        q_prime_nodes = set()
        for p in q_prime:
            q_prime_nodes.update(system.runs[p])
        for i, a in enumerate(regions):
            for b in regions[i + 1 :]:
                overlap = a.nodes & b.nodes
                assert overlap <= q_prime_nodes

    def test_sources_covered_by_boundary_vertices(self):
        s = random_hole_free(140, seed=56)
        system, _qp, _dec, regions, sources = build_decomposition(s, 6, 2)
        id_of = s.grid_index().id_of
        for source in sources:
            holders = [
                r
                for r in regions
                if any(
                    id_of(source) in v.nodes for v in r.boundary_vertices()
                )
            ]
            assert holders, f"source {source} not on any region boundary"


class TestSubPortals:
    def test_single_portal_no_marks(self):
        # k sources all on one portal: no VQ-neighbors marked beyond the
        # westernmost, so each side is a single interval.
        s = parallelogram(10, 5)
        system = PortalSystem(s, Axis.X)
        row = [Node(i, 2) for i in range(10)]
        q = {system.portal_of[row[0]]}
        root = system.portal_of[s.westernmost()]
        engine = CircuitEngine(s)
        rp = portal_root_and_prune(engine, system, root, q, compute_augmentation=True)
        dec = RegionDecomposition(system, q, rp.in_vq)
        regions = dec.build_regions()
        portal = system.portal_of[row[0]]
        for side in ("N", "S"):
            assert len(dec.side_vertices(portal, side)) >= 1

    def test_side_vertices_ordered_west_to_east(self):
        s = random_hole_free(140, seed=57)
        system, q_prime, dec, _regions, _src = build_decomposition(s, 7, 3)
        for portal in q_prime:
            for side in ("N", "S"):
                vertices = dec.side_vertices(portal, side)
                starts = [v.start for v in vertices]
                assert starts == sorted(starts)
                # Consecutive intervals share their boundary mark.
                for a, b in zip(vertices, vertices[1:]):
                    assert a.end == b.start

    def test_non_q_portal_has_no_sides(self):
        s = random_hole_free(140, seed=58)
        system, q_prime, dec, _regions, _src = build_decomposition(s, 4, 4)
        other = next(p for p in range(system.portal_count()) if p not in q_prime)
        with pytest.raises(KeyError):
            dec.side_vertices(other, "N")


class TestReplaceRegions:
    def test_vertex_remapping(self):
        s = random_hole_free(100, seed=59)
        _system, _qp, dec, regions, _src = build_decomposition(s, 4, 5)
        from repro.spf.regions import Region

        a, b = regions[0], regions[1]
        merged = Region(
            vertices=a.vertices + b.vertices, nodes=a.nodes | b.nodes
        )
        dec.replace_regions([a, b], merged)
        for vertex in a.vertices + b.vertices:
            assert dec.region_of_vertex(vertex) is merged
