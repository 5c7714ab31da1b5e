"""Tests for the hole-tolerant fallback (extension beyond the paper).

The paper leaves structures with holes as future work; solve_spf
supports them via the wave fallback, still producing a valid forest.
"""

import pytest

from repro.grid.coords import Node
from repro.grid.structure import AmoebotStructure
from repro.spf import solve_spf
from repro.verify import assert_valid_forest
from repro.workloads import hexagon


@pytest.fixture
def holey_structure():
    nodes = [n for n in hexagon(2).nodes if n != Node(0, 0)]
    return AmoebotStructure(nodes, require_hole_free=False)


class TestHoleFallback:
    def test_rejected_by_default(self, holey_structure):
        nodes = sorted(holey_structure.nodes)
        with pytest.raises(ValueError, match="holes"):
            solve_spf(holey_structure, [nodes[0]], [nodes[-1]])

    def test_fallback_produces_valid_forest(self, holey_structure):
        nodes = sorted(holey_structure.nodes)
        solution = solve_spf(
            holey_structure, [nodes[0]], [nodes[-1]], allow_holes=True
        )
        assert solution.algorithm == "wave-fallback"
        assert_valid_forest(
            holey_structure, [nodes[0]], [nodes[-1]], solution.forest.parent
        )

    def test_fallback_multi_source(self, holey_structure):
        nodes = sorted(holey_structure.nodes)
        sources = [nodes[0], nodes[-1]]
        dests = nodes[3:8]
        solution = solve_spf(holey_structure, sources, dests, allow_holes=True)
        assert_valid_forest(holey_structure, sources, dests, solution.forest.parent)

    def test_fallback_prunes_to_destinations(self, holey_structure):
        nodes = sorted(holey_structure.nodes)
        solution = solve_spf(
            holey_structure, [nodes[0]], [nodes[1]], allow_holes=True
        )
        # Only the path to the single destination should remain.
        assert len(solution.forest.members) <= 3

    def test_hole_free_structures_unaffected(self):
        s = hexagon(2)
        nodes = sorted(s.nodes)
        solution = solve_spf(s, [nodes[0]], [nodes[-1]], allow_holes=True)
        assert solution.algorithm == "spt"


class TestOneHoleScanPerSolve:
    """Holes are counted once per structure, on its grid index."""

    @pytest.fixture
    def scans(self, monkeypatch):
        from repro.grid.compiled import GridIndex

        calls = []
        topology = GridIndex.topology

        def counting(index):
            calls.append(1)
            return topology(index)

        monkeypatch.setattr(GridIndex, "topology", counting)
        return calls

    def test_session_solve_scans_once(self, scans):
        from repro.api import Session, SolveRequest

        session = Session()
        request = SolveRequest(kind="solve", shape="random:120:2", k=2, l=4)
        session.run(request)
        assert len(scans) == 1  # the structure's constructor, not the solve
        session.run(request)
        assert len(scans) == 1  # a cached repeat builds nothing

    def test_unchecked_structures_are_scanned(self, scans, holey_structure):
        nodes = sorted(holey_structure.nodes)
        scans.clear()
        tolerant = AmoebotStructure(nodes, require_hole_free=False)
        assert len(scans) == 1  # hole-tolerant construction counts too
        solution = solve_spf(tolerant, [nodes[0]], [nodes[-1]], allow_holes=True)
        assert solution.algorithm == "wave-fallback"
        assert len(scans) == 1
        scans.clear()
        trusted = AmoebotStructure.from_validated(nodes)
        assert not scans
        for _ in range(2):
            solution = solve_spf(trusted, [nodes[0]], [nodes[-1]], allow_holes=True)
            assert solution.algorithm == "wave-fallback"
        assert len(scans) == 1
