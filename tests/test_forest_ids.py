"""The Section 5 forest layers run in grid-index ids.

A ``Forest`` is one parent id per member over the engine structure's
grid index; ``Node`` values appear only in its views.  A portal is its
number in its ``PortalSystem``.  A counting spy on ``Node.__hash__`` and
``Node.__new__`` (the hash itself unchanged) checks that the portal
primitives, the regions, the base case, merging (at a portal, of two
forests, forest distances), the shortest path trees and the final
pruning hash and create no ``Node`` at all on a real multi-source
solve, and that the whole solve creates none: regions, merged sides and
shadow components are id subsets of the engine's grid index, which it
never rebuilds.
"""

from __future__ import annotations

import pytest

import repro.spf.forest as forest_mod
import repro.spf.merge as merge_mod
import repro.spf.propagate as propagate_mod
import repro.spf.spt as spt_mod
from repro.grid.compiled import GRID_STATS
from repro.grid.coords import Node
from repro.sim.engine import CircuitEngine
from repro.spf.forest import shortest_path_forest
from repro.spf.regions import RegionDecomposition
from repro.verify import check_forest
from repro.workloads import spread_nodes

#: (namespace, function) pairs that must stay free of ``Node``: each is
#: patched where the solve looks it up.
ID_ONLY = (
    (forest_mod, "portal_root_and_prune"),
    (forest_mod, "portal_elect"),
    (forest_mod, "portal_centroid_decomposition"),
    (RegionDecomposition, "build_regions"),
    (forest_mod, "_base_case"),
    (forest_mod, "_merge_at_portal"),
    (forest_mod, "shortest_path_tree_ids"),
    (spt_mod, "shortest_path_tree_ids"),
    (forest_mod, "merge_forests"),
    (merge_mod, "forest_distances"),
    (propagate_mod, "forest_distances"),
    (forest_mod, "_prune_to_destinations"),
)


def test_merge_distances_and_prune_touch_no_node(monkeypatch, random_structure):
    """Every ``ID_ONLY`` layer runs at least once, and none hashes or
    creates a ``Node``."""
    structure = random_structure
    sources = spread_nodes(structure, 4)
    rest = [u for u in sorted(structure.nodes) if u not in set(sources)]
    destinations = rest[::7]
    engine = CircuitEngine(structure)
    structure.grid_index()  # built before counting: the index hashes every node once

    inside = [0]
    calls = {name: 0 for _mod, name in ID_ONLY}
    counts = {"hash": 0, "new": 0}

    def layer(fn, name):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            inside[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] -= 1

        return wrapped

    for mod, name in ID_ONLY:
        monkeypatch.setattr(mod, name, layer(getattr(mod, name), name))

    tuple_hash = tuple.__hash__
    node_new = Node.__new__

    def counting_hash(self):
        if inside[0]:
            counts["hash"] += 1
        return tuple_hash(self)

    def counting_new(cls, *args, **kwargs):
        if inside[0]:
            counts["new"] += 1
        return node_new(cls, *args, **kwargs)

    monkeypatch.setattr(Node, "__hash__", counting_hash)
    monkeypatch.setattr(Node, "__new__", counting_new)
    forest = shortest_path_forest(engine, structure, sources, destinations)
    monkeypatch.undo()

    assert all(calls.values()), calls
    assert counts == {"hash": 0, "new": 0}
    assert not check_forest(structure, sources, destinations, forest.parent)


def test_forest_solve_builds_no_index_and_creates_no_node(monkeypatch, random_structure):
    structure = random_structure
    sources = spread_nodes(structure, 4)
    destinations = sorted(structure.nodes)[::5]
    engine = CircuitEngine(structure)
    structure.grid_index()
    builds = GRID_STATS.full_builds
    created = [0]
    node_new = Node.__new__

    def counting_new(cls, *args, **kwargs):
        created[0] += 1
        return node_new(cls, *args, **kwargs)

    monkeypatch.setattr(Node, "__new__", counting_new)
    forest = shortest_path_forest(engine, structure, sources, destinations)
    monkeypatch.undo()

    assert GRID_STATS.full_builds == builds
    assert created == [0]
    assert not check_forest(structure, sources, destinations, forest.parent)


def test_spy_leaves_the_node_hash_unchanged(monkeypatch):
    node = Node(3, -2)
    before = hash(node)
    tuple_hash = tuple.__hash__
    monkeypatch.setattr(Node, "__hash__", lambda self: tuple_hash(self))
    assert hash(node) == before == hash((3, -2))
    monkeypatch.undo()
    assert hash(Node(3, -2)) == before


@pytest.mark.parametrize("k", [1, 3])
def test_views_match_ids(random_structure, k):
    structure = random_structure
    sources = spread_nodes(structure, k)
    forest = shortest_path_forest(CircuitEngine(structure), structure, sources)
    nodes = forest.index.nodes
    assert forest.sources == set(sources)
    assert forest.parent == {nodes[u]: nodes[p] for u, p in forest.parent_ids.items()}
    assert forest.members == structure.nodes
    assert len(forest) == len(structure)
    for u in list(structure.nodes)[::11]:
        assert forest.depth_of(u) == forest.depth_of(forest.parent.get(u, u)) + (
            u not in forest.sources
        )
