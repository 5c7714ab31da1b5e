"""``Forest`` roots, depths and per-tree maps against a naive chain walk.

``Forest`` resolves every member's root and depth in one memoized pass
over its id parents; these tests compare that pass with the obvious
per-node walk on deep and multi-source forests, and keep the cycle
contract.  The forests live on the x-line ``Node(i, 0)``, whose id is
``i``; their parent edges need not be grid edges.  Results only — no
timings.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest

from repro.grid.compiled import GridIndex
from repro.grid.coords import Node
from repro.spf.types import Forest


def line_forest_of(sources, parent: Dict[Node, Node], n: int) -> Forest:
    """The forest of ``Node`` maps over ``Node(0, 0) .. Node(n - 1, 0)``."""
    index = GridIndex(Node(i, 0) for i in range(n))
    return Forest(index, [s.x for s in sources], {u.x: p.x for u, p in parent.items()})


def node_trees(forest: Forest) -> Dict[Node, Dict[Node, Node]]:
    """:meth:`Forest.trees` as ``Node`` maps."""
    nodes = forest.index.nodes
    return {
        nodes[s]: {nodes[u]: nodes[p] for u, p in tree.items()}
        for s, tree in forest.trees().items()
    }


def forest_builder():
    """``make(*chains)``: one tree per chain spec, on fresh nodes.

    A chain spec is a list of parent offsets: entry ``i`` names the
    earlier node of the same tree (by position) that node ``i + 1``
    hangs from; node ``0`` is the tree's source.
    """
    counter = 0

    def make(*trees: List[int]) -> Forest:
        nonlocal counter
        sources, parent = set(), {}
        for spec in trees:
            nodes = [Node(counter + i, 0) for i in range(len(spec) + 1)]
            counter += len(nodes)
            sources.add(nodes[0])
            for i, up in enumerate(spec):
                parent[nodes[i + 1]] = nodes[up]
        return line_forest_of(sources, parent, counter)

    return make


def naive_chain(forest: Forest, node: Node) -> Tuple[Node, int]:
    depth = 0
    while node not in forest.sources:
        node = forest.parent[node]
        depth += 1
    return node, depth


def canonical(forest: Forest) -> str:
    """One line per tree: source, then ``node@depth`` in member order."""
    lines = []
    for source, tree in sorted(node_trees(forest).items()):
        members = sorted(tree)
        lines.append(
            f"{source.x}: "
            + " ".join(f"{u.x}@{forest.depth_of(u)}" for u in members)
        )
    return "\n".join(lines)


def assert_matches_naive(forest: Forest) -> None:
    expected_trees: Dict[Node, Dict[Node, Node]] = {s: {} for s in forest.sources}
    for u in forest.members:
        root, depth = naive_chain(forest, u)
        assert forest.root_of(u) == root
        assert forest.depth_of(u) == depth
        if u in forest.parent:
            expected_trees[root][u] = forest.parent[u]
    assert node_trees(forest) == expected_trees


def test_deep_path_forest():
    make = forest_builder()
    n = 5000
    forest = make(list(range(n - 1)))
    nodes = [Node(i, 0) for i in range(n)]
    assert [forest.depth_of(u) for u in nodes] == list(range(n))
    assert {forest.root_of(u) for u in nodes} == {nodes[0]}
    assert node_trees(forest) == {nodes[0]: forest.parent}
    # The naive walk is quadratic on a path: spot-check a stride of it.
    for u in nodes[::97] + nodes[-1:]:
        assert (forest.root_of(u), forest.depth_of(u)) == naive_chain(forest, u)


def test_path_forest_listed_leaf_first():
    # The memoized pass must not depend on the parent dict's order.
    nodes = [Node(i, 0) for i in range(5000)]
    parent = {nodes[i]: nodes[i - 1] for i in range(len(nodes) - 1, 0, -1)}
    forest = line_forest_of({nodes[0]}, parent, len(nodes))
    assert [forest.depth_of(u) for u in nodes] == list(range(len(nodes)))
    assert node_trees(forest) == {nodes[0]: parent}


def test_multi_source_forest():
    rng = random.Random(5)
    make = forest_builder()
    trees = [
        [rng.randrange(i + 1) for i in range(size)]
        for size in (0, 1, 40, 300, 1200)
    ]
    forest = make(*trees)
    assert_matches_naive(forest)
    assert len(forest.trees()) == 5


def test_canonical_string():
    make = forest_builder()
    forest = make([0, 1, 1], [], [0, 0])
    assert canonical(forest) == "\n".join(
        ["0: 1@1 2@2 3@2", "4: ", "5: 6@1 7@1"]
    )


def test_cycle_raises_from_every_query():
    a, b, c, d = (Node(i, 0) for i in range(4))
    forest = line_forest_of({a}, {b: c, c: b, d: a}, 4)
    for query in (
        lambda: forest.root_of(b),
        lambda: forest.depth_of(d),
        forest.trees,
    ):
        with pytest.raises(ValueError, match="cycle"):
            query()


def test_chain_into_cycle_raises():
    nodes = [Node(i, 0) for i in range(6)]
    parent = {nodes[1]: nodes[2], nodes[2]: nodes[3], nodes[3]: nodes[2],
              nodes[4]: nodes[0], nodes[5]: nodes[4]}
    forest = line_forest_of({nodes[0]}, parent, len(nodes))
    with pytest.raises(ValueError, match="cycle"):
        forest.root_of(nodes[1])
