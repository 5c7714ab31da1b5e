"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple

import pytest

from repro.grid.coords import Node
from repro.grid.oracle import bfs_tree
from repro.grid.structure import AmoebotStructure
from repro.ett.tour import EulerTour, adjacency_from_edges
from repro.pasc.chain import PascChainRun
from repro.primitives.scope import NodeScope
from repro.sim.engine import CircuitEngine
from repro.workloads import hexagon, random_hole_free


@pytest.fixture
def small_hexagon() -> AmoebotStructure:
    return hexagon(2)


@pytest.fixture
def medium_hexagon() -> AmoebotStructure:
    return hexagon(4)


@pytest.fixture
def random_structure() -> AmoebotStructure:
    return random_hole_free(120, seed=42)


@pytest.fixture
def dendrite_structure() -> AmoebotStructure:
    return random_hole_free(100, seed=7, compactness=0.05)


def engine_for(structure: AmoebotStructure, channels: int = 8) -> CircuitEngine:
    return CircuitEngine(structure, channels=channels)


def bfs_tree_adjacency(
    structure: AmoebotStructure, root: Node
) -> Tuple[Dict[Node, List[Node]], Dict[Node, Node]]:
    """A BFS tree of the structure as rotation-ordered adjacency."""
    _dist, parent = bfs_tree(structure, root)
    edges = [(child, par) for child, par in parent.items() if par is not None]
    adjacency = adjacency_from_edges(edges) if edges else {root: []}
    cleaned = {child: par for child, par in parent.items() if par is not None}
    return adjacency, cleaned


def node_tour(
    structure: AmoebotStructure, root: Node, adjacency: Dict[Node, List[Node]]
) -> EulerTour:
    """The Euler tour of a ``Node``-adjacency tree of ``structure``."""
    return NodeScope.from_adjacency(structure.grid_index(), adjacency).tour(root)


def node_chain(
    structure: AmoebotStructure, nodes, channels=(0, 1), weights=None, tag: str = "pasc"
) -> PascChainRun:
    """A PASC chain through consecutive adjacent ``nodes`` of ``structure``."""
    nids = node_ids(structure, nodes)
    out_edges = [nid * 6 + u.direction_to(v) for nid, u, v in zip(nids, nodes, nodes[1:])]
    return PascChainRun(structure.grid_index(), nids, out_edges, channels, weights, tag)


def random_subset(structure: AmoebotStructure, count: int, seed: int) -> Set[Node]:
    rng = random.Random(seed)
    return set(rng.sample(sorted(structure.nodes), count))


def node_ids(structure: AmoebotStructure, nodes) -> List[int]:
    """Grid-index ids of ``nodes``."""
    id_of = structure.grid_index().id_of
    return [id_of(u) for u in nodes]


def edge_ids(structure: AmoebotStructure, pairs) -> List[int]:
    """Grid-index edge ids ``id(u) * 6 + direction(u -> v)`` of node pairs."""
    id_of = structure.grid_index().id_of
    return [id_of(u) * 6 + u.direction_to(v) for u, v in pairs]


def exchange_pins(layout, node: Node, label_a: str, label_b: str, pins) -> None:
    """Node-keyed oracle for ``CircuitLayout.exchange_slots``: swap the
    ``(direction, channel)`` pins of ``node`` between its sets
    ``label_a`` and ``label_b`` on a mutable layout."""
    nid = layout.structure.grid_index().id_of(node)
    slot_a, slot_b = (
        layout._key_slot[layout._key_of(nid, label)] for label in (label_a, label_b)
    )
    layout.exchange_slots(slot_a, slot_b, [(nid * 6 + d, ch) for d, ch in pins])
