"""Exact round and output pins for the Section 3 tree primitives.

The whole-solve pins (``SEED_ROUNDS`` in ``tests/test_layout_reuse.py``)
cannot tell which primitive moved, and ``benchmarks/bench_primitives.py``
only bounds growth.  These pins fix, per primitive and structure, the
total rounds, the per-section breakdown and a digest of every output
(``V_Q``, parents, ``T_Q``-degrees, ``A_Q``, centroids, the winner, the
decomposition levels and parents).  A refactor of the
node or portal primitives must leave every value unchanged.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.grid.directions import Axis
from repro.portals.portals import PortalSystem
from repro.portals.primitives import (
    portal_centroid_decomposition,
    portal_centroids,
    portal_elect,
    portal_root_and_prune,
)
from repro.primitives import centroid_decomposition, q_centroids, root_and_prune
from repro.sim.engine import CircuitEngine
from repro.workloads.specs import build_structure

from tests.conftest import bfs_tree_adjacency, random_subset



def _key(unit, system=None):
    """Canonical coordinates of a node, or of the representative of
    ``system``'s portal number ``unit``."""
    node = unit if system is None else system.portal_nodes(unit)[0]
    return (node.x, node.y)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _root_prune_outputs(result, system=None):
    def key(u):
        return _key(u, system)

    return _digest(
        (
            key(result.root),
            sorted(map(key, result.in_vq)),
            sorted((key(c), key(p)) for c, p in result.parent.items()),
            sorted((key(u), d) for u, d in result.degree_q.items()),
            sorted(map(key, result.augmentation)),
            result.q_size,
        )
    )


def _tree_outputs(tree, system=None):
    def key(u):
        return _key(u, system)

    return _digest(
        (
            [[key(u) for u in level] for level in tree.levels],
            sorted(
                (key(u), None if p is None else key(p))
                for u, p in tree.parent.items()
            ),
        )
    )


def _node_setup(spec):
    structure = build_structure(spec)
    root = structure.westernmost()
    adjacency, _ = bfs_tree_adjacency(structure, root)
    q = random_subset(structure, 8, seed=1)
    return structure, root, adjacency, q


def _portal_setup(spec):
    structure = build_structure(spec)
    system = PortalSystem(structure, Axis.X)
    rng = random.Random(2)
    q = {system.portal_of[u] for u in rng.sample(sorted(structure.nodes), 6)}
    root = system.portal_of[structure.westernmost()]
    return structure, system, root, q


def _run(structure, call):
    engine = CircuitEngine(structure)
    outputs = call(engine)
    return engine.rounds.total, engine.rounds.breakdown(), outputs


def observe(spec: str, primitive: str):
    """``(rounds.total, rounds.breakdown(), output digest)`` of one call."""
    if primitive.startswith("portal"):
        structure, system, root, q = _portal_setup(spec)
        q_prime = q | portal_root_and_prune(
            CircuitEngine(structure), system, root, q, compute_augmentation=True
        ).augmentation
        calls = {
            "portal_root_and_prune": lambda e: _root_prune_outputs(
                portal_root_and_prune(e, system, root, q, compute_augmentation=True),
                system,
            ),
            "portal_centroids": lambda e: sorted(
                _key(p, system) for p in portal_centroids(e, system, root, q)
            ),
            "portal_elect": lambda e: _key(portal_elect(e, system, root, q), system),
            "portal_centroid_decomposition": lambda e: _tree_outputs(
                portal_centroid_decomposition(e, system, root, q_prime), system
            ),
        }
    else:
        structure, root, adjacency, q = _node_setup(spec)
        q_prime = q | root_and_prune(
            CircuitEngine(structure), root, adjacency, q
        ).augmentation
        calls = {
            "root_and_prune": lambda e: _root_prune_outputs(
                root_and_prune(e, root, adjacency, q)
            ),
            "q_centroids": lambda e: sorted(
                map(_key, q_centroids(e, root, adjacency, q))
            ),
            "centroid_decomposition": lambda e: _tree_outputs(
                centroid_decomposition(e, root, adjacency, q_prime)
            ),
        }
    return _run(structure, calls[primitive])


# Recorded from the revision before the node and portal primitives were
# merged into one stack; (spec, primitive) -> (total, breakdown, outputs).
PINS = {
    ("lollipop:2:8", "root_and_prune"): (8, {"root_prune": 8}, "089152b24a7fd5d0"),
    ("lollipop:2:8", "q_centroids"): (16, {"centroid": 16}, [(-1, 0), (1, 0)]),
    ("lollipop:2:8", "centroid_decomposition"): (
        52,
        {
            "decomposition": 52,
            "decomposition:elect": 4,
            "decomposition:ett1": 20,
            "decomposition:ett2": 20,
        },
        "55cc5fcb12e41407",
    ),
    ("lollipop:2:8", "portal_root_and_prune"): (
        9,
        {
            "portal_root_prune": 9,
            "portal_root_prune:degrees": 2,
            "portal_root_prune:ett": 4,
        },
        "4d5801279fae4dda",
    ),
    ("lollipop:2:8", "portal_centroids"): (
        9,
        {"portal_centroid": 9, "portal_centroid:ett1": 4, "portal_centroid:ett2": 4},
        [(-2, 1)],
    ),
    ("lollipop:2:8", "portal_elect"): (
        2,
        {"portal_election": 2, "portal_election:ett": 1},
        (-2, 0),
    ),
    ("lollipop:2:8", "portal_centroid_decomposition"): (
        20,
        {
            "pdec:elect": 2,
            "pdec:ett1": 6,
            "pdec:ett2": 6,
            "portal_decomposition": 20,
        },
        "26209dbec0bfd69e",
    ),
    ("random:150:9", "root_and_prune"): (8, {"root_prune": 8}, "dd6da6a9dc65638b"),
    ("random:150:9", "q_centroids"): (16, {"centroid": 16}, [(-3, 3)]),
    ("random:150:9", "centroid_decomposition"): (
        52,
        {
            "decomposition": 52,
            "decomposition:elect": 4,
            "decomposition:ett1": 20,
            "decomposition:ett2": 20,
        },
        "0f7e88cf52567a48",
    ),
    ("random:150:9", "portal_root_and_prune"): (
        11,
        {
            "portal_root_prune": 11,
            "portal_root_prune:degrees": 2,
            "portal_root_prune:ett": 6,
        },
        "2b179ef8339dc6ee",
    ),
    ("random:150:9", "portal_centroids"): (
        13,
        {
            "portal_centroid": 13,
            "portal_centroid:ett1": 6,
            "portal_centroid:ett2": 6,
        },
        [(-10, 4), (-9, 5)],
    ),
    ("random:150:9", "portal_elect"): (
        2,
        {"portal_election": 2, "portal_election:ett": 1},
        (-10, 4),
    ),
    ("random:150:9", "portal_centroid_decomposition"): (
        36,
        {
            "pdec:elect": 3,
            "pdec:ett1": 12,
            "pdec:ett2": 12,
            "portal_decomposition": 36,
        },
        "0bd12b89ef67ada0",
    ),
    # Recorded later, before the numpy kernels were deleted, to pin two
    # deeper shapes: a comb and a staircase.
    ("comb:6:8", "root_and_prune"): (8, {"root_prune": 8}, "e802faf924d189e8"),
    ("comb:6:8", "q_centroids"): (16, {"centroid": 16}, []),
    ("comb:6:8", "centroid_decomposition"): (
        52,
        {
            "decomposition": 52,
            "decomposition:elect": 4,
            "decomposition:ett1": 20,
            "decomposition:ett2": 20,
        },
        "3501540c35f3ad2e",
    ),
    ("comb:6:8", "portal_root_and_prune"): (
        13,
        {
            "portal_root_prune": 13,
            "portal_root_prune:degrees": 4,
            "portal_root_prune:ett": 6,
        },
        "1b2fa54f322bf1a9",
    ),
    ("comb:6:8", "portal_centroids"): (
        13,
        {"portal_centroid": 13, "portal_centroid:ett1": 6, "portal_centroid:ett2": 6},
        [(10, 4)],
    ),
    ("comb:6:8", "portal_elect"): (
        2,
        {"portal_election": 2, "portal_election:ett": 1},
        (10, 4),
    ),
    ("comb:6:8", "portal_centroid_decomposition"): (
        36,
        {"pdec:elect": 3, "pdec:ett1": 12, "pdec:ett2": 12, "portal_decomposition": 36},
        "c9c7925ab7e6c03a",
    ),
    ("staircase:4:5", "root_and_prune"): (8, {"root_prune": 8}, "ef90032186c9c928"),
    ("staircase:4:5", "q_centroids"): (16, {"centroid": 16}, [(9, 5), (10, 5)]),
    ("staircase:4:5", "centroid_decomposition"): (
        52,
        {
            "decomposition": 52,
            "decomposition:elect": 4,
            "decomposition:ett1": 20,
            "decomposition:ett2": 20,
        },
        "23b067de4d14b5ca",
    ),
    ("staircase:4:5", "portal_root_and_prune"): (
        11,
        {
            "portal_root_prune": 11,
            "portal_root_prune:degrees": 2,
            "portal_root_prune:ett": 6,
        },
        "7c578f0ee62c15cd",
    ),
    ("staircase:4:5", "portal_centroids"): (
        13,
        {"portal_centroid": 13, "portal_centroid:ett1": 6, "portal_centroid:ett2": 6},
        [(5, 5), (10, 10)],
    ),
    ("staircase:4:5", "portal_elect"): (
        2,
        {"portal_election": 2, "portal_election:ett": 1},
        (0, 0),
    ),
    ("staircase:4:5", "portal_centroid_decomposition"): (
        36,
        {"pdec:elect": 3, "pdec:ett1": 12, "pdec:ett2": 12, "portal_decomposition": 36},
        "c51b634b476c6f9f",
    ),
}


@pytest.mark.parametrize("spec, primitive", sorted(PINS))
def test_primitive_matches_pin(spec, primitive):
    total, breakdown, outputs = observe(spec, primitive)
    want_total, want_breakdown, want_outputs = PINS[(spec, primitive)]
    assert total == want_total
    assert breakdown == want_breakdown
    assert outputs == want_outputs
