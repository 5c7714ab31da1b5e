"""Tree primitives built on the Euler tour technique (Section 3).

All primitives operate on trees of amoebots given by local adjacency and
are exact implementations of the paper's constructions:

* :func:`root_and_prune` — root the tree at ``r``, prune subtrees without
  ``Q``-nodes, and report ``T_Q``-degrees and the augmentation set
  ``A_Q`` (Lemmas 20 and 26).
* :func:`elect` — elect one node of ``Q`` in ``O(1)`` rounds (Lemma 21).
* :func:`q_centroids` — the ``Q``-centroid(s) (Lemma 23).
* :func:`centroid_decomposition` — the ``Q'``-centroid decomposition
  tree, level by level with same-level recursions sharing rounds
  (Lemma 31).

Each is written once over a tree scope (:mod:`repro.primitives.scope`),
so the portal primitives of Section 3.5 run the same code.
"""

from repro.primitives.root_prune import RootPruneResult, root_and_prune, RootPruneOp
from repro.primitives.election import elect
from repro.primitives.centroid import q_centroids, CentroidOp, brute_force_q_centroids
from repro.primitives.decomposition import (
    DecompositionTree,
    centroid_decomposition,
)

__all__ = [
    "RootPruneResult",
    "RootPruneOp",
    "root_and_prune",
    "elect",
    "q_centroids",
    "CentroidOp",
    "brute_force_q_centroids",
    "DecompositionTree",
    "centroid_decomposition",
]
