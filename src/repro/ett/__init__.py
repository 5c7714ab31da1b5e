"""The Euler tour technique (ETT) on amoebot trees (Section 3.1).

Given a tree ``T`` embedded in the amoebot structure, every undirected
edge is replaced by its two directed versions; the local
counterclockwise-successor rule turns them into a single Euler cycle,
split at the root ``r`` into an Euler tour.  Every amoebot operates one
PASC *instance per occurrence* on the tour (at most its degree, plus one
for the root's final instance), and the tour's instance chain runs the
PASC prefix-sum construction with a 0/1 weight per directed edge.

Outcome (Lemma 14): every amoebot learns, bit by bit,
``prefixsum(u, v)`` for each of its incident directed edges and hence the
differences ``prefixsum(u, v) - prefixsum(v, u)`` for every neighbor,
which encode subtree counts (Lemma 17).  The root additionally learns the
total weight ``W`` (Corollary 15).  The ETT costs ``O(log W)`` rounds.
"""

from repro.ett.tour import (
    EulerTour,
    adjacency_from_edges,
    edge_masks,
    euler_tour,
    tree_masks,
)
from repro.ett.technique import ETTOp, ETTResult, run_ett, run_etts_parallel, mark_one_outgoing_edge
from repro.ett.election import elect_first_marked

__all__ = [
    "EulerTour",
    "euler_tour",
    "tree_masks",
    "edge_masks",
    "adjacency_from_edges",
    "ETTOp",
    "ETTResult",
    "run_etts_parallel",
    "run_ett",
    "mark_one_outgoing_edge",
    "elect_first_marked",
]
