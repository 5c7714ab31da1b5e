"""Portal graphs on triangular grids (Sections 2.3 and 3.5).

For each axis ``d``, the *d-portals* are the maximal runs of amoebots
along ``d``-parallel grid lines; the *portal graph* ``P_d`` has one
vertex per portal, adjacent iff some edge of :math:`G_X` joins them.  On
hole-free structures every portal graph is a tree (Lemma 9) and grid
distances decompose as ``2 dist(u,v) = dist_x + dist_y + dist_z`` over
the three portal graphs (Lemma 11).

Amoebots cannot see portal graphs directly; they operate on the
*implicit portal tree* (Definition 12), a spanning tree of :math:`G_X`
containing all ``d``-parallel edges plus the westernmost edge between
each pair of adjacent portals — membership of every incident edge is
locally decidable.  The :class:`PortalSystem` materializes all of this
per axis in grid-index integers: a portal is its number, the index of
its run of node ids in ``PortalSystem.runs``.  :mod:`repro.portals.primitives`
lifts the Section 3 tree primitives to portals per Section 3.5, with
portal numbers as their units.
"""

from repro.portals.portals import PortalSystem, portal_sides
from repro.portals.primitives import (
    portal_root_and_prune,
    portal_elect,
    portal_centroids,
    portal_centroid_decomposition,
)

__all__ = [
    "PortalSystem",
    "portal_sides",
    "portal_root_and_prune",
    "portal_elect",
    "portal_centroids",
    "portal_centroid_decomposition",
]
