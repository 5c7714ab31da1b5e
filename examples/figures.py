#!/usr/bin/env python3
"""Regenerate the paper's illustrative figures as SVG files.

Writes to an output directory (default ``figures/`` next to the
repository root, created if missing):

* fig1_structure.svg      — an amoebot structure (Figure 1a)
* fig2_portals_{x,y,z}.svg — implicit portal graphs per axis (Figure 2)
* fig3_root_prune.svg     — root-and-prune on a tree: V_Q vs pruned (Figure 3)
* fig5_spt_{raw,pruned}.svg — SPT algorithm before/after pruning (Figure 5)
* fig6_line.svg           — line algorithm distances (Figure 6)
* fig15_regions.svg       — region decomposition at Q' portals (Figure 15)

Run:  python examples/figures.py [OUTPUT_DIR]
"""

import argparse
import os
import random

from repro import CircuitEngine, random_hole_free
from repro.grid.directions import Axis
from repro.portals.portals import PortalSystem
from repro.portals.primitives import portal_root_and_prune
from repro.primitives import root_and_prune
from repro.sim.engine import CircuitEngine
from repro.spf.line import line_forest
from repro.spf.regions import RegionDecomposition
from repro.spf.spt import shortest_path_tree
from repro.ett.tour import adjacency_from_edges
from repro.grid.oracle import bfs_tree
from repro.viz.svg import render_structure_svg
from repro.workloads import line_structure


def bfs_tree_adjacency(structure, root):
    """A BFS tree as rotation-ordered adjacency (plus parent pointers)."""
    _dist, parent = bfs_tree(structure, root)
    edges = [(c, p) for c, p in parent.items() if p is not None]
    adjacency = adjacency_from_edges(edges) if edges else {root: []}
    return adjacency, {c: p for c, p in parent.items() if p is not None}

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "figures"
)

PALETTE = [
    "#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f", "#cab2d6",
    "#ffff99", "#1f78b4", "#33a02c", "#e31a1c", "#ff7f00",
]


def save(out: str, name: str, svg: str) -> None:
    path = os.path.join(out, name)
    with open(path, "w") as handle:
        handle.write(svg)
    print(f"wrote {path}")


def fig1_structure(out: str) -> None:
    structure = random_hole_free(40, seed=3)
    save(out, "fig1_structure.svg", render_structure_svg(structure))


def fig2_portals(out: str) -> None:
    structure = random_hole_free(60, seed=12)
    for axis in Axis:
        system = PortalSystem(structure, axis)
        colors = {}
        for i in range(system.portal_count()):
            for u in system.portal_nodes(i):
                colors[u] = PALETTE[i % len(PALETTE)]
        tree_edges = [
            (u, v)
            for u, vs in system.implicit_adjacency.items()
            for v in vs
            if u < v
        ]
        save(
            out,
            f"fig2_portals_{axis.name.lower()}.svg",
            render_structure_svg(
                structure, node_colors=colors, highlight_edges=tree_edges
            ),
        )


def fig3_root_prune(out: str) -> None:
    structure = random_hole_free(60, seed=9)
    root = structure.westernmost()
    adjacency, _ = bfs_tree_adjacency(structure, root)
    rng = random.Random(2)
    q = set(rng.sample(sorted(structure.nodes), 8))
    engine = CircuitEngine(structure)
    result = root_and_prune(engine, root, adjacency, q)
    colors = {}
    for u in structure:
        if u == root:
            colors[u] = "#e31a1c"  # root (red, as in Figure 3)
        elif u in q:
            colors[u] = "#1f78b4"  # Q (blue)
        elif u in result.in_vq:
            colors[u] = "#b2df8a"  # surviving V_Q
        else:
            colors[u] = "#dddddd"  # pruned
    save(
        out,
        "fig3_root_prune.svg",
        render_structure_svg(structure, node_colors=colors, parent=result.parent),
    )


def fig5_spt(out: str) -> None:
    structure = random_hole_free(70, seed=21)
    nodes = sorted(structure.nodes)
    rng = random.Random(4)
    source = nodes[0]
    dests = rng.sample(nodes, 5)
    engine = CircuitEngine(structure)
    result = shortest_path_tree(engine, structure, source, dests)
    colors = {u: "#ffffff" for u in structure}
    colors[source] = "#e31a1c"
    for d in dests:
        colors[d] = "#1f78b4"
    save(
        out,
        "fig5_spt_raw.svg",
        render_structure_svg(structure, node_colors=colors, parent=result.raw_parent),
    )
    save(
        out,
        "fig5_spt_pruned.svg",
        render_structure_svg(structure, node_colors=colors, parent=result.forest.parent),
    )


def fig6_line(out: str) -> None:
    structure = line_structure(20)
    chain = sorted(structure.nodes)
    sources = [chain[4], chain[13]]
    engine = CircuitEngine(structure)
    forest = line_forest(engine, chain, sources)
    colors = {u: "#ffffff" for u in chain}
    for s in sources:
        colors[s] = "#e31a1c"
    save(
        out,
        "fig6_line.svg",
        render_structure_svg(structure, node_colors=colors, parent=forest.parent),
    )


def fig15_regions(out: str) -> None:
    structure = random_hole_free(150, seed=33)
    system = PortalSystem(structure, Axis.X)
    rng = random.Random(5)
    sources = rng.sample(sorted(structure.nodes), 6)
    q = {system.portal_of[u] for u in sources}
    root = system.portal_of[structure.westernmost()]
    engine = CircuitEngine(structure)
    rp = portal_root_and_prune(engine, system, root, q, compute_augmentation=True)
    q_prime = q | rp.augmentation
    decomposition = RegionDecomposition(system, q_prime, rp.in_vq)
    regions = decomposition.build_regions()
    colors = {}
    nodes = structure.grid_index().nodes
    for i, region in enumerate(regions):
        for u in region.nodes:
            colors[nodes[u]] = PALETTE[i % len(PALETTE)]
    for portal in q_prime:  # boundary portals drawn red, as in Fig. 15
        for u in system.portal_nodes(portal):
            colors[u] = "#e31a1c"
    save(out, "fig15_regions.svg", render_structure_svg(structure, node_colors=colors))


FIGURES = (fig1_structure, fig2_portals, fig3_root_prune, fig5_spt, fig6_line, fig15_regions)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "out", nargs="?", default=DEFAULT_OUT, help="output directory (default: %(default)s)"
    )
    out = parser.parse_args(argv).out
    os.makedirs(out, exist_ok=True)
    for figure in FIGURES:
        figure(out)
    print("all figures regenerated")


if __name__ == "__main__":
    main()
