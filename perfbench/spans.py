"""Span bookkeeping for the traced run: trees, self time, layer totals.

Span records are the program's own :mod:`repro.obs` records (``build``,
``structure``, ``grid_index``, ``rounds``, ``compile``, ``route``,
``repair``, ``store``) plus ``bench.*`` spans the benchmark opens
around public calls.  Each list passed in comes from one tracer, so
span ids are unique within it.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from typing import Dict, Iterable, List


def _tree(records: List[dict]):
    by_id = {r["id"]: r for r in records}
    children: Dict[int, List[dict]] = defaultdict(list)
    for r in records:
        if r.get("parent") in by_id:
            children[r["parent"]].append(r)
    return by_id, children


def _descendants(span: dict, children, name: str) -> List[dict]:
    """Top-most descendants of ``span`` called ``name``."""
    out, stack = [], list(children.get(span["id"], ()))
    while stack:
        node = stack.pop()
        if node["name"] == name:
            out.append(node)
        else:
            stack.extend(children.get(node["id"], ()))
    return out


def _has_ancestor(span: dict, by_id, name: str) -> bool:
    parent = by_id.get(span.get("parent"))
    while parent is not None:
        if parent["name"] == name:
            return True
        parent = by_id.get(parent.get("parent"))
    return False


def self_times(records: List[dict]) -> Dict[str, float]:
    """Name -> summed self time (duration minus direct children's)."""
    _, children = _tree(records)
    out: Dict[str, float] = defaultdict(float)
    for r in records:
        covered = sum(c["dur_s"] for c in children.get(r["id"], ()))
        out[r["name"]] += max(0.0, r["dur_s"] - covered)
    return dict(out)


def layer_times(tracers: Iterable[List[dict]]) -> Dict[str, float]:
    """Per-layer seconds derived from the span trees of every tracer."""
    out = defaultdict(float)
    for records in tracers:
        by_id, children = _tree(records)
        for r in records:
            name, dur = r["name"], r["dur_s"]
            if name in ("structure", "grid_index"):
                out["grid.build_s"] += dur
            elif name == "build" and not _descendants(r, children, "structure"):
                out["grid.build_s"] += dur  # campaign trials build inline
            elif name == "grid_tables" and not _has_ancestor(r, by_id, "grid_index"):
                out["grid.build_s"] += dur  # lazily built index
            elif name == "rounds":
                compiles = sum(c["dur_s"] for c in _descendants(r, children, "compile"))
                repairs = sum(c["dur_s"] for c in _descendants(r, children, "repair"))
                out["sim.rounds_self_s"] += dur - compiles
                out["spf.solve_s"] += dur - repairs
            elif name == "repair":
                out["dynamics.repair_s"] += dur
        for name, value in self_times(records).items():
            out[f"self.{name}"] += value
    return dict(out)


def dump(path: str, tracers: Dict[str, List[dict]]) -> int:
    """Write every span as JSONL, tagged with its tracer's label."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for label, records in tracers.items():
            for record in records:
                handle.write(json.dumps({"tracer": label, **record}, sort_keys=True,
                                        default=str) + "\n")
                count += 1
    return count
