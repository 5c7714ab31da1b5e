"""Textual shape specs shared by the CLI and the experiment runner.

A shape spec is a colon-separated string naming a generator and its
integer arguments, e.g. ``hexagon:3``, ``random:200:7`` or
``lollipop:2:10``.  Specs are how scenarios stay *data*: a campaign
JSON file names structures without importing generator functions.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.grid.structure import AmoebotStructure
from repro.workloads.random_structures import random_hole_free
from repro.workloads.shapes import (
    comb,
    hexagon,
    line_structure,
    lollipop,
    parallelogram,
    staircase,
    triangle,
)


def _random(n: int, seed: int = 0) -> AmoebotStructure:
    return random_hole_free(n, seed=seed)


def _dendrite(n: int, seed: int = 0) -> AmoebotStructure:
    return random_hole_free(n, seed=seed, compactness=0.05)


_GENERATORS: Dict[str, Callable[..., AmoebotStructure]] = {
    "hexagon": hexagon,
    "parallelogram": parallelogram,
    "triangle": triangle,
    "line": line_structure,
    "comb": comb,
    "staircase": staircase,
    "lollipop": lollipop,
    "random": _random,
    "dendrite": _dendrite,
}

#: How many leading arguments are *sizes* (must be >= 1).  Trailing
#: arguments beyond this count are free-form (e.g. random seeds, which
#: may legitimately be zero or negative).
_SIZE_ARG_COUNTS: Dict[str, int] = {
    "random": 1,
    "dendrite": 1,
}

#: Named scale tiers over the seeded random generator, so campaigns,
#: benches, and CI name the same structures.  ``large`` is n = 20000,
#: ``huge`` n = 10^5; both rely on the generator's frontier-incremental
#: growth (the historical per-step re-sort made anything past ~1600
#: nodes unreachable).
SCALE_TIERS: Dict[str, str] = {
    "large": "random:20000:11",
    "huge": "random:100000:11",
}


def shape_names() -> List[str]:
    """Names accepted as the head of a shape spec."""
    return sorted(_GENERATORS)


def build_structure(spec: str) -> AmoebotStructure:
    """Build a structure from a spec like ``hexagon:3`` or ``random:200:7``.

    Supported: ``hexagon:R``, ``parallelogram:W:H``, ``triangle:S``,
    ``line:N``, ``comb:T:L``, ``staircase:S:W``, ``lollipop:R:H``,
    ``random:N[:SEED]``, ``dendrite:N[:SEED]``.

    Raises :class:`ValueError` on an unknown name, non-integer
    arguments, a wrong argument count, or a non-positive size argument
    (``random:0`` or ``line:-3`` never reach a generator; the error
    names the offending spec).

    Scale-tier aliases (:data:`SCALE_TIERS`: ``large``, ``huge``)
    resolve to their pinned random specs first.
    """
    spec = SCALE_TIERS.get(spec, spec)
    name, *args = spec.split(":")
    generator = _GENERATORS.get(name)
    if generator is None:
        raise ValueError(f"unknown shape {name!r} (try one of {shape_names()})")
    try:
        values = [int(a) for a in args]
    except ValueError as exc:
        raise ValueError(f"non-integer argument in shape spec {spec!r}") from exc
    size_args = _SIZE_ARG_COUNTS.get(name, len(values))
    for position, value in enumerate(values[:size_args]):
        if value <= 0:
            raise ValueError(
                f"shape spec {spec!r}: size argument {position + 1} "
                f"must be positive, got {value}"
            )
    try:
        return generator(*values)
    except TypeError as exc:
        raise ValueError(f"bad arguments for shape {name!r}: {exc}") from exc
