"""Backend kernel contract (CI numpy leg).

The numpy execution backend promises *bit-identity*: every lowered
kernel (grid-index build, wiring compilation, round execution) produces
exactly the structures the pure-Python reference produces, so round
totals and forests are backend-invariant.  The contract also checks
that the ``large`` random tier builds and indexes under numpy.

Run quick in CI via ``BENCH_QUICK=1`` (shrinks the sweep sizes).
"""

from __future__ import annotations

import os
from typing import Dict

QUICK = bool(os.environ.get("BENCH_QUICK"))
#: Size of the CI-sized ``large`` random tier.
N_LARGE = 2000 if QUICK else 20000
SEED = 11

_STRUCTURES: Dict[int, object] = {}


def _structure(n: int):
    """The seeded random structure of size ``n`` (generated once)."""
    from repro.workloads import build_structure

    if n not in _STRUCTURES:
        _STRUCTURES[n] = build_structure(f"random:{n}:{SEED}")
    return _STRUCTURES[n]


# ----------------------------------------------------------------------
# pytest smokes (CI numpy-leg perf-smoke job)
# ----------------------------------------------------------------------


def _skip_without_numpy():
    import pytest

    from repro.backend import numpy_or_none

    if numpy_or_none() is None:
        pytest.skip("numpy not installed")


def test_round_kernel_is_bit_identical_across_backends():
    _skip_without_numpy()
    from repro.backend import use_backend
    from repro.sim.circuits import CircuitLayout

    structure = _structure(N_LARGE // 10)
    results = {}
    for backend in ("python", "numpy"):
        with use_backend(backend):
            layout = CircuitLayout(structure, 2)
            layout.assign_global("g", 0)
            compiled = layout.compiled()
            listens = list(range(len(compiled.comp)))
            results[backend] = [
                list(compiled.execute([i], listens)) for i in range(0, 60, 7)
            ]
    assert results["python"] == results["numpy"], (
        "round kernel diverged between backends; beep propagation must be "
        "bit-identical"
    )


def test_solve_totals_are_backend_invariant():
    _skip_without_numpy()
    from repro.backend import use_backend
    from repro.spf.api import solve_spf

    structure = _structure(N_LARGE // 10)
    nodes = sorted(structure.nodes)
    solutions = {}
    for backend in ("python", "numpy"):
        with use_backend(backend):
            solutions[backend] = solve_spf(structure, nodes[:1], list(structure.nodes))
    py, nb = solutions["python"], solutions["numpy"]
    assert py.rounds == nb.rounds, (
        f"round totals diverged: python {py.rounds} != numpy {nb.rounds}; "
        "the numpy backend must not change a single round"
    )
    assert py.forest.parent == nb.forest.parent, (
        "forests diverged across backends; lowering must be bit-identical"
    )


def test_large_tier_builds_under_numpy():
    _skip_without_numpy()
    from repro.backend import use_backend
    from repro.workloads import SCALE_TIERS, build_structure

    spec = f"random:{N_LARGE}:{SEED}" if QUICK else "large"
    assert "large" in SCALE_TIERS and "huge" in SCALE_TIERS
    with use_backend("numpy"):
        structure = build_structure(spec)
        index = structure.grid_index()
    assert len(structure.nodes) == N_LARGE
    assert index.n_slots == N_LARGE

