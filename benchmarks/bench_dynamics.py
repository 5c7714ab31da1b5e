"""T5 — dynamics: incremental SPF repair strictly beats re-solving.

The dynamics subsystem's headline claim: after a *localized* edit batch
(≤ 5% of the nodes touched), repairing the maintained forest costs
strictly fewer synchronous rounds than a from-scratch ``solve_spf`` on
the edited structure — while producing the *identical* forest (same
parent pointers; checked here for ``k = 1``, where the canonical repair
rule coincides with the static solver's choice).

The bench also guards the layout-reuse contract of the repair path:
patch-mode repairs must never build a layout from scratch — the wave
layout is patched across structure versions through ``derive_for``, so
``LAYOUT_STATS`` shows incremental builds only.

CI runs the pytest entry points with ``BENCH_QUICK=1`` as a perf smoke.
"""

from __future__ import annotations

import os
from typing import Dict, List

QUICK = bool(os.environ.get("BENCH_QUICK"))
SIZES = (100,) if QUICK else (100, 200, 400)
STEPS = 4 if QUICK else 8


def churn_repair_run(
    n: int, kind: str, steps: int, seed: int = 1
) -> List[Dict[str, int]]:
    """Apply a localized churn stream; per batch, compare repair vs re-solve.

    Batch sizes are capped at 5% of ``n`` so every batch qualifies as
    "localized" per the dynamics acceptance claim.  Returns one record
    per batch with its repair mode, the repair rounds, and the rounds a
    from-scratch solve on the *same edited structure* costs.
    """
    from repro.dynamics import DynamicSPF, generate_churn
    from repro.sim.circuits import LAYOUT_STATS
    from repro.spf.api import solve_spf
    from repro.workloads import random_hole_free

    structure = random_hole_free(n, seed=seed)
    nodes = sorted(structure.nodes)
    source, dests = nodes[0], nodes[-5:]
    dyn = DynamicSPF(structure, [source], dests)
    batch_size = max(1, n // 40)  # ≤ 2.5% of nodes edited per batch
    script = generate_churn(
        structure, kind, steps=steps, batch_size=batch_size,
        seed=seed, protected=dyn.protected,
    )
    records: List[Dict[str, int]] = []
    LAYOUT_STATS.reset()
    for batch in script:
        stats = dyn.apply(batch)
        resolve = solve_spf(dyn.structure, [source], dests)
        assert dyn.forest.parent == resolve.forest.parent, (
            "incremental repair diverged from the from-scratch solve"
        )
        if stats.mode == "patch":
            assert stats.rounds < resolve.rounds, (
                f"repair cost {stats.rounds} rounds but a fresh solve is "
                f"{resolve.rounds} — the dynamics claim is broken"
            )
        records.append({
            "mode": stats.mode,
            "repair_rounds": stats.rounds,
            "full_rounds": resolve.rounds,
        })
    return records


def layout_reuse_contract(n: int = 120, seed: int = 3) -> None:
    """Patch-mode repairs must derive layouts, never rebuild them."""
    from repro.dynamics import DynamicSPF, generate_churn
    from repro.sim.circuits import LAYOUT_STATS
    from repro.workloads import random_hole_free

    structure = random_hole_free(n, seed=seed)
    nodes = sorted(structure.nodes)
    dyn = DynamicSPF(structure, [nodes[0]], nodes[-4:])
    script = generate_churn(
        structure, "mixed", steps=6, batch_size=2, seed=seed,
        protected=dyn.protected,
    )
    LAYOUT_STATS.reset()
    stats = dyn.apply_script(script)
    assert all(s.mode == "patch" for s in stats), (
        "localized batches unexpectedly exceeded the re-solve threshold"
    )
    assert LAYOUT_STATS.full_builds == 0, (
        f"{LAYOUT_STATS.full_builds} from-scratch layout builds during "
        "patch repairs; the wave layout must ride the derive chain"
    )
    assert LAYOUT_STATS.incremental_builds >= len(stats), (
        "every repaired batch should derive-and-refreeze the wave layout"
    )


def test_repair_beats_resolve():
    """Pytest entry: repair rounds strictly below re-solve on every size."""
    for n in SIZES:
        for kind in ("growth", "erosion"):
            records = churn_repair_run(n, kind, steps=STEPS)
            patch = [r for r in records if r["mode"] == "patch"]
            assert patch, f"no patch-mode batches at n={n} kind={kind}"
            worst = max(r["repair_rounds"] / r["full_rounds"] for r in patch)
            print(
                f"n={n} {kind}: {len(patch)}/{len(records)} patched, "
                f"worst repair/full ratio {worst:.2f}"
            )


def test_layout_reuse_contract():
    """Pytest entry: derive hits, not rebuilds, during repairs."""
    layout_reuse_contract()
