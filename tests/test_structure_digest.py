"""Every shape spec builds bit for bit the structure it always built.

``structure_digests.json`` holds, per shape spec, a digest of the
structure's node iteration order and its grid index (``nbr``, ``deg``,
``boundary``).  Round totals, forests and tie-breaks all depend on
these, so generation, validation and index construction may get
faster but never different.  The specs are every spec named by the
tests, the benchmarks and the perfbench workload plan (ladder pool,
daemon warm and cold cells, churn cells), plus random and dendrite
seeds -3..11.

Regenerate (only for a deliberate change of what a spec builds) with
``PYTHONPATH=src python tests/test_structure_digest.py``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import sys
from typing import Dict, List

import pytest

from repro.workloads.specs import build_structure

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "structure_digests.json")
PLAN_PATH = os.path.join(os.path.dirname(HERE), "perfbench", "plan.py")

#: Valid specs named by tests and benchmarks (``huge`` = random:100000:11
#: is left out: ~3 s to build is too slow for tier-1).
NAMED_SPECS = (
    "hexagon:1", "hexagon:2", "hexagon:3", "hexagon:4", "hexagon:6",
    "hexagon:12", "hexagon:25",
    "comb:3:2", "comb:4:5", "comb:5:6", "comb:6:8", "comb:9:12",
    "comb:25:19", "comb:50:38",
    "staircase:3:2", "staircase:4:5", "staircase:6:3",
    "lollipop:2:8", "lollipop:2:10", "lollipop:3:8", "lollipop:3:12",
    "triangle:4", "triangle:9",
    "parallelogram:4:3", "parallelogram:6:5", "parallelogram:6:8",
    "line:7", "line:30", "line:37", "line:40", "line:125", "line:500",
    "line:2000",
    "random:1", "random:2", "random:3", "random:7", "random:9",
    "random:12:0", "random:30:1", "random:30:2", "random:40:3",
    "random:50:1", "random:50:3", "random:60:1", "random:60:2",
    "random:60:3", "random:60:4", "random:60:11", "random:70:3",
    "random:80:1", "random:80:2", "random:90:21", "random:100:2",
    "random:120:2", "random:120:4", "random:150:1", "random:150:2",
    "random:150:9", "random:200:1", "random:200:3", "random:200:7",
    "random:300:1", "random:300:5", "random:300:7", "random:400:9",
    "random:500:1", "random:500:3", "random:3000:11", "large",
    "dendrite:12:-5", "dendrite:30:1", "dendrite:70:2",
)
#: Generator seeds, both compactness presets of the spec language.
SEED_SPECS = tuple(
    f"{name}:90:{seed}" for name in ("random", "dendrite") for seed in range(-3, 12)
)


def plan_specs() -> List[str]:
    """Every shape spec the perfbench workload plan can put in a run."""
    spec = importlib.util.spec_from_file_location("_perfbench_plan", PLAN_PATH)
    plan = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = plan  # dataclasses resolve their module
    spec.loader.exec_module(plan)
    ops = plan.ladder_pool() + plan.warm_pool() + plan.cold_pool()
    churn = [f"random:{n}:{s}" for (_, n), pairs in plan.CHURN_CELLS.items()
             for s, _ in pairs]
    return sorted({op.shape for op in ops} | set(churn))


def all_specs() -> List[str]:
    """Every spec the digest file pins."""
    return sorted(set(NAMED_SPECS) | set(SEED_SPECS) | set(plan_specs()))


def structure_digest(spec: str) -> str:
    """Digest of a spec's node iteration order and grid-index tables."""
    structure = build_structure(spec)
    index = structure.grid_index()
    h = hashlib.sha256()
    h.update(repr([tuple(u) for u in structure.nodes]).encode())
    h.update(repr([tuple(u) for u in index.nodes]).encode())
    h.update(",".join(map(str, index.nbr)).encode())
    h.update(bytes(index.deg))
    h.update(bytes(index.boundary))
    return h.hexdigest()[:24]


def _pinned() -> Dict[str, str]:
    if not os.path.exists(DIGESTS_PATH):  # pragma: no cover - regeneration
        return {}
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


PINNED = _pinned()


def test_every_plan_spec_is_pinned():
    missing = sorted(set(all_specs()) - set(PINNED))
    assert not missing, f"specs without a pinned digest: {missing}"


@pytest.mark.parametrize("spec", sorted(PINNED))
def test_structure_digest_is_pinned(spec):
    assert structure_digest(spec) == PINNED[spec]


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    digests = {spec: structure_digest(spec) for spec in all_specs()}
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}", file=sys.stderr)
