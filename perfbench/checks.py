"""Correctness gate: pinned rounds plus live forest checks.

Every output is compared with the round count, forest size and
structure size pinned in ``perfbench/pins.json`` (the pins were
produced from checker-valid forests by ``make_pins.py``).  Every forest
the benchmark holds in-process is additionally validated with
:func:`repro.verify.check_forest`.  A single mismatch counts against
``ok_frac`` and makes the benchmark exit non-zero.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import Dict, List, Mapping, Optional

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def load_pins() -> Dict[str, dict]:
    """Pin id -> pinned fields (``rounds``, ``members``, ``n``, ...)."""
    with open(PINS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)["pins"]


class Checker:
    """Accumulates problems and the time spent checking."""

    def __init__(self, pins: Mapping[str, dict]):
        self.pins = pins
        self.problems: List[str] = []
        self.check_s = 0.0

    def fail(self, message: str) -> bool:
        self.problems.append(message)
        return False

    def pinned(self, pin_id: str, record: Mapping[str, object]) -> bool:
        """Compare one report/trial record with its pin."""
        pin = self.pins.get(pin_id)
        if pin is None:
            return self.fail(f"{pin_id}: no pinned rounds")
        ok = True
        fields = (("rounds", "rounds"), ("members", "forest_members"), ("n", "n"))
        for pin_field, record_field in fields:
            if record.get(record_field) != pin[pin_field]:
                ok = self.fail(
                    f"{pin_id}: {record_field} = {record.get(record_field)!r}, "
                    f"pinned {pin[pin_field]!r}"
                )
        if "route_steps" in pin:
            routing = record.get("routing") or {}
            got = (routing.get("steps"), routing.get("total_moves"))
            if got != (pin["route_steps"], pin["route_moves"]):
                ok = self.fail(f"{pin_id}: routing {got}, pinned "
                                f"{(pin['route_steps'], pin['route_moves'])}")
        return ok

    def forest(self, label: str, structure, sources, destinations, parent) -> bool:
        """Validate one forest with the paper's five properties."""
        from repro.verify import check_forest

        start = time.perf_counter()
        violations = check_forest(structure, sources, destinations, parent)
        self.check_s += time.perf_counter() - start
        if violations:
            return self.fail(f"{label}: {len(violations)} forest violations, "
                              f"first: {violations[0]}")
        return True

    def report(self, pin_id: str, report) -> bool:
        """A live :class:`~repro.api.SolveReport`: pin plus forest check."""
        start = time.perf_counter()
        ok = self.pinned(pin_id, report.to_dict())
        self.check_s += time.perf_counter() - start
        if report.forest is not None:
            ok = self.forest(pin_id, report.structure, report.sources,
                             report.destinations, report.forest.parent) and ok
        elif not report.cached:
            ok = self.fail(f"{pin_id}: executed report carries no forest")
        return ok

    def record(self, pin_id: str, record: Mapping[str, object]) -> bool:
        """A serialized report or trial record (pin only)."""
        start = time.perf_counter()
        ok = self.pinned(pin_id, record)
        self.check_s += time.perf_counter() - start
        return ok

    def replay_trial(self, trial, spec) -> Optional[dict]:
        """Re-run one churn trial through the public dynamics API.

        Checks the final forest with :func:`check_forest` and returns
        the replay (``None`` if the forest is invalid).
        """
        start = time.perf_counter()
        replay = replay_churn_trial(spec)
        self.check_s += time.perf_counter() - start
        ok = self.forest(trial.pin_id, replay["structure"], replay["sources"],
                         replay["destinations"], replay["parent"])
        return replay if ok else None


def replay_churn_trial(spec) -> dict:
    """Replay a :class:`~repro.experiments.TrialSpec` churn trial.

    Endpoints and the churn script are drawn exactly as a campaign
    trial draws them (from ``spec.sampling_seed()``), but through public
    functions only, so the replay is independent of the runner's code.
    """
    from repro.api import Session
    from repro.dynamics import DynamicSPF, generate_churn
    from repro.workloads import build_structure
    from repro.workloads.samplers import sample_sources_destinations, spread_nodes

    structure = build_structure(spec.shape)
    seed = spec.sampling_seed()
    ordered = sorted(structure.nodes)
    if spec.placement == "spread":
        sources = spread_nodes(structure, spec.k)
        chosen = set(sources)
        destinations = (list(ordered) if spec.l == 0
                        else [u for u in ordered if u not in chosen][: spec.l])
    elif spec.l == 0:
        sources = random.Random(seed).sample(ordered, spec.k)
        destinations = list(ordered)
    else:
        sources, destinations = sample_sources_destinations(
            structure, spec.k, spec.l, seed=seed)
    dyn = DynamicSPF(structure, sources, destinations if spec.l != 0 else None,
                     session=Session())
    script = generate_churn(structure, spec.churn, steps=spec.churn_steps,
                            batch_size=spec.churn_batch, seed=seed,
                            protected=dyn.protected)
    dyn.apply_script(script)
    final = dyn.structure
    return {
        "rounds": dyn.engine.rounds.total,
        "forest_members": len(dyn.forest.members),
        "structure": final,
        "sources": sources,
        "destinations": list(final.nodes) if spec.l == 0 else destinations,
        "parent": dyn.forest.parent,
    }
