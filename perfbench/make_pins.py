"""Regenerate ``perfbench/pins.json``: pinned rounds for every listed input.

Run from the repository root (takes a minute or two on two cores)::

    python3 perfbench/make_pins.py

Every request listed in ``plan.py`` is solved on the python backend and
its forest validated with ``check_forest``; every churn trial is
executed exactly as a campaign executes it and replayed through the
public dynamics API, and the two must agree.  Only checker-valid
outputs are pinned: a pin is a claim about a correct forest, not merely
about what the code printed.  Which inputs run is fixed by ``plan.py``
alone, so regenerating the pins never changes the workloads.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import plan  # noqa: E402
from checks import PINS_PATH, replay_churn_trial  # noqa: E402


def pin_request(op):
    from repro.api import Session
    from repro.verify import check_forest

    report = Session(backend="python").run(op.request())
    violations = check_forest(report.structure, report.sources, report.destinations,
                              report.forest.parent)
    if violations:
        raise SystemExit(f"{op.pin_id}: invalid forest: {violations[0]}")
    pin = {"rounds": report.rounds, "members": report.forest_members, "n": report.n}
    if op.kind == "route":
        pin["route_steps"] = report.routing["steps"]
        pin["route_moves"] = report.routing["total_moves"]
    return op.pin_id, pin


def pin_trial(trial):
    from repro.experiments import TrialSpec
    from repro.experiments.runner import execute_trial
    from repro.verify import check_forest

    spec = TrialSpec(scenario="pin", shape=trial.shape, k=trial.k, l=trial.l,
                     seed=trial.seed, placement=trial.placement, churn=trial.churn,
                     churn_steps=trial.steps, churn_batch=trial.batch)
    result = execute_trial(spec)
    replay = replay_churn_trial(spec)
    violations = check_forest(replay["structure"], replay["sources"],
                              replay["destinations"], replay["parent"])
    if violations:
        raise SystemExit(f"{trial.pin_id}: invalid forest: {violations[0]}")
    if (replay["rounds"], replay["forest_members"]) != (result.rounds,
                                                        result.forest_members):
        raise SystemExit(f"{trial.pin_id}: replay disagrees with the campaign trial")
    return trial.pin_id, {"rounds": result.rounds, "members": result.forest_members,
                          "n": result.n}


def main() -> int:
    requests = {op.pin_id: op for op in
                plan.ladder_pool() + plan.warm_pool() + plan.cold_pool()}
    trials = {t.pin_id: t for t in plan.churn_pool()}
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        pins = dict(pool.map(pin_request, sorted(requests.values(),
                                                 key=lambda op: op.pin_id), chunksize=4))
        pins.update(pool.map(pin_trial, sorted(trials.values(),
                                               key=lambda t: t.pin_id), chunksize=4))
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump({"description": "Pinned rounds, forest sizes and structure sizes of "
                   "every listed benchmark input (checker-valid; see make_pins.py).",
                   "pins": dict(sorted(pins.items()))}, handle, indent=0)
        handle.write("\n")
    print(f"pinned {len(pins)} inputs to {os.path.relpath(PINS_PATH)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
