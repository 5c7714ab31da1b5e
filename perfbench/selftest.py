"""Tests of the benchmark harness itself (not collected by the main suite).

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import plan  # noqa: E402
import run  # noqa: E402
from checks import Checker, load_pins  # noqa: E402
from drift import DriftMeter, HttpKernel  # noqa: E402

BENCHMARK = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
ARGS = ("--seed", "3", "--seconds", "1", "--quick")


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--trace", str(trace), *ARGS],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc


def test_drift_correction_is_identity_at_nominal_speed():
    meter = DriftMeter(0.015)
    meter.times = [0.0, 1.0, 2.0, 3.0, 4.0]
    meter.samples = [0.015] * 5
    assert meter.factor_at(1.0, 2.0) == 1.0
    assert meter.correct(1.0, 3.5) == 2.5
    assert meter.factor() == 1.0


def test_drift_correction_follows_the_nearby_kernel_samples():
    meter = DriftMeter(0.015)
    meter.times = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
    meter.samples = [0.015] * 3 + [0.030] * 3  # the core halves its speed
    assert meter.correct(0.5, 1.5) == pytest.approx(1.0)
    assert meter.correct(10.5, 11.5) == pytest.approx(0.5)


def test_http_kernel_meter_samples_and_stops_its_server():
    import threading

    before = threading.active_count()
    kernel = HttpKernel()
    try:
        meter = DriftMeter(0.012, kernel=kernel, window_s=1.0)
        assert all(meter.sample() > 0 for _ in range(3))
        assert meter.factor_at(meter.times[0], meter.times[-1]) > 0
    finally:
        kernel.close()
    assert threading.active_count() == before


@pytest.mark.parametrize("workload", sorted(w["name"] for w in BENCHMARK["workloads"]))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    code, result, proc = _run(workload, trace)
    assert code == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_round_pin_fails_the_run(tmp_path, monkeypatch, capsys):
    pins = load_pins()
    for op in plan.ladder_pool():
        pins[op.pin_id] = dict(pins[op.pin_id], rounds=pins[op.pin_id]["rounds"] + 1)
    path = tmp_path / "pins.json"
    path.write_text(json.dumps({"pins": pins}))
    monkeypatch.setattr(checks, "PINS_PATH", str(path))
    code = run.main(["--workload", "solve_ladder", "--trace", "0", *ARGS])
    stdout = capsys.readouterr().out
    result = json.loads(stdout.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert "FAIL" in stdout


def test_corrupted_forest_is_caught():
    from repro.api import Session

    op = plan.ladder_ops(3, quick=True)[0]
    report = Session().run(op.request())
    checker = Checker(load_pins())
    assert checker.report(op.pin_id, report)
    leaf = next(u for u in report.forest.parent if u not in report.sources)
    report.forest.parent[leaf] = leaf  # a self-loop: no path to a source
    assert not checker.report(op.pin_id, report)
    assert checker.problems and "forest violations" in checker.problems[-1]
