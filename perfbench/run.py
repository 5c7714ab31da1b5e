"""The repository's benchmark: one command, every metric, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solve_ladder --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric (drift-corrected, with raw
seconds and the drift factor beside them); ``--trace 1`` runs the
workload with span tracing and prints every per-layer metric plus the
tracing overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Any output that
disagrees with its pinned rounds or fails ``check_forest`` makes the
command exit non-zero.  Metric names and units come from
``BENCHMARK.json``; ``perfbench/spec.json`` holds the workloads, the
metric definitions, the layer -> end-to-end mapping and the sizing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve_ladder", "daemon_mix", "churn_campaign")


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def measure_setup(workload: str, spec: dict, scratch: str, starts: int) -> Dict[str, float]:
    """Median drift-corrected setup over several fresh interpreters."""
    corrected: List[float] = []
    raw: List[float] = []
    for i in range(starts + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "fresh.py"), workload, ROOT,
             os.path.join(scratch, f"setup{i}")],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"fresh start failed:\n{proc.stderr[-2000:]}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if i == 0:
            continue  # first start after a checkout writes bytecode caches
        raw.append(sample["raw_s"])
        corrected.append(sample["raw_s"] * spec["nominal_kernel_s"] / sample["kernel_s"])
    return {"setup_s": statistics.median(corrected), "raw_s": statistics.median(raw),
            "starts": len(corrected)}


def run_workload(args, spec: dict, pins, scratch: str):
    import plan
    from checks import Checker
    from drift import DriftMeter

    sizing = spec["sizing"]
    meter = DriftMeter(spec["nominal_kernel_s"])
    checker = Checker(pins)
    trace = bool(args.trace)
    if args.workload == "solve_ladder":
        import ladder

        passes = max(1, round(args.seconds / sizing["ladder_pass_s"]))
        ops = plan.ladder_ops(args.seed, quick=args.quick) * passes
        outcome = ladder.run(ops, meter, checker, trace=trace)
    elif args.workload == "daemon_mix":
        import daemon

        per_client = max(20, round(args.seconds * sizing["mix_ops_per_s_per_client"]))
        if args.quick:
            per_client = 40
        mix = plan.daemon_mix(args.seed, per_client, sizing["mix_passes"])
        outcome = daemon.run(mix, meter, checker, spec["nominal_http_kernel_s"],
                             trace=trace)
    else:
        import campaign

        cycles = max(1, round(args.seconds / sizing["campaign_cycle_s"]))
        spec_c = plan.churn_campaign(args.seed, quick=args.quick)
        outcome = campaign.run(spec_c, os.path.join(scratch, "campaign"), cycles,
                               meter, checker, trace=trace)
    return outcome, meter, checker


def _summary(pairs, which: int) -> Dict[str, float]:
    from measure import tail

    values = [pair[which] for pair in pairs]
    value, pct, count = tail(values)
    return {"p50": statistics.median(values), "tail": value, "pct": pct, "n": count}


def end_to_end(outcome, setup: Dict[str, float]) -> Dict[str, float]:
    lat = _summary(outcome.latencies, 1)
    attempted = max(1, outcome.attempted)
    return {
        "setup_s": setup["setup_s"],
        "throughput_ops": len(outcome.latencies) / outcome.busy_s,
        "latency_p50_s": lat["p50"],
        "latency_tail_s": lat["tail"],
        "cold_p50_s": _summary(outcome.cold, 1)["p50"],
        "warm_p50_s": _summary(outcome.warm, 1)["p50"],
        "rounds_total": outcome.rounds_total,
        "peak_rss_mb": outcome.peak_rss_mb,
        "ok_frac": (attempted - outcome.failed) / attempted,
    }


def per_layer(names, outcome, meter, checker) -> Dict[str, float]:
    """Every per-layer metric; layers a workload never touches read 0."""
    layers = dict(outcome.layers)
    factor = meter.factor()

    def ratio(num: str, den: str) -> float:
        return layers.get(num, 0.0) / layers[den] if layers.get(den) else 0.0

    layers["verify.check_s"] = checker.check_s
    hits, misses = layers.get("sim.cache_hits", 0.0), layers.get("sim.cache_misses", 0.0)
    layers["sim.layout_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    if "api.requests" in layers:
        layers["api.hit_ratio"] = ratio("api.cache_hits", "api.requests")
    layers["dynamics.patch_ratio"] = ratio("dynamics.patches", "dynamics.batches")
    layers["dynamics.dirty_fraction"] = ratio("dynamics.dirty_nodes", "dynamics.batch_nodes")
    layers["experiments.resume_hit_ratio"] = ratio(
        "experiments.resume_hits", "experiments.resume_trials")
    layers["drift.factor"] = factor
    out = {}
    for metric in names:
        value = float(layers.get(metric, 0.0))
        if metric.endswith("_s") and metric != "verify.check_s":
            value *= factor  # seconds of a nominal-speed machine
        out[metric] = value
    return out


def report(args, benchmark, outcome, meter, checker, setup) -> int:
    units = {m["name"]: m["unit"]
             for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    drift = meter.summary()
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# drift: kernel median {drift['kernel_median_s'] * 1e3:.3f} ms "
          f"(IQR {100 * drift['kernel_iqr_frac']:.1f}% over {drift['kernel_samples']} "
          f"samples), nominal {drift['nominal_s'] * 1e3:.3f} ms, "
          f"factor {drift['factor']:.4f}")
    if args.trace:
        metrics = per_layer([m["name"] for m in benchmark["per_layer"]], outcome,
                            meter, checker)
        for name, value in sorted(outcome.layers.items()):
            if name.startswith("self."):
                print(f"# span self time {name[5:]} {value:.6f} s raw")
    else:
        metrics = end_to_end(outcome, setup)
        print(f"# setup_s {metrics['setup_s']:.4f} s corrected, "
              f"{setup['raw_s']:.4f} s raw (median of {setup['starts']} fresh starts)")
        for label, pairs in (("latency", outcome.latencies), ("cold", outcome.cold),
                             ("warm", outcome.warm)):
            raw, corrected = _summary(pairs, 0), _summary(pairs, 1)
            print(f"# {label}: p50 {corrected['p50']:.6f} s corrected, {raw['p50']:.6f} s "
                  f"raw; p{corrected['pct']:.1f} {corrected['tail']:.6f} s corrected, "
                  f"{raw['tail']:.6f} s raw; n={corrected['n']}")
        print(f"# throughput_ops {metrics['throughput_ops']:.4f} 1/s over "
              f"{outcome.busy_s:.3f} s corrected, {outcome.busy_raw_s:.3f} s raw")
        print(f"# rounds_total {outcome.rounds_total} (pinned {outcome.rounds_pinned})")
    for name, value in outcome.raw.items():
        print(f"# raw {name} {value:.6f}")
    for name, value in outcome.diagnostics.items():
        if name != "spans":
            print(f"# diagnostic {name} {json.dumps(value, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if args.trace and "spans" in outcome.diagnostics:
        from spans import dump

        path = os.path.join(ROOT, ".bench_runs", f"trace-{args.workload}-{args.seed}.jsonl")
        count = dump(path, outcome.diagnostics["spans"])
        print(f"# wrote {count} spans to {os.path.relpath(path, ROOT)}")
    problems = list(checker.problems)
    if outcome.rounds_total != outcome.rounds_pinned:
        problems.append(f"rounds_total {outcome.rounds_total} != pinned "
                        f"{outcome.rounds_pinned}")
    for problem in problems[:20]:
        print(f"# FAIL {problem}")
    correct = not problems and outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed if correct else max(1, outcome.failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes (harness self-tests)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from checks import load_pins

    spec = load_json(os.path.join(HERE, "spec.json"))
    benchmark = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    pins = load_pins()
    scratch = os.path.join(ROOT, ".bench_runs", f"tmp-{os.getpid()}")
    try:
        starts = 1 if args.quick else spec["sizing"]["setup_starts"]
        setup = {} if args.trace else measure_setup(args.workload, spec, scratch, starts)
        outcome, meter, checker = run_workload(args, spec, pins, scratch)
        return report(args, benchmark, outcome, meter, checker, setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
