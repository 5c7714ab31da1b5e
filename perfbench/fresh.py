"""One fresh start: interpreter -> ready, drift-corrected in that interpreter.

Run as ``python3 perfbench/fresh.py <workload> <repo root> <scratch dir>``.
Timing starts before ``repro`` is imported and ends when the
workload's entry point has answered one tiny warm-up request.  Prints
one JSON line: raw seconds and the median of the kernel samples taken
before and after.
"""

import json
import os
import statistics
import sys
import time

from drift import reference_kernel


def _ladder(scratch):
    from repro.api import Session, SolveRequest

    Session().run(SolveRequest(shape="hexagon:2", k=1, l=2))
    return lambda: None


def _daemon(scratch):
    import threading

    from repro.api import SolveRequest
    from repro.service import JobSpec, ServiceClient, serve

    server = serve(port=0, workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient("127.0.0.1", server.server_address[1], timeout=60)
    result = client.run(JobSpec(request=SolveRequest(shape="hexagon:2", k=1, l=2)))
    if result.get("state") != "done" or result["result"].get("rounds", 0) <= 0:
        raise SystemExit(f"warm-up request failed: {result}")

    def stop():
        server.service.shutdown(wait=True)
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)

    return stop


def _campaign(scratch):
    from repro.experiments import CampaignRunner, CampaignSpec, ResultStore, ScenarioSpec

    store = ResultStore(os.path.join(scratch, "setup.jsonl"))
    spec = CampaignSpec(name="setup", description="warm-up", scenarios=(
        ScenarioSpec(name="warm-up", shape="random:30:1", ls=(2,), churn="growth",
                     churn_steps=1, churn_batch=1),))
    report = CampaignRunner(store=store, workers=1).run(spec)
    if report.executed != 1:
        raise SystemExit("warm-up campaign did not execute its trial")
    return lambda: None


def main() -> int:
    workload, root, scratch = sys.argv[1:4]
    sys.path.insert(0, os.path.join(root, "src"))
    os.makedirs(scratch, exist_ok=True)
    # Kernel samples before and after bracket the setup; nothing from
    # repro is imported before the clock starts.
    kernel = [reference_kernel() for _ in range(5)]
    start = time.perf_counter()
    stop = {"solve_ladder": _ladder, "daemon_mix": _daemon,
            "churn_campaign": _campaign}[workload](scratch)
    raw_s = time.perf_counter() - start
    stop()
    kernel += [reference_kernel() for _ in range(5)]
    print(json.dumps({"raw_s": raw_s, "kernel_s": statistics.median(kernel)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
