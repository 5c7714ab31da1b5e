"""Locks on the supported public surface of :mod:`repro`.

Two contracts live here:

* ``repro.__all__`` names exactly the supported API — adding or
  removing an export is a deliberate, test-visible act.
* No deprecated aliases remain: ``DynamicSPF`` takes its engine from a
  ``session=``, and ``solve_spf`` has no scheduler kwarg — a scheduler
  is a ``Session`` setting.
"""

from __future__ import annotations

import inspect

import repro
from repro import Session, SolveRequest, solve_spf
from repro.workloads import random_hole_free

EXPECTED_ALL = {
    # facade
    "Session", "SolveRequest", "SolveReport", "RequestError",
    # backend controls
    "backend_info", "set_default_backend", "use_backend",
    # grid
    "AmoebotStructure", "Axis", "Direction", "Node",
    "bfs_distances", "grid_distance", "structure_diameter",
    # engines & metrics
    "CircuitEngine", "RoundCounter",
    # SPF solvers
    "Forest", "SPFSolution", "line_forest", "merge_forests",
    "propagate_forest", "shortest_path_forest", "shortest_path_tree",
    "solve_spf",
    # verification
    "assert_valid_forest", "check_forest",
    # dynamics
    "DynamicSPF", "EditBatch", "EditScript", "FaultInjector",
    "generate_churn",
    # experiments
    "CampaignRunner", "CampaignSpec", "ResultStore", "ScenarioSpec",
    "TrialSpec", "campaign_names", "get_campaign", "run_campaign",
    # workload generators
    "build_structure", "comb", "hexagon", "line_structure", "lollipop",
    "parallelogram", "random_hole_free", "sample_sources_destinations",
    "spread_nodes", "staircase", "triangle",
    "__version__",
}


class TestPublicSurface:
    def test_all_is_exactly_the_supported_surface(self):
        assert set(repro.__all__) == EXPECTED_ALL

    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_no_duplicate_exports(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_session_signature(self):
        params = list(inspect.signature(Session.__init__).parameters)
        assert params == [
            "self", "backend", "scheduler", "allow_holes", "channels",
            "layouts", "store", "max_structures",
        ]

    def test_solve_request_fields(self):
        from dataclasses import fields

        names = [f.name for f in fields(SolveRequest)]
        assert names == [
            "kind", "shape", "k", "l", "seed", "placement", "algorithm",
            "allow_holes", "scheduler", "backend", "tokens", "churn",
            "churn_steps", "churn_batch", "threshold", "crash", "drop",
            "deadline_s",
        ]

    def test_solve_spf_signature(self):
        params = list(inspect.signature(solve_spf).parameters)
        assert params == [
            "structure", "sources", "destinations", "engine",
            "allow_holes", "session",
        ]

    def test_dynamic_spf_signature(self):
        from repro import DynamicSPF

        params = list(inspect.signature(DynamicSPF.__init__).parameters)
        assert params == [
            "self", "structure", "sources", "destinations",
            "threshold", "faults", "engine", "session",
        ]


class TestDeprecatedAliases:
    """The session-based paths raise no deprecation warnings."""

    def _instance(self):
        structure = random_hole_free(40, seed=3)
        nodes = sorted(structure.nodes)
        return structure, [nodes[0]], nodes[-3:]

    def test_session_path_does_not_warn(self, recwarn):
        structure, sources, destinations = self._instance()
        solve_spf(
            structure, sources, destinations,
            session=Session(scheduler="sync"),
        )
        deprecations = [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]
        assert not deprecations
