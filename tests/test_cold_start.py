"""Cold-start import guard: optional array libraries load only when used.

Each check runs in a fresh interpreter, since the test process itself
has long since imported numpy.  The contract (see ``repro.backend``):

* ``import repro`` imports neither numpy nor scipy;
* a solve on a ``backend="python"`` session never imports numpy, not
  even for grid-index or random-structure builds;
* no solve, on either backend, imports scipy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.backend import numpy_or_none

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Requests large enough to cross every vectorization threshold
#: (GridIndex tables, mate tables) and to cover each request kind.
REQUESTS = (
    "SolveRequest(shape='line:200', k=2, l=5)",
    "SolveRequest(shape='random:300:3', k=2, l=5)",
    "SolveRequest(shape='comb:8:8', k=4, l=5)",
    "SolveRequest(kind='route', shape='random:120:1', k=1, l=3)",
    "SolveRequest(kind='churn', shape='random:120:2', k=2, l=3,"
    " churn='growth', churn_steps=1)",
)


def _modules_after(body: str) -> dict:
    """Which optional libraries ``body`` leaves in ``sys.modules``."""
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        f"{body}\n"
        "print(json.dumps({name: name in sys.modules"
        " for name in ('numpy', 'scipy')}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _solves(backend: str) -> str:
    runs = "\n".join(f"session.run({r})" for r in REQUESTS)
    return (
        "from repro.api import Session, SolveRequest\n"
        f"session = Session(backend={backend!r})\n{runs}"
    )


def test_import_repro_loads_no_array_library():
    assert _modules_after("import repro") == {"numpy": False, "scipy": False}


def test_python_backend_solve_never_imports_numpy():
    assert _modules_after(_solves("python")) == {"numpy": False, "scipy": False}


@pytest.mark.skipif(numpy_or_none() is None, reason="numpy not installed")
def test_numpy_backend_solve_never_imports_scipy():
    assert _modules_after(_solves("numpy")) == {"numpy": True, "scipy": False}
