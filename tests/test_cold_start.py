"""Cold-start import guard: no solve loads an array library.

Each check runs in a fresh interpreter, since the test process may
already have imported numpy.  The contract (see ``repro.backend``):

* ``import repro`` imports neither numpy nor scipy;
* no ``Session`` solve of any request kind imports numpy or scipy,
  under any backend name — every name runs the same pure-Python
  kernels, grid-index and random-structure builds included;
* ``backend_info()`` does not probe numpy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.backend import BACKEND_NAMES

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Requests covering each request kind, on structures large enough for
#: every grid-index and mate table to be built.
REQUESTS = (
    "SolveRequest(shape='line:200', k=2, l=5)",
    "SolveRequest(shape='random:300:3', k=2, l=5)",
    "SolveRequest(shape='comb:8:8', k=4, l=5)",
    "SolveRequest(kind='route', shape='random:120:1', k=1, l=3)",
    "SolveRequest(kind='churn', shape='random:120:2', k=2, l=3,"
    " churn='growth', churn_steps=1)",
)

NO_ARRAY_LIBRARY = {"numpy": False, "scipy": False}


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


def test_import_repro_loads_no_array_library():
    assert _modules_after("import repro") == NO_ARRAY_LIBRARY


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_solve_never_imports_an_array_library(backend):
    runs = "\n".join(
        f"session.run(dataclasses.replace({r}, backend={backend!r}))"
        for r in REQUESTS
    )
    body = (
        "import dataclasses\n"
        "from repro.api import Session, SolveRequest\n"
        f"session = Session(backend={backend!r})\n{runs}"
    )
    assert _modules_after(body) == NO_ARRAY_LIBRARY


def test_backend_info_does_not_probe_numpy():
    body = (
        "from repro import backend_info, set_default_backend\n"
        "set_default_backend('numpy')\n"
        "assert backend_info() == {'default': 'numpy', 'resolved': 'python'}"
    )
    assert _modules_after(body) == NO_ARRAY_LIBRARY
