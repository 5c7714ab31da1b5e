"""Execution-backend selection: pure Python versus NumPy array kernels.

The compiled layers (:mod:`repro.sim.compiled`,
:mod:`repro.grid.compiled`) store flat integer tables either way; the
*backend* decides how those tables are traversed.  ``"python"`` iterates
them in pure-Python loops — the equivalence-tested reference that works
on any interpreter with no dependencies.  ``"numpy"`` lowers the same
tables onto ndarray kernels (``bincount`` beep propagation, sorted-array
mate resolution, vectorized component labeling, ``searchsorted`` grid
neighbor construction) and is bit-identical by construction: component
labels, round results, and grid ids match the Python backend exactly,
which the equivalence suite in ``tests/test_compiled_equivalence.py``
asserts.

NumPy is an *optional* dependency (the ``perf`` extra): every selection
point accepts ``"auto"``, which resolves to ``"numpy"`` exactly when
numpy imports and to ``"python"`` otherwise, so a numpy-free install
never changes behavior.  Selection is explicit at three levels:

* per engine — ``CircuitEngine(structure, backend="numpy")``;
* per process — :func:`set_default_backend` (the CLI's ``--backend``);
* per block, on the calling thread — the :func:`use_backend` context
  manager.  Tests pin the seed round totals under ``backend="numpy"``
  this way, and ``Session.run`` scopes a solve to its session's backend
  so that grid-index and structure builds follow it too: a
  ``backend="python"`` solve never imports numpy.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

#: Names accepted by every ``backend=`` parameter.
BACKEND_NAMES = ("auto", "python", "numpy")

_UNRESOLVED = object()
_numpy_module = _UNRESOLVED

#: Process-wide default, consulted whenever a selection point receives
#: ``None``.  ``"auto"`` keeps resolution lazy: numpy availability is
#: probed at use, not at import.
_default_backend = "auto"

#: Per-thread override of the default, set by :func:`use_backend`.
_scoped = threading.local()


class BackendUnavailableError(RuntimeError):
    """Raised when ``backend="numpy"`` is forced but numpy is missing."""


def numpy_or_none():
    """The ``numpy`` module, or ``None`` when it cannot be imported.

    The import is attempted once per process and cached (including the
    failure), so hot paths may call this freely.
    """
    global _numpy_module
    if _numpy_module is _UNRESOLVED:
        try:
            import numpy
        except ImportError:
            numpy = None
        _numpy_module = numpy
    return _numpy_module


def require_numpy():
    """The ``numpy`` module; raises :class:`BackendUnavailableError`."""
    np = numpy_or_none()
    if np is None:
        raise BackendUnavailableError(
            "backend 'numpy' requested but numpy is not importable; "
            "install the perf extra (pip install 'repro[perf]') or use "
            "backend='python'"
        )
    return np


def resolve_backend(name: Optional[str] = None) -> str:
    """Resolve a backend request to ``"python"`` or ``"numpy"``.

    ``None`` consults the default (this thread's :func:`use_backend`
    scope, else the process's); ``"auto"`` picks numpy iff it imports.
    Forcing ``"numpy"`` without numpy installed raises
    :class:`BackendUnavailableError` — an explicit request must never
    degrade silently.
    """
    if name is None:
        name = _requested()
    if name == "auto":
        return "numpy" if numpy_or_none() is not None else "python"
    _validate(name)
    return name


def _requested() -> str:
    return getattr(_scoped, "name", None) or _default_backend


def _validate(name: str) -> None:
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {name!r} (choose from {', '.join(BACKEND_NAMES)})"
        )
    if name == "numpy":
        require_numpy()


def set_default_backend(name: str) -> None:
    """Set the process-wide default backend (``auto``/``python``/``numpy``).

    Validates eagerly — setting ``"numpy"`` on a numpy-free install
    fails here rather than at the first compile.
    """
    _validate(name)
    global _default_backend
    _default_backend = name


def backend_info() -> dict:
    """Observability snapshot of the backend configuration.

    Reported by ``repro serve``'s ``/stats`` endpoint and usable from
    tests: the requested default, what it currently resolves to, and
    whether numpy is importable.
    """
    return {
        "default": _requested(),
        "resolved": resolve_backend(None),
        "numpy": numpy_or_none() is not None,
    }


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Temporarily set the default backend on the calling thread."""
    _validate(name)
    previous = getattr(_scoped, "name", None)
    _scoped.name = name
    try:
        yield resolve_backend(name)
    finally:
        _scoped.name = previous
