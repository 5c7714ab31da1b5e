"""Execution-backend names: accepted and validated, one kernel set runs.

The compiled layers (:mod:`repro.sim.compiled`,
:mod:`repro.grid.compiled`) store flat integer tables and traverse
them in pure-Python loops; there is one kernel set.  The backend
*names* stay part of the interface, so existing callers keep working:
``SolveRequest.backend``, ``Session(backend=)``,
``CircuitEngine(backend=)``, the CLI's ``--backend``,
:func:`set_default_backend`, :func:`use_backend` and
:func:`backend_info` all accept every name in :data:`BACKEND_NAMES`.
:func:`check_backend` is the one validator behind each of them.  Every
name resolves to ``"python"``, which is what reports record.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

#: Names accepted by every ``backend=`` parameter.
BACKEND_NAMES = ("auto", "python", "numpy")

#: The one kernel set every name resolves to.
_RESOLVED = "python"

#: Process-wide default name, reported by :func:`backend_info`.
_default_backend = "auto"


def check_backend(name: str) -> str:
    """``name`` if it is a backend name; raises :class:`ValueError`."""
    if name not in BACKEND_NAMES:
        raise ValueError(f"unknown backend {name!r} (choose from {', '.join(BACKEND_NAMES)})")
    return name


def resolve_backend(name: Optional[str] = None) -> str:
    """Validate ``name`` (``None`` = the default) and resolve it.

    Every accepted name runs the same kernels, so the answer is always
    ``"python"``.
    """
    if name is not None:
        check_backend(name)
    return _RESOLVED


def set_default_backend(name: str) -> None:
    """Set the process-wide default backend name (validated eagerly)."""
    global _default_backend
    _default_backend = check_backend(name)


def backend_info() -> dict:
    """Observability snapshot: the requested default and what runs.

    Reported by ``repro serve``'s ``/stats`` endpoint.
    """
    return {"default": _default_backend, "resolved": _RESOLVED}


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Validate ``name`` for a block; yields what it resolves to."""
    yield resolve_backend(name)
