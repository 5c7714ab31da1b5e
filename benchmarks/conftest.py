"""Shared helpers for the benchmark harness.

Every paper-claim bench regenerates one of the paper's round results
(the T2–T5 tables: Theorem 39, Theorem 56, Lemma 4; see the README's
*Tests and benchmarks*): it prints a table of *measured synchronous
rounds* next to the paper's asymptotic claim, checks the growth shape,
and times the simulator via pytest-benchmark.  Absolute round constants
are implementation-specific; the shapes (flat / logarithmic /
polylogarithmic / linear) are what the paper proves and what these
benches validate.
"""

from __future__ import annotations

import sys
from typing import Sequence

from repro.experiments.aggregate import summary_table
from repro.metrics.records import ResultTable


def emit(table: ResultTable, claim: str, verdict: str) -> None:
    """Print a bench table with the paper's claim and our verdict."""
    print()
    print(table.render())
    print(f"paper claim : {claim}")
    print(f"measured    : {verdict}")
    sys.stdout.flush()


def emit_records(
    records: Sequence[dict],
    x: str,
    columns: Sequence[str],
    title: str,
    claim: str,
    verdict: str,
) -> None:
    """Emit a bench table aggregated from campaign trial records."""
    emit(summary_table(records, x=x, columns=columns, title=title), claim, verdict)
