"""Lightweight experiment records and text tables for benches.

The benchmark harness prints, for every paper result it reproduces (the
README's *Tests and benchmarks*), a table of measured round counts next
to the paper's asymptotic claim.
``ResultTable`` renders aligned monospace tables; ``ExperimentRecord``
carries one row worth of data plus fitted-model diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class ExperimentRecord:
    """One measured configuration of an experiment."""

    experiment: str
    params: Dict[str, object]
    rounds: int
    extras: Dict[str, object] = field(default_factory=dict)

    def row(self) -> Dict[str, object]:
        """Flatten into a single mapping for table rendering."""
        merged: Dict[str, object] = {"experiment": self.experiment}
        merged.update(self.params)
        merged["rounds"] = self.rounds
        merged.update(self.extras)
        return merged


class ResultTable:
    """Accumulates rows and renders an aligned monospace table."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add(self, *values: object) -> None:
        """Append one row (one value per column)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append([_fmt(v) for v in values])

    def render(self) -> str:
        """Render the aligned monospace table."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        rule = "-" * len(header)
        lines = [self.title, rule, header, rule]
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        lines.append(rule)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def log_fit_slope(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    """Least-squares slope of ``y`` against ``log2 x``.

    Benches use this to check that measured round counts grow
    logarithmically: for a true ``a*log2(x)+b`` relationship the slope
    recovers ``a``.  Returns ``None`` when underdetermined.
    """
    pairs = [(math.log2(x), y) for x, y in zip(xs, ys) if x > 0]
    if len(pairs) < 2:
        return None
    n = len(pairs)
    mean_x = sum(p[0] for p in pairs) / n
    mean_y = sum(p[1] for p in pairs) / n
    var = sum((p[0] - mean_x) ** 2 for p in pairs)
    if var == 0:
        return None
    cov = sum((p[0] - mean_x) * (p[1] - mean_y) for p in pairs)
    return cov / var


def growth_ratio(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    """Ratio ``y_last / y_first`` guarded against empty input."""
    if not ys:
        return None
    return ys[-1] / max(ys[0], 1e-12)
