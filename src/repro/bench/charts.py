"""Dependency-free ASCII charts for sweep results.

The paper presents its evaluation as log-log line plots; in a terminal,
a horizontal bar chart per sweep point carries the same information.
Bars are log-scaled so the orders-of-magnitude gaps (hash join vs. NLJ)
stay readable.
"""

from __future__ import annotations

import math
from typing import List

from repro.bench.runner import SweepResult

#: Glyph used for bar bodies.
BAR = "█"
HALF = "▌"


def _bar(value_ms: float, smallest_ms: float, width: int) -> str:
    """Log-scaled bar: ``width`` chars span the min..max decade range."""
    if value_ms <= 0.0 or smallest_ms <= 0.0:
        return ""
    ratio = math.log10(value_ms / smallest_ms) if value_ms > smallest_ms else 0.0
    cells = 1.0 + ratio * 10.0  # 10 chars per decade above the minimum
    cells = min(cells, float(width))
    full = int(cells)
    return BAR * full + (HALF if cells - full >= 0.5 else "")


def render_bar_chart(
    result: SweepResult,
    point_index: int = -1,
    width: int = 48,
) -> str:
    """Horizontal log-scale bars for one sweep point, slowest last."""
    points = result.points
    point = points[point_index]
    rows: List[tuple] = []
    for backend, series in result.series.items():
        measurement = series[point_index]
        rows.append(
            (backend, measurement.simulated_ms if measurement else None)
        )
    timed = [r for r in rows if r[1] is not None]
    if not timed:
        return f"== {result.title} @ {point} ==\n(no supporting backend)"
    smallest = min(ms for _name, ms in timed)
    timed.sort(key=lambda row: row[1])
    name_width = max(len(name) for name, _ms in rows)
    lines = [f"== {result.title} @ {point} (log scale, 10 chars/decade) =="]
    for name, ms in timed:
        lines.append(
            f"{name.rjust(name_width)}  {ms:10.4f} ms  "
            f"{_bar(ms, smallest, width)}"
        )
    for name, ms in rows:
        if ms is None:
            lines.append(
                f"{name.rjust(name_width)}  {'n/a':>10}     "
                "(unsupported — Table II)"
            )
    return "\n".join(lines)
