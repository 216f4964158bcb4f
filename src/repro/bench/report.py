"""Text rendering of sweep results (the paper's rows and series)."""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

from repro.bench.runner import SweepResult


def _format_ms(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    if value >= 100.0:
        return f"{value:10.1f}"
    if value >= 1.0:
        return f"{value:10.3f}"
    return f"{value:10.4f}"


def render_series(
    result: SweepResult,
    point_header: str = "n",
    show_speedup_vs: Optional[str] = None,
) -> str:
    """One row per sweep point, one simulated-ms column per backend."""
    backends = list(result.series)
    header = [point_header.rjust(12)] + [b.rjust(14) for b in backends]
    if show_speedup_vs is not None:
        others = [b for b in backends if b != show_speedup_vs]
        header += [f"x vs {b}"[:14].rjust(14) for b in others]
    lines = [f"== {result.title} ==", "  ".join(header)]
    for index, point in enumerate(result.points):
        row = [str(point).rjust(12)]
        for backend in backends:
            measurement = result.series[backend][index]
            row.append(
                _format_ms(
                    measurement.simulated_ms if measurement else None
                ).rjust(14)
            )
        if show_speedup_vs is not None:
            base = result.series[show_speedup_vs][index]
            for backend in backends:
                if backend == show_speedup_vs:
                    continue
                other = result.series[backend][index]
                if base is None or other is None or base.simulated_ms == 0:
                    row.append("n/a".rjust(14))
                else:
                    row.append(
                        f"{other.simulated_ms / base.simulated_ms:10.2f}x".rjust(14)
                    )
        lines.append("  ".join(row))
    lines.append("(simulated milliseconds on "
                 "the modelled device; lower is better)")
    return "\n".join(lines)


def summarize_winners(result: SweepResult) -> str:
    """Which backend wins at each point (the paper's qualitative claims)."""
    lines = [f"winners for {result.title}:"]
    for index, point in enumerate(result.points):
        best_name = None
        best_ms = None
        for backend, series in result.series.items():
            measurement = series[index]
            if measurement is None:
                continue
            if best_ms is None or measurement.simulated_ms < best_ms:
                best_ms = measurement.simulated_ms
                best_name = backend
        if best_name is None:
            lines.append(f"  {point}: no backend supported the operator")
        else:
            lines.append(f"  {point}: {best_name} ({best_ms:.4f} ms)")
    return "\n".join(lines)


def write_report(
    name: str, text: str, directory: Union[str, Path] = "benchmarks/out"
) -> str:
    """Persist a rendered report under ``benchmarks/out`` and return the
    path (benchmarks both print and save their tables)."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.txt"
    path.write_text(text + "\n")
    return str(path)


def render_all(
    result: SweepResult,
    point_header: str = "n",
    baseline: Optional[str] = None,
) -> str:
    """Series table + winner summary in one string."""
    parts: List[str] = [
        render_series(result, point_header, show_speedup_vs=baseline)
    ]
    parts.append(summarize_winners(result))
    return "\n\n".join(parts)
