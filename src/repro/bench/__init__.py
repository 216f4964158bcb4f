"""Benchmark harness: workloads, sweep runner, reports, charts, calibration."""

from repro.bench.calibration import (
    effective_bandwidth,
    effective_compute,
    launch_overhead,
    render_calibration_report,
)
from repro.bench.charts import render_bar_chart

from repro.bench.report import (
    render_all,
    render_series,
    summarize_winners,
    write_report,
)
from repro.bench.runner import (
    Measurement,
    SweepResult,
    SweepRunner,
    run_simple_sweep,
)
from repro.bench.workloads import (
    SelectionWorkload,
    fk_join_keys,
    grouped_keys,
    scatter_permutation,
    selection_workload,
    selective_column,
    uniform_floats,
    uniform_ints,
)

__all__ = [
    "render_calibration_report",
    "effective_bandwidth",
    "effective_compute",
    "launch_overhead",
    "render_bar_chart",
    "SweepRunner",
    "SweepResult",
    "Measurement",
    "run_simple_sweep",
    "render_series",
    "render_all",
    "summarize_winners",
    "write_report",
    "uniform_ints",
    "uniform_floats",
    "selective_column",
    "selection_workload",
    "SelectionWorkload",
    "grouped_keys",
    "fk_join_keys",
    "scatter_permutation",
]
