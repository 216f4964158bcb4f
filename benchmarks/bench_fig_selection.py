"""Fig. S (inferred) — selection runtime per library.

Two sweeps, matching the paper's per-operator methodology:

* input size at fixed 10% selectivity;
* selectivity at fixed input size (output-size sensitivity).

Expected shape: handwritten < ArrayFire (fused ``where``) < Thrust
(transform/scan/scatter chain) < Boost.Compute (same chain at OpenCL tier).
"""

from common import ALL_GPU, out_dir, run_once
from repro.bench import (
    render_all,
    render_bar_chart,
    render_series,
    run_simple_sweep,
    selection_workload,
    write_report,
)
from repro.core import col_lt

SIZES = (1 << 16, 1 << 18, 1 << 20, 1 << 22)
SELECTIVITIES = (0.01, 0.1, 0.5, 0.9)
FIXED_N = 1 << 20


def _setup_size(backend, n):
    workload = selection_workload(n, selectivity=0.1)
    return {
        "handle": backend.upload(workload.data),
        "threshold": workload.threshold,
    }


def _setup_selectivity(backend, selectivity):
    workload = selection_workload(FIXED_N, selectivity=selectivity)
    return {
        "handle": backend.upload(workload.data),
        "threshold": workload.threshold,
    }


def _run(backend, state):
    backend.selection({"x": state["handle"]}, col_lt("x", state["threshold"]))


def test_fig_selection_size_sweep(benchmark):
    def sweep():
        return run_simple_sweep(
            "Fig. S-a: selection vs input size (selectivity 10%, warm)",
            ALL_GPU, SIZES, _setup_size, _run,
        )

    result = run_once(benchmark, sweep)
    text = render_all(result, baseline="handwritten")
    text += "\n\n" + render_bar_chart(result)
    print("\n" + text)
    write_report("fig_selection_size", text, directory=out_dir())
    # Shape assertions: the paper's qualitative result at the largest size.
    last = {name: result.ms(name)[-1] for name in ALL_GPU}
    assert last["handwritten"] < last["arrayfire"]
    assert last["arrayfire"] < last["thrust"]
    assert last["thrust"] < last["boost.compute"]


def test_fig_selection_selectivity_sweep(benchmark):
    def sweep():
        return run_simple_sweep(
            f"Fig. S-b: selection vs selectivity (n={FIXED_N}, warm)",
            ALL_GPU, SELECTIVITIES, _setup_selectivity, _run,
        )

    result = run_once(benchmark, sweep)
    text = render_series(result, point_header="selectivity")
    print("\n" + text)
    write_report("fig_selection_selectivity", text, directory=out_dir())
    # Higher selectivity writes more row ids -> strictly more time.
    for name in ALL_GPU:
        series = result.ms(name)
        assert series[0] < series[-1]
