"""Fig. G (inferred) — grouped aggregation (sum by key).

Sweeps input size and group count.  Library realization is
``sort_by_key`` + ``reduce_by_key`` (Table II); the handwritten backend
uses single-pass hash aggregation, which is why it wins by a widening
margin — the sort dominates the libraries' time.
"""

from common import ALL_GPU, out_dir, run_once
from repro.bench import (
    grouped_keys,
    render_all,
    render_series,
    run_simple_sweep,
    write_report,
)

SIZES = (1 << 16, 1 << 18, 1 << 20, 1 << 22)
GROUP_COUNTS = (16, 1 << 10, 1 << 16)
FIXED_N = 1 << 20


def _setup_size(backend, n):
    keys, values = grouped_keys(n, groups=1024)
    return backend.upload(keys), backend.upload(values)


def _setup_groups(backend, groups):
    keys, values = grouped_keys(FIXED_N, groups=groups)
    return backend.upload(keys), backend.upload(values)


def _run(backend, state):
    backend.grouped_aggregation(state[0], state[1], "sum")


def test_fig_groupby_size_sweep(benchmark):
    def sweep():
        return run_simple_sweep(
            "Fig. G-a: grouped aggregation (sum) vs input size "
            "(1024 groups, warm)",
            ALL_GPU, SIZES, _setup_size, _run,
        )

    result = run_once(benchmark, sweep)
    text = render_all(result, baseline="handwritten")
    print("\n" + text)
    write_report("fig_groupby_size", text, directory=out_dir())
    last = {name: result.ms(name)[-1] for name in ALL_GPU}
    assert last["handwritten"] < last["thrust"] / 2.0
    assert last["thrust"] < last["boost.compute"]


def test_fig_groupby_group_count_sweep(benchmark):
    def sweep():
        return run_simple_sweep(
            f"Fig. G-b: grouped aggregation vs group count (n={FIXED_N}, warm)",
            ALL_GPU, GROUP_COUNTS, _setup_groups, _run,
        )

    result = run_once(benchmark, sweep)
    text = render_series(result, point_header="groups")
    print("\n" + text)
    write_report("fig_groupby_groups", text, directory=out_dir())
    # Sort-based realizations are insensitive to group count; no library
    # series may vary by more than ~2x across three orders of magnitude.
    for name in ("thrust", "boost.compute", "arrayfire"):
        series = result.ms(name)
        assert max(series) < 2.0 * min(series)
