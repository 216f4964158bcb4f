"""Tests for the benchmark harness (workloads, runner, reports)."""

import numpy as np
import pytest

from repro.bench import (
    SweepRunner,
    fk_join_keys,
    grouped_keys,
    render_all,
    render_series,
    run_simple_sweep,
    scatter_permutation,
    selection_workload,
    summarize_winners,
    uniform_floats,
    uniform_ints,
    write_report,
)
from repro.core import col_lt
from repro.errors import BenchmarkError


class TestWorkloads:
    def test_uniform_ints_deterministic(self):
        assert np.array_equal(uniform_ints(100), uniform_ints(100))
        assert not np.array_equal(
            uniform_ints(100, seed=1), uniform_ints(100, seed=2)
        )

    def test_uniform_floats_range(self):
        data = uniform_floats(1000)
        assert data.min() >= 0.0 and data.max() < 1.0

    def test_selection_workload_selectivity_calibrated(self):
        workload = selection_workload(200_000, selectivity=0.25)
        fraction = (workload.data < workload.threshold).mean()
        assert fraction == pytest.approx(0.25, abs=0.01)

    def test_selectivity_bounds(self):
        with pytest.raises(ValueError):
            selection_workload(10, selectivity=1.5)

    def test_grouped_keys(self):
        keys, values = grouped_keys(10_000, groups=37)
        assert len(np.unique(keys)) == 37
        assert len(values) == 10_000
        with pytest.raises(ValueError):
            grouped_keys(10, groups=0)

    def test_fk_join_keys_every_left_row_matches_once(self):
        left, right = fk_join_keys(5_000, 500)
        assert len(np.unique(right)) == 500
        assert set(np.unique(left)) <= set(range(500))

    def test_scatter_permutation(self):
        perm = scatter_permutation(256)
        assert np.array_equal(np.sort(perm), np.arange(256))


def _selection_setup(backend, n):
    workload = selection_workload(n, 0.1)
    return {
        "handle": backend.upload(workload.data),
        "threshold": workload.threshold,
    }


def _selection_run(backend, state):
    backend.selection(
        {"x": state["handle"]}, col_lt("x", state["threshold"])
    )


class TestSweepRunner:
    def test_basic_sweep_shape(self):
        result = run_simple_sweep(
            "t", ["thrust", "arrayfire"], [1_000, 10_000],
            _selection_setup, _selection_run,
        )
        assert set(result.series) == {"thrust", "arrayfire"}
        assert len(result.series["thrust"]) == 2
        assert all(m is not None for m in result.series["thrust"])
        assert result.ms("thrust")[1] > 0.0

    def test_empty_backend_list_rejected(self):
        with pytest.raises(BenchmarkError):
            SweepRunner([])

    def test_warmup_hides_compile_costs(self):
        warm = run_simple_sweep(
            "warm", ["boost.compute"], [10_000],
            _selection_setup, _selection_run, warmup=True,
        )
        cold = run_simple_sweep(
            "cold", ["boost.compute"], [10_000],
            _selection_setup, _selection_run, warmup=False,
        )
        warm_measure = warm.series["boost.compute"][0]
        cold_measure = cold.series["boost.compute"][0]
        assert warm_measure.compile_ms == 0.0
        assert cold_measure.compile_ms > 0.0
        assert cold_measure.simulated_ms > warm_measure.simulated_ms

    def test_fresh_backend_per_point_stays_cold(self):
        result = run_simple_sweep(
            "fresh", ["boost.compute"], [1_000, 1_000],
            _selection_setup, _selection_run,
            warmup=False, fresh_backend_per_point=True,
        )
        series = result.series["boost.compute"]
        assert series[0].compile_ms > 0.0
        assert series[1].compile_ms > 0.0

    def test_unsupported_operator_recorded_as_none(self):
        def setup(backend, n):
            return (
                backend.upload(uniform_ints(n)),
                backend.upload(uniform_ints(n)),
            )

        def run(backend, state):
            backend.hash_join(*state)

        result = run_simple_sweep(
            "hash", ["thrust", "handwritten"], [1_000], setup, run
        )
        assert result.series["thrust"][0] is None
        assert result.series["handwritten"][0] is not None

    def test_speedup(self):
        result = run_simple_sweep(
            "s", ["thrust", "handwritten"], [100_000],
            _selection_setup, _selection_run,
        )
        ratio = result.speedup("handwritten", "thrust")[0]
        assert ratio is not None and ratio > 1.0


class TestReports:
    @pytest.fixture(scope="class")
    def result(self):
        return run_simple_sweep(
            "demo sweep", ["thrust", "handwritten"], [1_000, 100_000],
            _selection_setup, _selection_run,
        )

    def test_render_series(self, result):
        text = render_series(result, point_header="rows")
        assert "demo sweep" in text
        assert "thrust" in text and "handwritten" in text
        assert "1000" in text

    def test_render_series_with_speedup(self, result):
        text = render_series(result, show_speedup_vs="handwritten")
        assert "x vs" in text

    def test_summarize_winners(self, result):
        text = summarize_winners(result)
        assert "handwritten" in text

    def test_render_all(self, result):
        text = render_all(result, baseline="handwritten")
        assert "winners" in text

    def test_write_report(self, result, tmp_path):
        path = write_report(
            "unit_test_report", render_series(result),
            directory=str(tmp_path),
        )
        with open(path) as handle:
            assert "demo sweep" in handle.read()
