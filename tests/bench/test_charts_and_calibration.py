"""Tests for the ASCII charts and the calibration report."""

import pytest

from repro.bench import (
    effective_bandwidth,
    effective_compute,
    launch_overhead,
    render_bar_chart,
    render_calibration_report,
    run_simple_sweep,
    selection_workload,
    uniform_ints,
)
from repro.core import col_lt
from repro.gpu import GTX_1080TI, TESLA_V100
from repro.libs.boost_compute.context import BOOST_COMPUTE_PROFILE
from repro.libs.thrust.vector import THRUST_PROFILE


def _selection_sweep(backends, sizes):
    def setup(backend, n):
        workload = selection_workload(n, 0.1)
        return backend.upload(workload.data), workload.threshold

    def run(backend, state):
        backend.selection({"x": state[0]}, col_lt("x", state[1]))

    return run_simple_sweep("chart sweep", backends, sizes, setup, run)


@pytest.fixture(scope="module")
def sweep():
    return _selection_sweep(
        ("thrust", "boost.compute", "handwritten"), (1_000, 100_000)
    )


class TestBarChart:
    def test_contains_all_backends(self, sweep):
        chart = render_bar_chart(sweep)
        for name in ("thrust", "boost.compute", "handwritten"):
            assert name in chart

    def test_fastest_has_shortest_bar(self, sweep):
        chart = render_bar_chart(sweep)
        rows = {
            line.split()[0]: line.count("█")
            for line in chart.splitlines()[1:]
        }
        assert rows["handwritten"] <= rows["thrust"] <= rows["boost.compute"]

    def test_unsupported_rendered_as_na(self):
        def setup(backend, n):
            return (
                backend.upload(uniform_ints(n)),
                backend.upload(uniform_ints(n)),
            )

        def run(backend, state):
            backend.hash_join(*state)

        result = run_simple_sweep(
            "hash", ("thrust", "handwritten"), (1_000,), setup, run
        )
        chart = render_bar_chart(result)
        assert "unsupported" in chart

    def test_log_scale_ten_chars_per_decade(self, sweep):
        chart = render_bar_chart(sweep, point_index=-1)
        rows = {}
        for line in chart.splitlines()[1:]:
            parts = line.split()
            rows[parts[0]] = (float(parts[1]), line.count("█"))
        slow_ms, slow_bar = rows["boost.compute"]
        fast_ms, fast_bar = rows["handwritten"]
        import math

        expected_extra = 10.0 * math.log10(slow_ms / fast_ms)
        assert abs((slow_bar - fast_bar) - expected_extra) <= 2.0


class TestCalibration:
    def test_derived_quantities(self):
        assert effective_bandwidth(THRUST_PROFILE) == pytest.approx(
            GTX_1080TI.dram_bandwidth * 0.88
        )
        assert effective_compute(THRUST_PROFILE) == pytest.approx(
            GTX_1080TI.peak_flops * 0.85
        )
        assert launch_overhead(BOOST_COMPUTE_PROFILE) == pytest.approx(
            GTX_1080TI.kernel_launch_latency * 2.5
        )

    def test_report_names_all_tiers(self):
        report = render_calibration_report()
        for tier in ("tuned", "thrust", "arrayfire", "boost.compute"):
            assert tier in report
        assert "4-bit digits" in report
        assert "NVRTC" in report

    def test_report_respects_device_choice(self):
        report = render_calibration_report(TESLA_V100)
        assert "tesla-v100" in report
        assert "900 GB/s" in report
