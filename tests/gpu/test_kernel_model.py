"""Unit tests for the kernel cost model (roofline behaviour)."""

import numpy as np
import pytest

from repro.gpu.device import GTX_1080TI
from repro.gpu.kernel import (
    TUNED_PROFILE,
    EfficiencyProfile,
    KernelCost,
    kernel_duration,
)


class TestKernelCost:
    def test_totals(self):
        cost = KernelCost(
            "k", elements=100, flops_per_element=2.0,
            bytes_read_per_element=4.0, bytes_written_per_element=4.0,
            fixed_flops=10.0, fixed_bytes=64.0,
        )
        assert cost.total_flops == pytest.approx(210.0)
        assert cost.total_bytes == pytest.approx(864.0)

    def test_negative_elements_rejected(self):
        with pytest.raises(ValueError):
            KernelCost("k", elements=-1)

    def test_zero_passes_rejected(self):
        with pytest.raises(ValueError):
            KernelCost("k", elements=1, passes=0)

    def test_scaled(self):
        cost = KernelCost("k", elements=10, flops_per_element=1.0,
                          bytes_read_per_element=2.0)
        doubled = cost.scaled(2.0)
        assert doubled.flops_per_element == 2.0
        assert doubled.bytes_read_per_element == 4.0
        assert doubled.elements == 10

    def test_fields_cannot_be_assigned(self):
        cost = KernelCost("k", elements=10)
        for field in ("name", "elements", "flops_per_element", "passes",
                      "total_flops", "total_bytes"):
            with pytest.raises(AttributeError):
                setattr(cost, field, 1)

    def test_totals_match_the_per_element_formulas(self):
        """The stored totals equal, bit for bit, the formulas they
        replace: ``elements * flops + fixed_flops`` and
        ``elements * (read + written) + fixed_bytes``."""
        rng = np.random.default_rng(22)
        for _ in range(2000):
            elements = int(rng.integers(0, 1 << int(rng.integers(1, 41))))
            work = [float(x) for x in rng.random(5) * 10.0 ** rng.integers(-3, 7, 5)]
            if rng.random() < 0.3:
                work[int(rng.integers(5))] = 0.0
            flops, read, written, fixed_flops, fixed_bytes = work
            passes = int(rng.integers(1, 9))
            cost = KernelCost("k", elements, flops, read, written,
                              fixed_flops, fixed_bytes, passes)
            assert cost.total_flops.hex() == (elements * flops + fixed_flops).hex()
            assert cost.total_bytes.hex() == (
                elements * (read + written) + fixed_bytes
            ).hex()
            factor = float(rng.random() * 4.0)
            scaled = cost.scaled(factor)
            rebuilt = KernelCost(
                "k", elements, flops * factor, read * factor, written * factor,
                fixed_flops, fixed_bytes, passes,
            )
            assert scaled == rebuilt
            assert scaled.total_flops.hex() == rebuilt.total_flops.hex()
            assert scaled.total_bytes.hex() == rebuilt.total_bytes.hex()


class TestEfficiencyProfile:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            EfficiencyProfile("bad", compute_efficiency=0.0)
        with pytest.raises(ValueError):
            EfficiencyProfile("bad", memory_efficiency=1.5)
        with pytest.raises(ValueError):
            EfficiencyProfile("bad", launch_multiplier=0.0)


class TestKernelDuration:
    def test_empty_kernel_still_pays_launch(self):
        cost = KernelCost("noop", elements=0)
        duration = kernel_duration(cost, GTX_1080TI, TUNED_PROFILE)
        assert duration >= GTX_1080TI.kernel_launch_latency

    def test_memory_bound_scales_with_bytes(self):
        small = KernelCost("k", elements=1_000_000,
                           bytes_read_per_element=8.0, flops_per_element=0.1)
        large = small.scaled(4.0)
        t_small = kernel_duration(small, GTX_1080TI, TUNED_PROFILE)
        t_large = kernel_duration(large, GTX_1080TI, TUNED_PROFILE)
        assert t_large > t_small
        # With launch latency subtracted, time is proportional to traffic.
        body_small = t_small - GTX_1080TI.kernel_launch_latency
        body_large = t_large - GTX_1080TI.kernel_launch_latency
        assert body_large / body_small == pytest.approx(4.0, rel=0.01)

    def test_roofline_takes_maximum(self):
        compute_heavy = KernelCost("k", elements=1_000_000,
                                   flops_per_element=1000.0,
                                   bytes_read_per_element=1.0)
        memory_heavy = KernelCost("k", elements=1_000_000,
                                  flops_per_element=1.0,
                                  bytes_read_per_element=1000.0)
        t_compute = kernel_duration(compute_heavy, GTX_1080TI, TUNED_PROFILE)
        t_memory = kernel_duration(memory_heavy, GTX_1080TI, TUNED_PROFILE)
        # Both should exceed a kernel with light work on both axes.
        light = KernelCost("k", elements=1_000_000, flops_per_element=1.0,
                           bytes_read_per_element=1.0)
        t_light = kernel_duration(light, GTX_1080TI, TUNED_PROFILE)
        assert t_compute > t_light
        assert t_memory > t_light

    def test_lower_efficiency_is_slower(self):
        slow_profile = EfficiencyProfile(
            "slow", compute_efficiency=0.4, memory_efficiency=0.4
        )
        cost = KernelCost("k", elements=1_000_000,
                          bytes_read_per_element=8.0)
        assert kernel_duration(cost, GTX_1080TI, slow_profile) > (
            kernel_duration(cost, GTX_1080TI, TUNED_PROFILE)
        )

    def test_launch_multiplier_scales_overhead(self):
        heavy_dispatch = EfficiencyProfile(
            "heavy", compute_efficiency=0.9, memory_efficiency=0.9,
            launch_multiplier=3.0,
        )
        cost = KernelCost("k", elements=0)
        base = kernel_duration(cost, GTX_1080TI, TUNED_PROFILE)
        heavy = kernel_duration(cost, GTX_1080TI, heavy_dispatch)
        assert heavy == pytest.approx(3.0 * base)

    def test_extra_passes_add_tail_latency(self):
        single = KernelCost("k", elements=1000, bytes_read_per_element=4.0)
        multi = KernelCost("k", elements=1000, bytes_read_per_element=4.0,
                           passes=5)
        t_single = kernel_duration(single, GTX_1080TI, TUNED_PROFILE)
        t_multi = kernel_duration(multi, GTX_1080TI, TUNED_PROFILE)
        assert t_multi - t_single == pytest.approx(
            4 * GTX_1080TI.pass_tail_latency
        )
