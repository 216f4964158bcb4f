"""Kernel-launch cost model.

A kernel's simulated duration follows the classic roofline shape::

    duration = launch_latency
             + max(compute_time, memory_time)
             + tail_latency_per_pass

    compute_time = total_flops   / (peak_flops     * compute_efficiency)
    memory_time  = total_bytes   / (dram_bandwidth * memory_efficiency)

The two efficiency factors are where the *library tier* enters: a
hand-tuned CUDA kernel reaches a larger fraction of peak bandwidth than a
generic OpenCL kernel generated from a high-level functor.  Each library
emulation carries its own :class:`EfficiencyProfile` (see
``repro/libs/*/``); the mechanism each constant models is documented at its
definition site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.gpu.device import DeviceSpec


class _KernelCostFields(NamedTuple):
    name: str
    elements: int
    flops_per_element: float
    bytes_read_per_element: float
    bytes_written_per_element: float
    fixed_flops: float
    fixed_bytes: float
    passes: int
    total_flops: float
    total_bytes: float


class KernelCost(_KernelCostFields):
    """Work description for a single kernel launch.

    Attributes:
        name: kernel identifier (shows up in the profiler trace).
        elements: number of logical work items.
        flops_per_element: floating point / integer ops per work item.
        bytes_read_per_element: device DRAM bytes read per work item.
        bytes_written_per_element: device DRAM bytes written per work item.
        fixed_flops / fixed_bytes: size-independent work (e.g. a final
            block-reduction pass over a small partials array).
        passes: number of sequential device-wide passes the kernel makes
            (radix-sort digits, scan up/down sweeps); each pass incurs one
            tail latency because the SMs drain between passes.
        total_flops: total arithmetic work for the launch.
        total_bytes: total DRAM traffic for the launch.

    The two totals are computed once, at construction, from the fields
    above.  A cost is an immutable tuple: every launch builds one, so
    construction must stay cheap.
    """

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        elements: int,
        flops_per_element: float = 1.0,
        bytes_read_per_element: float = 0.0,
        bytes_written_per_element: float = 0.0,
        fixed_flops: float = 0.0,
        fixed_bytes: float = 0.0,
        passes: int = 1,
    ) -> "KernelCost":
        if elements < 0:
            raise ValueError(f"kernel elements cannot be negative: {elements}")
        if passes < 1:
            raise ValueError(f"kernel passes must be >= 1: {passes}")
        return tuple.__new__(cls, (
            name,
            elements,
            flops_per_element,
            bytes_read_per_element,
            bytes_written_per_element,
            fixed_flops,
            fixed_bytes,
            passes,
            elements * flops_per_element + fixed_flops,
            elements * (bytes_read_per_element + bytes_written_per_element)
            + fixed_bytes,
        ))

    def scaled(self, factor: float) -> "KernelCost":
        """Return a copy with all per-element work scaled by ``factor``."""
        return KernelCost(
            self.name,
            self.elements,
            self.flops_per_element * factor,
            self.bytes_read_per_element * factor,
            self.bytes_written_per_element * factor,
            self.fixed_flops,
            self.fixed_bytes,
            self.passes,
        )


@dataclass(frozen=True)
class EfficiencyProfile:
    """Fraction of device peak a library's generated kernels achieve.

    ``launch_multiplier`` scales the device's base launch latency: runtime
    systems that go through extra dispatch layers (OpenCL command queues,
    JIT runtimes) pay more per launch than a raw CUDA launch.
    """

    name: str
    compute_efficiency: float = 0.75
    memory_efficiency: float = 0.80
    launch_multiplier: float = 1.0

    def __post_init__(self) -> None:
        for field_name in ("compute_efficiency", "memory_efficiency"):
            value = getattr(self, field_name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{field_name} must be in (0, 1]: {value}")
        if self.launch_multiplier <= 0.0:
            raise ValueError(
                f"launch_multiplier must be positive: {self.launch_multiplier}"
            )


#: Baseline profile for hand-tuned vendor kernels (cuBLAS-class code).
TUNED_PROFILE = EfficiencyProfile(
    name="tuned",
    # Hand-written CUDA kernels with vectorised loads routinely reach ~90%
    # of STREAM bandwidth on memory-bound database operators.
    compute_efficiency=0.90,
    memory_efficiency=0.92,
    launch_multiplier=1.0,
)


def kernel_duration(
    cost: KernelCost,
    spec: "DeviceSpec",
    profile: EfficiencyProfile,
) -> float:
    """Simulated duration in seconds for one kernel launch.

    Empty launches (zero elements and no fixed work) still pay the launch
    latency — real libraries do launch kernels on empty inputs.
    """
    launch = spec.kernel_launch_latency * profile.launch_multiplier
    compute_time = cost.total_flops / (
        spec.peak_flops * profile.compute_efficiency
    )
    memory_time = cost.total_bytes / (
        spec.dram_bandwidth * profile.memory_efficiency
    )
    body = max(compute_time, memory_time)
    # Each extra device-wide pass drains and refills the SMs once.
    tail = (cost.passes - 1) * spec.pass_tail_latency
    return launch + body + tail
