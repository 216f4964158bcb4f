"""Simulated GPU device: spec presets and the :class:`Device` facade.

The device ties together the simulated clock, memory manager, profiler, and
the kernel/transfer cost models.  Library emulations never advance the clock
directly — they describe work (a :class:`~repro.gpu.kernel.KernelCost`, a
transfer size, a compile request) and the device prices it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import DeviceMemoryError, TransferError
from repro.gpu import profiler as prof
from repro.gpu.clock import SimulatedClock
from repro.gpu.kernel import EfficiencyProfile, KernelCost, kernel_duration
from repro.gpu.memory import (
    CUDA_FREE_LATENCY,
    CUDA_MALLOC_LATENCY,
    POOL_HIT_LATENCY,
    DeviceBuffer,
    MemoryManager,
    PoolAllocator,
    align_size,
)
from repro.gpu.stream import (
    DEFAULT_STREAM_ID,
    ENGINE_COMPUTE,
    ENGINE_D2H,
    ENGINE_H2D,
    ENGINES,
    EngineTimeline,
    Stream,
    StreamEvent,
    StreamStats,
    engine_stats,
)
from repro.gpu.transfer import (
    NVME_SSD,
    PCIE3_X16,
    PCIE4_X16,
    SHARED_MEMORY_LINK,
    LinkSpec,
)


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a simulated GPU.

    ``peak_flops`` is derived as ``sm_count * cores_per_sm * clock * 2``
    (fused multiply-add counts as two operations), matching how vendors
    quote single-precision peaks.
    """

    name: str
    sm_count: int
    cores_per_sm: int
    core_clock_hz: float
    dram_bandwidth: float  # bytes/second
    memory_bytes: int
    kernel_launch_latency: float  # seconds per launch (driver + dispatch)
    pass_tail_latency: float  # seconds to drain/refill SMs between passes
    link: LinkSpec = field(default=PCIE3_X16)

    def __post_init__(self) -> None:
        if self.sm_count <= 0 or self.cores_per_sm <= 0:
            raise ValueError("SM and core counts must be positive")
        if self.core_clock_hz <= 0 or self.dram_bandwidth <= 0:
            raise ValueError("clock and bandwidth must be positive")
        if self.memory_bytes <= 0:
            raise ValueError("device memory must be positive")

    @property
    def peak_flops(self) -> float:
        """Single-precision peak in FLOP/s (FMA counted as 2 ops)."""
        return self.sm_count * self.cores_per_sm * self.core_clock_hz * 2.0


# ---------------------------------------------------------------------------
# Device presets.
#
# GTX_1080TI matches the 2019/2020-era discrete GPU class the paper's group
# used for their GPU DBMS work (CoGaDB papers report GTX-class devices).
# The launch latency of ~5 us is the widely reported CUDA null-kernel cost.
# ---------------------------------------------------------------------------

GTX_1080TI = DeviceSpec(
    name="gtx-1080ti",
    sm_count=28,
    cores_per_sm=128,
    core_clock_hz=1.58e9,
    dram_bandwidth=484.0e9,
    memory_bytes=11 * 1024**3,
    kernel_launch_latency=5.0e-6,
    pass_tail_latency=2.0e-6,
    link=PCIE3_X16,
)

TESLA_V100 = DeviceSpec(
    name="tesla-v100",
    sm_count=80,
    cores_per_sm=64,
    core_clock_hz=1.53e9,
    dram_bandwidth=900.0e9,
    memory_bytes=16 * 1024**3,
    kernel_launch_latency=4.0e-6,
    pass_tail_latency=1.5e-6,
    link=PCIE4_X16,
)

#: A small integrated GPU: useful for testing OOM paths with realistic sizes.
INTEGRATED_GPU = DeviceSpec(
    name="integrated",
    sm_count=6,
    cores_per_sm=64,
    core_clock_hz=1.1e9,
    dram_bandwidth=34.0e9,
    memory_bytes=2 * 1024**3,
    kernel_launch_latency=8.0e-6,
    pass_tail_latency=3.0e-6,
    link=SHARED_MEMORY_LINK,
)

PRESETS: Dict[str, DeviceSpec] = {
    spec.name: spec for spec in (GTX_1080TI, TESLA_V100, INTEGRATED_GPU)
}


def get_spec(name: str) -> DeviceSpec:
    """Look up a device preset by name."""
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown device preset {name!r}; known presets: {known}")


#: Allocation pricing modes (``Device(allocator=...)``):
#:
#: * ``"null"``  — legacy: allocations/frees are free and asynchronous, as
#:   if every buffer were pre-allocated (how the paper's benchmarks run).
#: * ``"malloc"`` — every allocation is a real ``cudaMalloc``: it charges
#:   host time *and* drains the engines (the driver's implicit sync), and
#:   every free is a ``cudaFree``.
#: * ``"pool"``  — a :class:`~repro.gpu.memory.PoolAllocator` sits in
#:   front of the memory manager: freelist hits cost only host
#:   bookkeeping; misses pay the full ``cudaMalloc`` path.
ALLOCATOR_KINDS = ("null", "malloc", "pool")


@dataclass
class FaultPlan:
    """Deterministic fault-injection state (``Device.inject_faults``).

    Countdown semantics: ``oom_after`` / ``transfer_fault_after`` fire on
    the N-th *subsequent* call (0 = the very next one), then clear — so a
    retry after the fault succeeds, which is exactly what the recovery
    paths need to be testable.  ``oom_at_bytes`` is persistent: it caps
    usable capacity until :meth:`Device.clear_faults`.
    """

    oom_after: Optional[int] = None
    oom_at_bytes: Optional[int] = None
    transfer_fault_after: Optional[int] = None
    transfer_direction: str = "any"  # "h2d" | "d2h" | "any"


class Device:
    """A simulated GPU instance.

    All pricing goes through the four ``launch`` / ``transfer_*`` /
    ``compile`` methods so that every simulated nanosecond is matched by a
    profiler event.  Each method accepts an optional ``stream``: work on a
    :class:`~repro.gpu.stream.Stream` is scheduled asynchronously on the
    per-engine timelines (kernels on the compute engine, one copy engine
    per direction) and overlaps with work on other streams.  Without a
    stream — and with no :meth:`stream_scope` active — work runs on the
    legacy default stream: it drains every engine first and runs
    exclusively, which reproduces the original serial timeline exactly.
    """

    def __init__(
        self,
        spec: DeviceSpec = GTX_1080TI,
        *,
        profile_events: bool = True,
        allocator: str = "null",
    ) -> None:
        if allocator not in ALLOCATOR_KINDS:
            known = ", ".join(ALLOCATOR_KINDS)
            raise ValueError(f"unknown allocator {allocator!r}; known: {known}")
        self.spec = spec
        self.clock = SimulatedClock()
        self.memory = MemoryManager(spec.memory_bytes)
        self.allocator_kind = allocator
        #: Pooling sub-allocator (``allocator="pool"`` only), else None.
        self.pool: Optional[PoolAllocator] = (
            PoolAllocator(self.memory) if allocator == "pool" else None
        )
        self._faults = FaultPlan()
        self._transfer_count = 0
        self.profiler = prof.Profiler(enabled=profile_events)
        #: Bumped on every reset; streams/events from older epochs are stale.
        self.epoch = 0
        self._engines: Dict[str, EngineTimeline] = {
            name: EngineTimeline(name) for name in ENGINES
        }
        self._streams: List[Stream] = []
        self._next_stream_id = 1
        #: Completion time of the latest legacy default-stream item; async
        #: work never starts before it (CUDA stream-0 semantics).
        self._barrier = 0.0
        self._current_stream: Optional[Stream] = None

    # -- streams -----------------------------------------------------------

    def create_stream(self, name: Optional[str] = None) -> Stream:
        """Create an asynchronous work queue (``cudaStreamCreate``)."""
        stream_id = self._next_stream_id
        self._next_stream_id += 1
        stream = Stream(self, stream_id, name or f"stream-{stream_id}")
        self._streams.append(stream)
        return stream

    @property
    def current_stream(self) -> Optional[Stream]:
        """The stream installed by the innermost :meth:`stream_scope`."""
        return self._current_stream

    @contextmanager
    def stream_scope(self, stream: Optional[Stream]) -> Iterator[Optional[Stream]]:
        """Route all work priced inside the scope onto ``stream``.

        An explicit ``stream=`` argument on a pricing call still wins;
        ``stream_scope(None)`` forces the legacy default stream inside an
        outer scope.  Scopes nest.
        """
        previous = self._current_stream
        self._current_stream = stream
        try:
            yield stream
        finally:
            self._current_stream = previous

    def synchronize(self) -> float:
        """Drain all engines and streams (``cudaDeviceSynchronize``).

        Advances the global clock to the latest completion time across
        every engine and stream cursor; returns the new clock time.  The
        sync point also becomes the submission floor: the host waited
        here, so work submitted afterwards — on any stream — cannot be
        scheduled before it.  Back-to-back identical runs therefore
        report identical durations.
        """
        latest = self._barrier
        for engine in self._engines.values():
            latest = max(latest, engine.busy_until)
        for stream in self._streams:
            latest = max(latest, stream.cursor)
        self._barrier = latest
        return self.clock.advance_to(latest)

    def _raise_submit_floor(self, timestamp: float) -> None:
        """Raise the submission floor to ``timestamp`` (monotonic).

        Called when the host blocks (stream/device synchronisation): work
        submitted after the host resumed cannot be scheduled before the
        point it resumed at.  Implemented via the default-stream barrier,
        which both legacy and async scheduling already respect.
        """
        if timestamp > self._barrier:
            self._barrier = timestamp

    def engine_timeline(self, name: str) -> EngineTimeline:
        """The occupancy timeline of one engine (tests, reports)."""
        return self._engines[name]

    def engine_summary(self) -> StreamStats:
        """Engine busy-time summary against the current clock makespan."""
        return engine_stats(list(self._engines.values()), self.clock.now)

    def record_event(self, stream: Optional[Stream] = None) -> StreamEvent:
        """Record an event on ``stream`` (default: the legacy stream,
        whose events capture the completion of all default-stream work)."""
        if stream is not None:
            return stream.record_event()
        return StreamEvent(
            name="default-stream-event",
            stream_id=DEFAULT_STREAM_ID,
            timestamp=max(self.clock.now, self._barrier),
            epoch=self.epoch,
        )

    def _resolve_stream(self, stream: Optional[Stream]) -> Optional[Stream]:
        """Explicit stream argument, else the scope stream, else legacy."""
        return stream if stream is not None else self._current_stream

    def _schedule(
        self, engine_name: str, duration: float, stream: Optional[Stream]
    ) -> Tuple[float, float, int]:
        """Resolve one work item's (start, end, stream id).

        Legacy default-stream items drain every engine, run exclusively,
        and raise the barrier; stream items start at the latest of the
        stream's FIFO cursor, the barrier, and the engine's free time.
        The global clock advances to the item's end (monotonic max).
        """
        engine = self._engines[engine_name]
        if stream is None:
            earliest = self.clock.now
            if self._barrier > earliest:
                earliest = self._barrier
            for other in self._engines.values():
                if other.busy_until > earliest:
                    earliest = other.busy_until
            start, end = engine.schedule(earliest, duration)
            self._barrier = end
            self.clock.advance_to(end)
            return start, end, DEFAULT_STREAM_ID
        stream._check_epoch()
        earliest = max(stream.cursor, self._barrier)
        start, end = engine.schedule(earliest, duration)
        stream._advance(end)
        self.clock.advance_to(end)
        return start, end, stream.stream_id

    # -- kernels ----------------------------------------------------------

    def launch(
        self,
        cost: KernelCost,
        profile: EfficiencyProfile,
        stream: Optional[Stream] = None,
    ) -> float:
        """Price and execute one kernel launch; returns its duration."""
        duration = kernel_duration(cost, self.spec, profile)
        start, _end, stream_id = self._schedule(
            ENGINE_COMPUTE,
            duration,
            stream if stream is not None else self._current_stream,
        )
        self.profiler.record(
            prof.KERNEL,
            cost.name,
            start,
            duration,
            elements=cost.elements,
            flops=cost.total_flops,
            bytes=cost.total_bytes,
            library=profile.name,
            stream=stream_id,
            engine=ENGINE_COMPUTE,
        )
        return duration

    # -- transfers --------------------------------------------------------

    def _check_transfer_fault(self, direction: str, label: str) -> None:
        """Fire a pending injected transfer fault if its countdown hits 0."""
        index = self._transfer_count
        self._transfer_count += 1
        plan = self._faults
        if plan.transfer_fault_after is None:
            return
        if plan.transfer_direction not in ("any", direction):
            return
        if plan.transfer_fault_after > 0:
            plan.transfer_fault_after -= 1
            return
        plan.transfer_fault_after = None
        raise TransferError(direction=direction, index=index, label=label)

    def transfer_to_device(
        self,
        nbytes: int,
        label: str = "h2d",
        stream: Optional[Stream] = None,
    ) -> float:
        """Host → device copy of ``nbytes`` (async when on a stream)."""
        self._check_transfer_fault("h2d", label)
        duration = self.spec.link.transfer_time(nbytes)
        start, _end, stream_id = self._schedule(
            ENGINE_H2D, duration, self._resolve_stream(stream)
        )
        self.profiler.record(
            prof.TRANSFER_H2D, label, start, duration,
            nbytes=nbytes, stream=stream_id, engine=ENGINE_H2D,
        )
        return duration

    def transfer_to_host(
        self,
        nbytes: int,
        label: str = "d2h",
        stream: Optional[Stream] = None,
    ) -> float:
        """Device → host copy of ``nbytes`` (async when on a stream)."""
        self._check_transfer_fault("d2h", label)
        duration = self.spec.link.transfer_time(nbytes)
        start, _end, stream_id = self._schedule(
            ENGINE_D2H, duration, self._resolve_stream(stream)
        )
        self.profiler.record(
            prof.TRANSFER_D2H, label, start, duration,
            nbytes=nbytes, stream=stream_id, engine=ENGINE_D2H,
        )
        return duration

    def host_io(
        self,
        nbytes: int,
        label: str = "nvme",
        link: Optional[LinkSpec] = None,
    ) -> float:
        """Charge a host <-> storage I/O (the tiered store's NVMe leg).

        Unlike :meth:`transfer_to_device`/:meth:`transfer_to_host`, this
        models a blocking host-side read/write against a storage link: it
        occupies no copy engine (so it cannot overlap stream work, like
        an O_DIRECT syscall), is priced on ``link`` rather than the PCIe
        link, and is *not* subject to injected transfer faults — the
        fault plan targets the host/device interconnect.
        """
        if link is None:
            link = NVME_SSD
        duration = link.transfer_time(nbytes)
        start = self._host_block(duration, drain_engines=False)
        self.profiler.record(
            prof.HOST_IO, label, start, duration,
            nbytes=nbytes, link=link.name,
        )
        return duration

    # -- runtime compilation (OpenCL program build / ArrayFire JIT) -------

    def compile_program(self, name: str, cost_seconds: float) -> float:
        """Charge a runtime compilation (OpenCL build, JIT codegen).

        Compilation is host/driver work: it blocks the submitting thread,
        so it always serialises against everything regardless of any
        active stream scope (it drains the engines and raises the
        default-stream barrier).
        """
        if cost_seconds < 0.0:
            raise ValueError(f"compile cost cannot be negative: {cost_seconds}")
        start = self.clock.now
        if self._barrier > start:
            start = self._barrier
        for engine in self._engines.values():
            if engine.busy_until > start:
                start = engine.busy_until
        end = start + cost_seconds
        self._barrier = end
        self.clock.advance_to(end)
        self.profiler.record(prof.COMPILE, name, start, cost_seconds)
        return cost_seconds

    # -- fault injection ---------------------------------------------------

    def inject_faults(
        self,
        *,
        oom_at_alloc: Optional[int] = None,
        oom_at_bytes: Optional[int] = None,
        transfer_fault_at: Optional[int] = None,
        transfer_direction: str = "any",
    ) -> None:
        """Arm deterministic failures so every error path is testable.

        * ``oom_at_alloc=N`` — the N-th subsequent allocation (0 = the
          next one) raises :class:`DeviceMemoryError`, then the fault
          clears (a retry allocates normally).
        * ``oom_at_bytes=B`` — usable capacity is capped at ``B`` bytes
          until :meth:`clear_faults`; allocations over the cap fail after
          pressure callbacks (pool trim, cache eviction) have run.
        * ``transfer_fault_at=N`` — the N-th subsequent transfer matching
          ``transfer_direction`` (``"h2d"``/``"d2h"``/``"any"``) raises
          :class:`~repro.errors.TransferError`, then the fault clears.
        """
        if oom_at_alloc is not None and oom_at_alloc < 0:
            raise ValueError(f"oom_at_alloc cannot be negative: {oom_at_alloc}")
        if transfer_fault_at is not None and transfer_fault_at < 0:
            raise ValueError(
                f"transfer_fault_at cannot be negative: {transfer_fault_at}"
            )
        if transfer_direction not in ("any", "h2d", "d2h"):
            raise ValueError(
                f"transfer_direction must be any/h2d/d2h: {transfer_direction!r}"
            )
        if oom_at_alloc is not None:
            self._faults.oom_after = oom_at_alloc
        if oom_at_bytes is not None:
            self._faults.oom_at_bytes = oom_at_bytes
            self.memory.set_soft_limit(oom_at_bytes)
        if transfer_fault_at is not None:
            self._faults.transfer_fault_after = transfer_fault_at
            self._faults.transfer_direction = transfer_direction

    def clear_faults(self) -> None:
        """Disarm all injected faults (including the byte-capacity cap)."""
        self._faults = FaultPlan()
        self.memory.set_soft_limit(None)

    def _check_alloc_fault(self, nbytes: int) -> None:
        plan = self._faults
        if plan.oom_after is None:
            return
        if plan.oom_after > 0:
            plan.oom_after -= 1
            return
        plan.oom_after = None
        raise DeviceMemoryError(
            requested=align_size(nbytes),
            available=self.memory.free_bytes,
            pool_stats=self.pool.stats() if self.pool is not None else None,
            injected=True,
        )

    # -- memory -----------------------------------------------------------

    def _host_block(self, duration: float, drain_engines: bool) -> float:
        """Charge blocking host/driver time (cudaMalloc, cudaFree).

        Returns the start time.  ``drain_engines`` models the driver's
        implicit device synchronization: the call waits for every engine,
        exactly why a mid-pipeline ``cudaMalloc`` kills stream overlap.
        """
        start = self.clock.now
        if self._barrier > start:
            start = self._barrier
        if drain_engines:
            for engine in self._engines.values():
                if engine.busy_until > start:
                    start = engine.busy_until
        end = start + duration
        self._barrier = end
        self.clock.advance_to(end)
        return start

    def allocate(self, nbytes: int, label: str = "buffer") -> DeviceBuffer:
        """Allocate device memory, charge the allocator's modelled cost,
        and record the event.

        With the legacy ``"null"`` allocator the charge is zero (the
        paper's benchmarks pre-allocate); ``"malloc"`` charges a full
        ``cudaMalloc`` (host latency + engine drain) per call; ``"pool"``
        charges the cheap freelist path on hits and ``cudaMalloc`` only
        on misses.
        """
        self._check_alloc_fault(nbytes)
        if self.pool is not None:
            buffer, hit = self.pool.allocate(nbytes, label)
            duration = POOL_HIT_LATENCY if hit else CUDA_MALLOC_LATENCY
            start = self._host_block(duration, drain_engines=not hit)
            self.profiler.record(
                prof.ALLOC, label, start, duration,
                nbytes=nbytes, pool="hit" if hit else "miss",
            )
            return buffer
        buffer = self.memory.allocate(nbytes, label)
        if self.allocator_kind == "malloc":
            start = self._host_block(CUDA_MALLOC_LATENCY, drain_engines=True)
            self.profiler.record(
                prof.ALLOC, label, start, CUDA_MALLOC_LATENCY, nbytes=nbytes
            )
        else:
            self.profiler.record(
                prof.ALLOC, label, self.clock.now, 0.0, nbytes=nbytes
            )
        return buffer

    def free(self, buffer: DeviceBuffer) -> None:
        """Free device memory (to the pool's freelist when pooled) and
        record the event."""
        if self.pool is not None:
            self.pool.free(buffer)
            start = self._host_block(POOL_HIT_LATENCY, drain_engines=False)
            self.profiler.record(
                prof.FREE, buffer.label, start, POOL_HIT_LATENCY,
                nbytes=buffer.nbytes, pool="hit",
            )
            return
        self.memory.free(buffer)
        if self.allocator_kind == "malloc":
            start = self._host_block(CUDA_FREE_LATENCY, drain_engines=True)
            self.profiler.record(
                prof.FREE, buffer.label, start, CUDA_FREE_LATENCY,
                nbytes=buffer.nbytes,
            )
        else:
            self.profiler.record(
                prof.FREE, buffer.label, self.clock.now, 0.0, nbytes=buffer.nbytes
            )

    def alloc_for_array(self, array: np.ndarray, label: str) -> DeviceBuffer:
        """Allocate a buffer sized for ``array``."""
        return self.allocate(int(array.nbytes), label)

    def trim_pool(self) -> int:
        """Release the pool's cached freelist blocks back to the memory
        manager (no-op without a pool); returns the bytes released."""
        if self.pool is None:
            return 0
        return self.pool.trim()

    # -- bookkeeping -------------------------------------------------------

    def reset(self) -> None:
        """Reset clock, trace, engines, streams, and peak counters
        (buffers stay allocated).

        Bumps the device epoch: existing :class:`Stream` objects restart
        from cursor zero on next use, and events recorded before the
        reset can no longer be waited on.
        """
        self.clock.reset()
        self.profiler.clear()
        self.memory.reset_peak()
        self.epoch += 1
        self._barrier = 0.0
        for engine in self._engines.values():
            engine.reset()
        for stream in self._streams:
            stream._check_epoch()

    def __repr__(self) -> str:
        return (
            f"Device(spec={self.spec.name!r}, t={self.clock.now_ms:.3f}ms, "
            f"mem={self.memory.used_bytes}/{self.spec.memory_bytes})"
        )
