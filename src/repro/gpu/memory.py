"""Device memory manager for the simulated GPU.

Real GPU libraries differ substantially in how many intermediate buffers
their operator compositions allocate (the paper: chained library calls lead
to "unwanted intermediate data movements").  Tracking allocations lets the
benchmark harness report peak device memory per operator realization, and a
strict free/ownership discipline catches leaks in the library emulations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import DeviceMemoryError, InvalidBufferError

#: Allocation granularity in bytes.  CUDA's allocator rounds small requests
#: up; 256 B matches the documented texture/alignment granularity and keeps
#: accounting realistic for many tiny buffers.
ALLOCATION_ALIGNMENT = 256

#: Modelled host-side cost of a real ``cudaMalloc``: the driver walks its
#: heap, may device-synchronize, and maps pages.  Widely measured at tens
#: of microseconds (and worse under fragmentation); we charge the
#: optimistic end so the pool's win is conservative.
CUDA_MALLOC_LATENCY = 10.0e-6

#: Modelled host-side cost of ``cudaFree`` (also device-synchronizing).
CUDA_FREE_LATENCY = 2.0e-6

#: Cost of satisfying an allocation from a pool freelist: pure host
#: bookkeeping (RMM / PyTorch caching-allocator fast path), no driver call
#: and no implicit synchronization.
POOL_HIT_LATENCY = 0.3e-6

#: A pressure callback receives the number of bytes the allocator is
#: short and returns an (advisory) estimate of the bytes it released.
PressureCallback = Callable[[int], int]


def align_size(nbytes: int, alignment: int = ALLOCATION_ALIGNMENT) -> int:
    """Round ``nbytes`` up to the allocator granularity (minimum one unit)."""
    if nbytes < 0:
        raise ValueError(f"allocation size cannot be negative: {nbytes}")
    if nbytes == 0:
        return alignment
    return ((nbytes + alignment - 1) // alignment) * alignment


@dataclass
class DeviceBuffer:
    """Handle to a live device allocation."""

    buffer_id: int
    nbytes: int
    aligned_nbytes: int
    label: str
    freed: bool = field(default=False)

    def __repr__(self) -> str:
        state = "freed" if self.freed else "live"
        return (
            f"DeviceBuffer(id={self.buffer_id}, nbytes={self.nbytes}, "
            f"label={self.label!r}, {state})"
        )


class MemoryManager:
    """Tracks device allocations against a fixed capacity.

    The manager models capacity and accounting, not placement: the simulator
    has no address space, only byte budgets.  ``peak_bytes`` gives the
    high-water mark used by the benchmark reports.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"device capacity must be positive: {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self._used = 0
        self._peak = 0
        self._live: Dict[int, DeviceBuffer] = {}
        self._ids = itertools.count(1)
        self._alloc_count = 0
        self._free_count = 0
        #: Fault-injection cap on usable capacity (None = full capacity).
        self._soft_limit: Optional[int] = None
        self._pressure_callbacks: List[PressureCallback] = []
        self._in_pressure = False

    @property
    def used_bytes(self) -> int:
        """Currently allocated bytes (after alignment)."""
        return self._used

    @property
    def effective_capacity(self) -> int:
        """Usable capacity: the device size, or the injected soft limit."""
        if self._soft_limit is None:
            return self.capacity_bytes
        return min(self.capacity_bytes, self._soft_limit)

    @property
    def free_bytes(self) -> int:
        """Bytes available for new allocations."""
        return self.effective_capacity - self._used

    def set_soft_limit(self, limit: Optional[int]) -> None:
        """Cap usable capacity below the device size (fault injection:
        ``Device.inject_faults(oom_at_bytes=...)``).  ``None`` removes the
        cap.  Already-live allocations above the cap stay live; only new
        allocations see the reduced capacity."""
        if limit is not None and limit <= 0:
            raise ValueError(f"soft limit must be positive: {limit}")
        self._soft_limit = limit

    # -- allocation pressure ------------------------------------------------

    def register_pressure_callback(self, callback: PressureCallback) -> None:
        """Register a reclaimer consulted before an allocation fails.

        Callbacks run in registration order and receive the byte deficit;
        they free memory (pool freelists, resident-column caches) and
        return an estimate of what they released.  Rounds repeat while any
        callback reports progress — so an eviction that lands blocks in a
        pool freelist is trimmed back to the device on the next round.
        """
        self._pressure_callbacks.append(callback)

    def unregister_pressure_callback(self, callback: PressureCallback) -> None:
        """Remove a previously registered pressure callback (idempotent)."""
        try:
            self._pressure_callbacks.remove(callback)
        except ValueError:
            pass

    def _relieve_pressure(self, aligned: int) -> None:
        """Run pressure callbacks until the deficit clears or nothing moves."""
        if self._in_pressure or not self._pressure_callbacks:
            return
        self._in_pressure = True
        try:
            progress = True
            while progress and aligned > self.free_bytes:
                progress = False
                for callback in list(self._pressure_callbacks):
                    deficit = aligned - self.free_bytes
                    if deficit <= 0:
                        return
                    if callback(deficit) > 0:
                        progress = True
        finally:
            self._in_pressure = False

    @property
    def peak_bytes(self) -> int:
        """High-water mark of allocated bytes."""
        return self._peak

    @property
    def live_buffer_count(self) -> int:
        """Number of currently live buffers."""
        return len(self._live)

    @property
    def stats(self) -> Tuple[int, int]:
        """(total allocations, total frees) over the manager's lifetime."""
        return (self._alloc_count, self._free_count)

    def allocate(self, nbytes: int, label: str = "buffer") -> DeviceBuffer:
        """Allocate ``nbytes`` (rounded up to alignment) or raise OOM.

        When the request does not fit, registered pressure callbacks get a
        chance to reclaim memory (pool trims, cache evictions) before the
        :class:`DeviceMemoryError` is raised.
        """
        aligned = align_size(nbytes)
        if aligned > self.free_bytes:
            self._relieve_pressure(aligned)
        if aligned > self.free_bytes:
            raise DeviceMemoryError(requested=aligned, available=self.free_bytes)
        buffer = DeviceBuffer(
            buffer_id=next(self._ids),
            nbytes=nbytes,
            aligned_nbytes=aligned,
            label=label,
        )
        self._live[buffer.buffer_id] = buffer
        self._used += aligned
        self._peak = max(self._peak, self._used)
        self._alloc_count += 1
        return buffer

    def free(self, buffer: DeviceBuffer) -> None:
        """Release a live buffer; freeing twice or freeing a foreign buffer
        raises :class:`InvalidBufferError`."""
        if buffer.freed:
            raise InvalidBufferError(f"double free of {buffer!r}")
        stored = self._live.pop(buffer.buffer_id, None)
        if stored is not buffer:
            raise InvalidBufferError(f"buffer {buffer!r} not owned by this device")
        buffer.freed = True
        self._used -= buffer.aligned_nbytes
        self._free_count += 1

    def check_buffer(self, buffer: DeviceBuffer) -> None:
        """Validate that ``buffer`` is live on this device."""
        if buffer.freed:
            raise InvalidBufferError(f"use after free of {buffer!r}")
        if self._live.get(buffer.buffer_id) is not buffer:
            raise InvalidBufferError(f"buffer {buffer!r} not owned by this device")

    def leaked_buffers(self) -> Tuple[DeviceBuffer, ...]:
        """Buffers that are still live (for end-of-run leak checks)."""
        return tuple(self._live.values())

    def reset_peak(self) -> None:
        """Reset the high-water mark to the current usage."""
        self._peak = self._used

    def __repr__(self) -> str:
        return (
            f"MemoryManager(used={self._used}/{self.capacity_bytes} bytes, "
            f"live={len(self._live)})"
        )


def pool_class_size(nbytes: int, alignment: int = ALLOCATION_ALIGNMENT) -> int:
    """Size class (bytes) a request is served from: the next power of two
    at or above the aligned size, with the alignment unit as the floor.

    Power-of-two binning is the classic caching-allocator compromise
    (PyTorch's CUDA allocator, CNMeM): at most 2x internal fragmentation
    in exchange for high freelist reuse across slightly-varying sizes.
    """
    aligned = align_size(nbytes, alignment)
    # ``aligned`` is a positive multiple of ``alignment``, so this is the
    # smallest ``alignment * 2**k`` at or above it.
    return alignment << (aligned // alignment - 1).bit_length()


@dataclass(frozen=True)
class PoolStats:
    """Point-in-time snapshot of a :class:`PoolAllocator`'s counters."""

    hits: int
    misses: int
    frees: int
    trims: int
    trimmed_bytes: int
    cached_bytes: int
    cached_blocks: int
    in_use_bytes: int
    in_use_blocks: int
    high_water_bytes: int

    @property
    def hit_rate(self) -> float:
        """Fraction of allocations served from a freelist."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def fragmentation(self) -> float:
        """Fraction of pool-held device bytes sitting idle in freelists."""
        total = self.cached_bytes + self.in_use_bytes
        return self.cached_bytes / total if total else 0.0

    def __str__(self) -> str:
        return (
            f"pool: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate), "
            f"{self.cached_bytes} B cached in {self.cached_blocks} blocks, "
            f"{self.in_use_bytes} B in use, "
            f"fragmentation {self.fragmentation:.0%}, "
            f"high water {self.high_water_bytes} B"
        )


class PoolAllocator:
    """RMM-style pooling sub-allocator over a :class:`MemoryManager`.

    Freed blocks are parked on per-size-class freelists *without*
    returning their bytes to the manager; a later allocation of the same
    class reuses the block (a *hit*: no ``cudaMalloc``, no implicit
    synchronization).  Misses fall through to the manager.  Under
    allocation pressure the pool trims freelists back to the manager —
    it registers itself as the manager's first pressure callback — so
    cached memory is never the reason an allocation fails.
    """

    def __init__(self, manager: MemoryManager) -> None:
        self.manager = manager
        self._freelists: Dict[int, List[DeviceBuffer]] = {}
        #: buffer_id -> size class, for every block handed out by the pool.
        self._handed_out: Dict[int, int] = {}
        #: buffer ids currently parked on a freelist (double-free guard).
        self._cached_ids: Dict[int, int] = {}
        self._cached_bytes = 0
        self.hits = 0
        self.misses = 0
        self.frees = 0
        self.trims = 0
        self.trimmed_bytes = 0
        manager.register_pressure_callback(self._pressure_trim)

    # -- introspection ------------------------------------------------------

    @property
    def cached_bytes(self) -> int:
        """Device bytes parked on freelists (reserved but reusable)."""
        return self._cached_bytes

    @property
    def cached_blocks(self) -> int:
        """Number of blocks parked on freelists."""
        return len(self._cached_ids)

    @property
    def in_use_bytes(self) -> int:
        """Device bytes in blocks currently handed out to callers."""
        return sum(self._handed_out.values())

    @property
    def in_use_blocks(self) -> int:
        """Number of blocks currently handed out to callers."""
        return len(self._handed_out)

    def stats(self) -> PoolStats:
        """A frozen snapshot of the pool's counters."""
        return PoolStats(
            hits=self.hits,
            misses=self.misses,
            frees=self.frees,
            trims=self.trims,
            trimmed_bytes=self.trimmed_bytes,
            cached_bytes=self._cached_bytes,
            cached_blocks=len(self._cached_ids),
            in_use_bytes=self.in_use_bytes,
            in_use_blocks=len(self._handed_out),
            high_water_bytes=self.manager.peak_bytes,
        )

    # -- allocate / free ----------------------------------------------------

    def allocate(self, nbytes: int, label: str = "buffer") -> Tuple[DeviceBuffer, bool]:
        """Serve ``nbytes`` from a freelist or the manager.

        Returns ``(buffer, hit)`` where ``hit`` tells the device which
        cost to charge.  The buffer's ``aligned_nbytes`` is the size
        class, so manager accounting stays exact under reuse.
        """
        cls = pool_class_size(nbytes)
        freelist = self._freelists.get(cls)
        if freelist:
            buffer = freelist.pop()
            del self._cached_ids[buffer.buffer_id]
            self._cached_bytes -= cls
            buffer.nbytes = nbytes
            buffer.label = label
            self._handed_out[buffer.buffer_id] = cls
            self.hits += 1
            return buffer, True
        try:
            buffer = self.manager.allocate(cls, label)
        except DeviceMemoryError as exc:
            exc.pool_stats = self.stats()
            raise
        buffer.nbytes = nbytes
        self._handed_out[buffer.buffer_id] = cls
        self.misses += 1
        return buffer, False

    def free(self, buffer: DeviceBuffer) -> None:
        """Return a pool-served block to its freelist (not to the manager)."""
        if buffer.buffer_id in self._cached_ids:
            raise InvalidBufferError(f"double free into pool of {buffer!r}")
        cls = self._handed_out.pop(buffer.buffer_id, None)
        if cls is None:
            raise InvalidBufferError(f"buffer {buffer!r} not handed out by this pool")
        self.manager.check_buffer(buffer)
        self._freelists.setdefault(cls, []).append(buffer)
        self._cached_ids[buffer.buffer_id] = cls
        self._cached_bytes += cls
        self.frees += 1

    # -- trimming -----------------------------------------------------------

    def trim(self, nbytes: Optional[int] = None) -> int:
        """Release cached blocks back to the manager (``af::deviceGC``).

        Frees largest classes first until at least ``nbytes`` are back
        with the manager (all cached blocks when ``nbytes`` is None);
        returns the bytes released.
        """
        released = 0
        self.trims += 1
        for cls in sorted(self._freelists, reverse=True):
            freelist = self._freelists[cls]
            while freelist and (nbytes is None or released < nbytes):
                block = freelist.pop()
                del self._cached_ids[block.buffer_id]
                self._cached_bytes -= cls
                self.manager.free(block)
                released += cls
            if nbytes is not None and released >= nbytes:
                break
        self.trimmed_bytes += released
        return released

    def _pressure_trim(self, needed: int) -> int:
        return self.trim(needed)

    def close(self) -> None:
        """Trim everything and detach from the manager's pressure list."""
        self.trim()
        self.manager.unregister_pressure_callback(self._pressure_trim)

    def __repr__(self) -> str:
        return (
            f"PoolAllocator(cached={self._cached_bytes}B/"
            f"{len(self._cached_ids)} blocks, "
            f"in_use={self.in_use_bytes}B/{len(self._handed_out)} blocks)"
        )


class ScopedAllocation:
    """Context manager that frees a buffer on exit.

    Library emulations use this for the temporary scratch buffers their
    multi-kernel algorithms need (e.g. radix-sort histograms)::

        with ScopedAllocation(device.memory, nbytes, "radix_histogram"):
            ...
    """

    def __init__(self, manager: MemoryManager, nbytes: int, label: str) -> None:
        self._manager = manager
        self._nbytes = nbytes
        self._label = label
        self.buffer: Optional[DeviceBuffer] = None

    def __enter__(self) -> DeviceBuffer:
        self.buffer = self._manager.allocate(self._nbytes, self._label)
        return self.buffer

    def __exit__(self, *exc_info: object) -> None:
        if self.buffer is not None and not self.buffer.freed:
            self._manager.free(self.buffer)
