"""Unit tests for the device memory manager."""

import itertools

import numpy as np
import pytest

from repro.errors import DeviceMemoryError, InvalidBufferError
from repro.gpu.memory import (
    ALLOCATION_ALIGNMENT,
    MemoryManager,
    PoolAllocator,
    ScopedAllocation,
    align_size,
    pool_class_size,
)


class TestAlignSize:
    def test_zero_rounds_to_one_unit(self):
        assert align_size(0) == ALLOCATION_ALIGNMENT

    def test_exact_multiple_unchanged(self):
        assert align_size(ALLOCATION_ALIGNMENT * 3) == ALLOCATION_ALIGNMENT * 3

    def test_rounds_up(self):
        assert align_size(1) == ALLOCATION_ALIGNMENT
        assert align_size(ALLOCATION_ALIGNMENT + 1) == 2 * ALLOCATION_ALIGNMENT

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            align_size(-1)


class TestPoolClassSize:
    @pytest.mark.parametrize("alignment", [ALLOCATION_ALIGNMENT, 1, 384])
    def test_matches_doubling_from_the_alignment(self, alignment):
        """Every size up to 2**20 and the powers of two +-1 up to 2**40
        get the smallest ``alignment * 2**k`` at or above their aligned
        size, found here by doubling from the alignment."""
        edges = [2**k + d for k in range(1, 41) for d in (-1, 0, 1)]
        sizes = np.concatenate([np.arange(2**20 + 1), edges]).astype(np.int64)
        aligned = np.maximum(-(-sizes // alignment), 1) * alignment
        expected = np.full_like(sizes, alignment)
        while (short := expected < aligned).any():
            expected[short] <<= 1
        got = np.fromiter(
            map(pool_class_size, sizes.tolist(), itertools.repeat(alignment)),
            dtype=np.int64,
            count=len(sizes),
        )
        assert np.array_equal(got, expected)


class TestMemoryManager:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MemoryManager(0)

    def test_allocation_accounts_aligned_bytes(self):
        manager = MemoryManager(10_000)
        buffer = manager.allocate(100, "x")
        assert buffer.nbytes == 100
        assert buffer.aligned_nbytes == ALLOCATION_ALIGNMENT
        assert manager.used_bytes == ALLOCATION_ALIGNMENT

    def test_oom_raises_with_details(self):
        manager = MemoryManager(1024)
        manager.allocate(512)
        with pytest.raises(DeviceMemoryError) as excinfo:
            manager.allocate(1024)
        assert excinfo.value.requested == 1024
        assert excinfo.value.available == 512

    def test_free_restores_capacity(self):
        manager = MemoryManager(1024)
        buffer = manager.allocate(1024)
        manager.free(buffer)
        assert manager.used_bytes == 0
        assert manager.free_bytes == 1024

    def test_double_free_rejected(self):
        manager = MemoryManager(1024)
        buffer = manager.allocate(10)
        manager.free(buffer)
        with pytest.raises(InvalidBufferError):
            manager.free(buffer)

    def test_foreign_buffer_rejected(self):
        a = MemoryManager(1024)
        b = MemoryManager(1024)
        buffer = a.allocate(10)
        with pytest.raises(InvalidBufferError):
            b.free(buffer)

    def test_peak_tracks_high_water_mark(self):
        manager = MemoryManager(10_000)
        first = manager.allocate(2_000)
        second = manager.allocate(2_000)
        manager.free(first)
        manager.free(second)
        assert manager.peak_bytes >= 4_000
        assert manager.used_bytes == 0

    def test_reset_peak(self):
        manager = MemoryManager(10_000)
        buffer = manager.allocate(4_000)
        manager.free(buffer)
        manager.reset_peak()
        assert manager.peak_bytes == 0

    def test_leak_detection(self):
        manager = MemoryManager(10_000)
        kept = manager.allocate(100, "leaky")
        freed = manager.allocate(100)
        manager.free(freed)
        leaks = manager.leaked_buffers()
        assert leaks == (kept,)

    def test_check_buffer_accepts_live(self):
        manager = MemoryManager(1024)
        buffer = manager.allocate(10)
        manager.check_buffer(buffer)  # no raise

    def test_check_buffer_rejects_freed(self):
        manager = MemoryManager(1024)
        buffer = manager.allocate(10)
        manager.free(buffer)
        with pytest.raises(InvalidBufferError):
            manager.check_buffer(buffer)

    def test_stats_count_allocs_and_frees(self):
        manager = MemoryManager(10_000)
        buffers = [manager.allocate(10) for _ in range(5)]
        for buffer in buffers[:3]:
            manager.free(buffer)
        assert manager.stats == (5, 3)
        assert manager.live_buffer_count == 2


class TestScopedAllocation:
    def test_frees_on_exit(self):
        manager = MemoryManager(10_000)
        with ScopedAllocation(manager, 100, "scratch") as buffer:
            assert not buffer.freed
            assert manager.used_bytes > 0
        assert buffer.freed
        assert manager.used_bytes == 0

    def test_frees_on_exception(self):
        manager = MemoryManager(10_000)
        with pytest.raises(RuntimeError):
            with ScopedAllocation(manager, 100, "scratch"):
                raise RuntimeError("boom")
        assert manager.used_bytes == 0


class TestAlignmentAccounting:
    """Regressions for free_bytes/eviction accounting under alignment.

    Every buffer occupies ``align_size(nbytes)`` device bytes — a 0-byte
    or unaligned request still consumes whole alignment units, and every
    accounting surface (``free_bytes``, soft limits, pressure callbacks,
    pool freelists) must agree on the *aligned* figure.
    """

    def test_zero_byte_allocation_consumes_one_unit(self):
        manager = MemoryManager(10_000)
        buffer = manager.allocate(0, "empty")
        assert buffer.nbytes == 0
        assert buffer.aligned_nbytes == ALLOCATION_ALIGNMENT
        assert manager.used_bytes == ALLOCATION_ALIGNMENT
        assert manager.free_bytes == 10_000 - ALLOCATION_ALIGNMENT
        manager.free(buffer)
        assert manager.used_bytes == 0
        assert manager.free_bytes == 10_000

    def test_zero_byte_allocation_through_the_pool(self):
        manager = MemoryManager(10_000)
        pool = PoolAllocator(manager)
        buffer, hit = pool.allocate(0, "empty")
        assert not hit
        assert buffer.aligned_nbytes == pool_class_size(0) == ALLOCATION_ALIGNMENT
        assert pool.in_use_bytes == ALLOCATION_ALIGNMENT
        pool.free(buffer)
        assert pool.cached_bytes == ALLOCATION_ALIGNMENT
        again, hit = pool.allocate(0, "empty2")
        assert hit  # 0-byte requests share the smallest size class
        pool.free(again)
        pool.close()
        assert manager.used_bytes == 0

    def test_unaligned_sizes_round_consistently_everywhere(self):
        manager = MemoryManager(1 << 20)
        pool = PoolAllocator(manager)
        sizes = [1, 255, 257, 1000, 4097]
        buffers = [pool.allocate(n)[0] for n in sizes]
        expected = sum(pool_class_size(n) for n in sizes)
        assert pool.in_use_bytes == expected
        assert manager.used_bytes == expected
        assert manager.free_bytes == (1 << 20) - expected
        for buffer in buffers:
            pool.free(buffer)
        assert pool.cached_bytes == expected
        assert manager.free_bytes == (1 << 20) - expected  # parked, not freed
        assert pool.trim() == expected
        assert manager.free_bytes == 1 << 20
        pool.close()

    def test_free_bytes_respects_soft_limit(self):
        manager = MemoryManager(4096)
        manager.set_soft_limit(1024)
        assert manager.effective_capacity == 1024
        assert manager.free_bytes == 1024
        buffer = manager.allocate(100)  # occupies 256 aligned bytes
        assert manager.free_bytes == 1024 - ALLOCATION_ALIGNMENT
        with pytest.raises(DeviceMemoryError) as excinfo:
            manager.allocate(1024)
        assert excinfo.value.available == 1024 - ALLOCATION_ALIGNMENT
        manager.set_soft_limit(None)
        assert manager.free_bytes == 4096 - ALLOCATION_ALIGNMENT
        manager.free(buffer)

    def test_pressure_callback_sees_aligned_request(self):
        """The callback receives the aligned deficit and its reported
        freed bytes must reconcile with free_bytes afterwards."""
        manager = MemoryManager(1024)
        held = [manager.allocate(200) for _ in range(4)]  # full: 4 x 256
        seen = []

        def evict(needed: int) -> int:
            seen.append(needed)
            freed = 0
            while held and freed < needed:
                buffer = held.pop()
                freed += buffer.aligned_nbytes
                manager.free(buffer)
            return freed

        manager.register_pressure_callback(evict)
        buffer = manager.allocate(300)  # needs 512 aligned -> evict two
        assert seen and seen[0] >= align_size(300)
        assert manager.used_bytes == (len(held) + 1) * ALLOCATION_ALIGNMENT + (
            align_size(300) - ALLOCATION_ALIGNMENT
        )
        assert manager.free_bytes == 1024 - manager.used_bytes
        manager.unregister_pressure_callback(evict)
        manager.free(buffer)
        for leftover in held:
            manager.free(leftover)
        assert manager.free_bytes == 1024

    def test_eviction_accounting_matches_pool_view(self):
        """Session-style eviction into pool freelists keeps three views
        consistent: manager used, pool in-use + cached, free_bytes."""
        manager = MemoryManager(8192)
        pool = PoolAllocator(manager)
        resident = {}

        def evict(needed: int) -> int:
            freed = 0
            while resident and freed < needed:
                _key, buffer = resident.popitem()
                freed += buffer.aligned_nbytes
                pool.free(buffer)
            return freed

        manager.register_pressure_callback(evict)
        for i in range(7):  # 7 KiB of 8 KiB in resident columns
            resident[i] = pool.allocate(1024, f"col{i}")[0]
        big, hit = pool.allocate(2048, "scratch")  # forces eviction
        assert not hit
        assert manager.used_bytes == pool.in_use_bytes + pool.cached_bytes
        assert manager.free_bytes == 8192 - manager.used_bytes
        pool.free(big)
        for buffer in resident.values():
            pool.free(buffer)
        manager.unregister_pressure_callback(evict)
        pool.close()
        assert manager.used_bytes == 0
        assert manager.free_bytes == 8192
