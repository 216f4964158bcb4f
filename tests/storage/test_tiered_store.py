"""Unit and fault-injection tests for the tiered column store.

Covers residency bookkeeping (ingest, promote, LRU spill, host-budget
demotion to NVMe), the batched fetch path, slice clamping, pressure
relief, and — the PR's acceptance bar — consistency under injected
transfer faults: a fault mid-promote or mid-spill must leave every
chunk resident and re-fetchable on its previous tier, with no leaked or
double-freed device buffer.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import HandwrittenBackend
from repro.errors import TransferError
from repro.gpu import GTX_1080TI, Device
from repro.gpu.memory import align_size
from repro.storage import (
    TIER_DEVICE,
    TIER_HOST,
    TIER_NVME,
    StoreSlice,
    TieredColumnStore,
)


def _device(memory_bytes: int = 1 << 30) -> Device:
    return Device(replace(GTX_1080TI, memory_bytes=memory_bytes))


def _store(device, **kwargs) -> TieredColumnStore:
    kwargs.setdefault("chunk_rows", 1024)
    return TieredColumnStore(device, **kwargs)


def _ingest_demo(store, rows: int = 4096, seed: int = 11):
    rng = np.random.default_rng(seed)
    columns = {
        "flag": rng.integers(0, 3, rows).astype(np.int64),
        "price": rng.uniform(1.0, 100.0, rows),
        "qty": rng.integers(1, 50, rows).astype(np.int64),
    }
    for name, values in columns.items():
        store.ingest_column("demo", name, values)
    return columns


class TestResidency:
    def test_ingest_lands_on_host_tier(self):
        store = _store(_device())
        _ingest_demo(store)
        tiers = store.tier_bytes()
        assert tiers[TIER_HOST] > 0
        assert tiers[TIER_DEVICE] == 0
        assert tiers[TIER_NVME] == 0
        assert store.stats.chunks == 12  # 3 columns x 4 chunks

    def test_double_ingest_is_rejected(self):
        store = _store(_device())
        store.ingest_column("t", "c", np.arange(10))
        with pytest.raises(ValueError, match="already ingested"):
            store.ingest_column("t", "c", np.arange(10))

    def test_fetch_round_trips_and_promotes(self):
        device = _device()
        store = _store(device)
        columns = _ingest_demo(store)
        backend = HandwrittenBackend(device)
        handle = store.fetch("demo", "price", backend)
        assert np.array_equal(backend.download(handle), columns["price"])
        assert store.tier_bytes()[TIER_DEVICE] > 0
        assert store.stats.promotes == 4
        assert store.stats.effective_bandwidth_gain > 1.0

    def test_fetch_range_returns_exact_slice(self):
        device = _device()
        store = _store(device)
        columns = _ingest_demo(store)
        backend = HandwrittenBackend(device)
        handle = store.fetch("demo", "qty", backend, 1000, 3000)
        assert np.array_equal(
            backend.download(handle), columns["qty"][1000:3000]
        )
        # Only the three covering chunks promoted, not all four.
        assert store.stats.promotes == 3

    def test_fetch_many_matches_per_column_fetches(self):
        device = _device()
        store = _store(device)
        columns = _ingest_demo(store)
        backend = HandwrittenBackend(device)
        handles = store.fetch_many(
            "demo", ["flag", "price", "qty"], backend, 100, 2600
        )
        assert set(handles) == {"flag", "price", "qty"}
        for name, values in columns.items():
            assert np.array_equal(
                backend.download(handles[name]), values[100:2600]
            )

    def test_fetch_many_repeated_name_fetches_once(self):
        """A repeated column name pins, promotes and decodes its chunks
        once, and ``close`` then returns the device to its baseline."""

        def fetch(names):
            device = _device()
            store = _store(device)
            columns = _ingest_demo(store)
            backend = HandwrittenBackend(device)
            used = device.memory.used_bytes
            live = device.memory.live_buffer_count
            cursor = device.profiler.mark()
            handles = store.fetch_many("demo", names, backend)
            h2d = device.profiler.summary(cursor).bytes_h2d
            assert store._device_bytes == store.tier_bytes()[TIER_DEVICE]
            assert np.array_equal(
                backend.download(handles["qty"]), columns["qty"]
            )
            for handle in handles.values():
                handle.free()
            store.close()
            assert device.memory.used_bytes == used
            assert device.memory.live_buffer_count == live
            assert store._device_bytes == store.tier_bytes()[TIER_DEVICE]
            stats = store.stats
            return stats.promotes, stats.fetches, stats.decoded_bytes, h2d

        assert fetch(["qty", "qty"]) == fetch(["qty"])

    def test_fetch_many_batches_transfers_and_launches(self):
        """The batched fetch pays one H2D transfer and one decode launch
        for the whole column set — that is the economics that keeps
        small store chunks viable (see DESIGN.md)."""
        device = _device()
        store = _store(device, price_encode=False)
        _ingest_demo(store)
        backend = HandwrittenBackend(device)
        cursor = device.profiler.mark()
        store.fetch_many("demo", ["flag", "price", "qty"], backend)
        events = device.profiler.events[cursor:]
        promotes = [e for e in events if "storage:promote" in e.name]
        decodes = [e for e in events if "decode" in e.name]
        assert len(promotes) == 1
        assert len(decodes) == 1

    def test_empty_column_fetch(self):
        device = _device()
        store = _store(device)
        store.ingest_column("t", "empty", np.empty(0, dtype=np.float64))
        backend = HandwrittenBackend(device)
        out = backend.download(store.fetch("t", "empty", backend))
        assert len(out) == 0
        assert out.dtype == np.float64

    def test_manages_and_managed_tables(self):
        store = _store(_device())
        _ingest_demo(store)
        assert store.manages("demo", "price")
        assert not store.manages("demo", "missing")
        assert not store.manages("other", "price")
        assert store.managed_tables() == ["demo"]

    @pytest.mark.parametrize(
        "backend_name",
        ["thrust", "boost.compute", "arrayfire", "handwritten",
         "cpu-reference", "compiled", "cudf"],
    )
    def test_fetch_materializes_a_usable_handle_per_backend(
        self, backend_name
    ):
        """Every framework backend must get a handle its own operators
        accept — the ArrayFire regression: raw runtime storage instead
        of an ``af.Array`` made comparisons return ``NotImplemented``."""
        from repro import default_framework
        from repro.core import col_lt

        device = _device()
        store = _store(device)
        columns = _ingest_demo(store)
        backend = default_framework().create(backend_name, device)
        handle = store.fetch("demo", "qty", backend)
        ids = backend.selection({"qty": handle}, col_lt("qty", 10))
        got = np.sort(backend.download(ids))
        want = np.flatnonzero(columns["qty"] < 10)
        assert np.array_equal(got, want)
        store.close()


def _record_spills(store, monkeypatch):
    """Record every chunk the store spills, in spill order."""
    spilled = []
    spill = store._spill_chunk

    def recording_spill(chunk):
        spilled.append(chunk)
        return spill(chunk)

    monkeypatch.setattr(store, "_spill_chunk", recording_spill)
    return spilled


def _rows(chunks):
    return [(chunk.column, chunk.lo) for chunk in chunks]


class TestEvictionPolicies:
    def test_device_budget_spills_lru_first(self, monkeypatch):
        device = _device()
        store = _store(device, device_budget=12_000)
        _ingest_demo(store)
        backend = HandwrittenBackend(device)
        store.fetch("demo", "price", backend)  # cold
        store.fetch("demo", "price", backend, 0, 1024)  # re-warm chunk 0
        spilled = _record_spills(store, monkeypatch)
        store.fetch("demo", "qty", backend)  # hot: spills price chunks
        assert store.stats.spills > 0
        tiers = store.tier_bytes()
        assert tiers[TIER_DEVICE] <= 12_000
        # qty (most recently used) stayed resident.
        qty_chunks = store._columns[("demo", "qty")]
        assert any(c.tier == TIER_DEVICE for c in qty_chunks)
        # The victims were the coldest unpinned chunks in tick order,
        # and spilling stopped as soon as qty fit: the re-warmed price
        # chunk stayed, and without the last victim qty would not fit.
        assert _rows(spilled) == [
            ("price", 1024), ("price", 2048), ("price", 3072)
        ]
        assert store._columns[("demo", "price")][0].tier == TIER_DEVICE
        last = spilled[-1].compressed_nbytes
        assert tiers[TIER_DEVICE] + last > 12_000

    def test_host_budget_demotes_to_nvme(self):
        device = _device()
        store = _store(device, host_budget=8_000)
        _ingest_demo(store)
        assert store.stats.nvme_writes > 0
        assert store.tier_bytes()[TIER_HOST] <= 8_000
        assert store.tier_bytes()[TIER_NVME] > 0

    def test_nvme_chunks_are_refetchable(self):
        device = _device()
        store = _store(device, host_budget=0)
        columns = _ingest_demo(store)
        assert store.tier_bytes()[TIER_NVME] == store.stats.compressed_bytes
        backend = HandwrittenBackend(device)
        out = backend.download(store.fetch("demo", "price", backend))
        assert np.array_equal(out, columns["price"])
        assert store.stats.nvme_reads > 0

    def test_pressure_callback_spills_cold_chunks(self, monkeypatch):
        device = _device(memory_bytes=200_000)
        store = _store(device)
        _ingest_demo(store, rows=8192)
        backend = HandwrittenBackend(device)
        store.fetch("demo", "price", backend)
        before = store.tier_bytes()[TIER_DEVICE]
        assert before > 0
        spilled = _record_spills(store, monkeypatch)
        needed = align_size(160_000) - device.memory.free_bytes
        # An allocation bigger than free memory triggers pressure relief.
        big = device.allocate(160_000, "intermediate")
        assert store.tier_bytes()[TIER_DEVICE] < before
        assert store.stats.spills > 0
        # Relief spilled the coldest chunks first and stopped once the
        # bytes it was asked for were freed.
        assert _rows(spilled) == [
            ("price", 0), ("price", 1024), ("price", 2048)
        ]
        freed = [chunk.compressed_nbytes for chunk in spilled]
        assert sum(freed[:-1]) < needed <= sum(freed)
        device.free(big)

    def test_close_releases_device_residency_and_detaches(self):
        device = _device()
        store = _store(device)
        _ingest_demo(store)
        backend = HandwrittenBackend(device)
        store.fetch("demo", "price", backend)
        used_before = device.memory.used_bytes
        store.close()
        store.close()  # idempotent
        assert store.tier_bytes()[TIER_DEVICE] == 0
        assert device.memory.used_bytes < used_before
        cb = store._pressure_spill
        assert cb not in device.memory._pressure_callbacks


class TestStoreSlice:
    def test_slice_clamps_only_its_table(self):
        device = _device()
        store = _store(device)
        columns = _ingest_demo(store)
        store.ingest_column("other", "x", np.arange(100, dtype=np.int64))
        view = StoreSlice(store, "demo", 1024, 2048)
        backend = HandwrittenBackend(device)
        out = backend.download(view.fetch("demo", "price", backend))
        assert np.array_equal(out, columns["price"][1024:2048])
        full = backend.download(view.fetch("other", "x", backend))
        assert np.array_equal(full, np.arange(100, dtype=np.int64))

    def test_slice_fetch_many_clamps(self):
        device = _device()
        store = _store(device)
        columns = _ingest_demo(store)
        view = StoreSlice(store, "demo", 0, 1500)
        backend = HandwrittenBackend(device)
        handles = view.fetch_many("demo", ["flag", "qty"], backend)
        for name in ("flag", "qty"):
            assert np.array_equal(
                backend.download(handles[name]), columns[name][:1500]
            )


class TestFaultInjection:
    def test_h2d_fault_mid_promote_leaves_chunks_on_host(self):
        device = _device()
        store = _store(device)
        columns = _ingest_demo(store)
        backend = HandwrittenBackend(device)
        used_before = device.memory.used_bytes
        device.inject_faults(transfer_fault_at=0, transfer_direction="h2d")
        with pytest.raises(TransferError):
            store.fetch("demo", "price", backend)
        # All-or-nothing: nothing promoted, fresh buffers freed, pins off.
        assert store.tier_bytes()[TIER_DEVICE] == 0
        assert device.memory.used_bytes == used_before
        assert all(
            chunk.pins == 0
            for chunks in store._columns.values()
            for chunk in chunks
        )
        # The fault cleared; the same fetch succeeds afterwards.
        out = backend.download(store.fetch("demo", "price", backend))
        assert np.array_equal(out, columns["price"])

    def test_d2h_fault_mid_spill_keeps_chunk_on_device(self):
        device = _device()
        store = _store(device, device_budget=6_000)
        columns = _ingest_demo(store)
        backend = HandwrittenBackend(device)
        store.fetch("demo", "price", backend, 0, 1024)
        resident = store.tier_bytes()[TIER_DEVICE]
        assert resident > 0
        device.inject_faults(transfer_fault_at=0, transfer_direction="d2h")
        # The next fetch needs the budget slot, so it tries to spill and
        # the spill's D2H faults.
        with pytest.raises(TransferError):
            store.fetch("demo", "qty", backend, 0, 1024)
        # The victim stayed fully resident: no partial state.
        assert store.tier_bytes()[TIER_DEVICE] == resident
        chunk = store._columns[("demo", "price")][0]
        assert chunk.tier == TIER_DEVICE
        assert chunk.buffer is not None
        # Both columns remain fetchable once the fault clears (no
        # double-free of the surviving buffer).
        out = backend.download(store.fetch("demo", "qty", backend, 0, 1024))
        assert np.array_equal(out, columns["qty"][:1024])
        out = backend.download(store.fetch("demo", "price", backend, 0, 1024))
        assert np.array_equal(out, columns["price"][:1024])

    def test_pressure_relief_aborts_cleanly_on_spill_fault(self):
        device = _device(memory_bytes=200_000)
        store = _store(device)
        _ingest_demo(store, rows=8192)
        backend = HandwrittenBackend(device)
        store.fetch("demo", "price", backend)
        resident = store.tier_bytes()[TIER_DEVICE]
        device.inject_faults(transfer_fault_at=0, transfer_direction="d2h")
        from repro.errors import DeviceMemoryError

        with pytest.raises(DeviceMemoryError):
            device.allocate(180_000, "too-big")
        # Relief aborted without corrupting the store; residency intact.
        assert store.tier_bytes()[TIER_DEVICE] == resident
        device.clear_faults()
        out = backend.download(store.fetch("demo", "price", backend))
        assert len(out) == 8192
