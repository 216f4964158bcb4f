"""Device-memory hygiene: intermediates are released, sessions pin only
what they cache, and repeated query workloads do not leak."""

import gc
import inspect
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core import col_lt
from repro.errors import InvalidBufferError
from repro.gpu import GTX_1080TI, Device
from repro.gpu.profiler import FREE
from repro.libs.thrust import ThrustRuntime
from repro.query import GpuSession, QueryExecutor, scan
from repro.relational import Column, Table
from repro.tpch import ALL_QUERIES, TpchGenerator, q1, q6


@pytest.fixture
def catalog(rng):
    return {
        "t": Table("t", [
            Column.from_values("a", rng.integers(0, 100, 5_000).astype(np.int32)),
            Column.from_values("b", rng.random(5_000)),
        ])
    }


@pytest.mark.parametrize("backend_name", ["thrust", "boost.compute",
                                          "arrayfire", "handwritten"])
class TestNoLeaks:
    def test_query_intermediates_are_collected(self, catalog, framework,
                                               backend_name):
        backend = framework.create(backend_name)
        executor = QueryExecutor(backend, catalog)
        result = executor.execute(
            scan("t").filter(col_lt("a", 50)).build()
        )
        del result
        gc.collect()
        assert backend.device.memory.used_bytes == 0
        assert backend.device.memory.live_buffer_count == 0

    def test_repeated_queries_do_not_grow_memory(self, catalog, framework,
                                                 backend_name):
        backend = framework.create(backend_name)
        executor = QueryExecutor(backend, catalog)
        plan = scan("t").filter(col_lt("a", 50)).build()
        executor.execute(plan)
        gc.collect()
        baseline = backend.device.memory.used_bytes
        for _ in range(5):
            executor.execute(plan)
        gc.collect()
        assert backend.device.memory.used_bytes <= baseline

    def test_operator_results_freed_on_drop(self, framework, backend_name,
                                            rng):
        backend = framework.create(backend_name)
        data = rng.integers(0, 100, 10_000).astype(np.int32)
        handle = backend.upload(data)
        sorted_handle = backend.sort(handle)
        gc.collect()
        in_use = backend.device.memory.used_bytes
        del sorted_handle
        gc.collect()
        assert backend.device.memory.used_bytes < in_use
        del handle
        gc.collect()
        assert backend.device.memory.used_bytes == 0


class TestDeviceArrayRelease:
    """A device array releases its buffer exactly once, whether it is
    freed, dropped, or collected out of a reference cycle."""

    @staticmethod
    def _frees(device):
        return len(list(device.profiler.iter_kind(FREE)))

    def test_arrays_in_a_reference_cycle_release_on_collect(self, device):
        runtime = ThrustRuntime(device)
        left = runtime.device_vector(np.arange(10, dtype=np.int32))
        right = runtime.device_vector(np.arange(20, dtype=np.int32))
        left.partner, right.partner = right, left
        del left, right
        gc.collect()
        assert device.memory.live_buffer_count == 0
        assert device.memory.used_bytes == 0
        assert self._frees(device) == 2

    def test_free_twice_releases_once(self, device):
        vector = ThrustRuntime(device).device_vector(np.arange(10))
        vector.free()
        vector.free()
        assert not vector.alive
        del vector
        gc.collect()
        assert self._frees(device) == 1
        assert device.memory.stats == (1, 1)

    def test_to_host_after_free_raises(self, device):
        vector = ThrustRuntime(device).device_vector(np.arange(10))
        vector.free()
        with pytest.raises(InvalidBufferError):
            vector.to_host()

    def test_exit_with_live_arrays_writes_nothing_to_stderr(self):
        script = textwrap.dedent("""
            import numpy as np
            from repro.gpu import Device
            from repro.libs.thrust import ThrustRuntime

            runtime = ThrustRuntime(Device(allocator="pool"))
            kept = runtime.device_vector(np.arange(100))
            left = runtime.device_vector(np.arange(10))
            right = runtime.device_vector(np.arange(20))
            left.partner, right.partner = right, left
        """)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0
        assert result.stderr == ""


class TestSessionPinning:
    def test_session_pins_only_cached_columns(self, framework):
        catalog = TpchGenerator(scale_factor=0.003, seed=23).generate()
        backend = framework.create("thrust")
        session = GpuSession(backend, catalog)
        session.execute(q6.plan())
        session.execute(q1.plan())
        gc.collect()
        # Device usage equals exactly the resident columns' bytes
        # (alignment rounds each buffer up to 256B).
        resident = session.resident_bytes
        used = backend.device.memory.used_bytes
        assert used >= resident
        assert used <= resident + 256 * len(session.resident_columns)

    def test_eviction_returns_to_zero(self, framework):
        catalog = TpchGenerator(scale_factor=0.003, seed=23).generate()
        backend = framework.create("thrust")
        session = GpuSession(backend, catalog)
        session.execute(q6.plan())
        session.evict()
        gc.collect()
        assert backend.device.memory.used_bytes == 0

    def test_close_releases_everything_and_is_idempotent(self, framework):
        catalog = TpchGenerator(scale_factor=0.003, seed=23).generate()
        backend = framework.create("thrust")
        session = GpuSession(backend, catalog)
        session.execute(q6.plan())
        session.close()
        session.close()  # idempotent
        gc.collect()
        assert backend.device.memory.used_bytes == 0
        with pytest.raises(RuntimeError):
            session.execute(q6.plan())

    def test_context_manager_closes_the_session(self, framework):
        catalog = TpchGenerator(scale_factor=0.003, seed=23).generate()
        backend = framework.create("thrust")
        with GpuSession(backend, catalog) as session:
            session.execute(q6.plan())
            assert session.resident_bytes > 0
        gc.collect()
        assert backend.device.memory.used_bytes == 0

    def test_peak_memory_reported_per_query(self, framework):
        catalog = TpchGenerator(scale_factor=0.003, seed=23).generate()
        backend = framework.create("thrust")
        executor = QueryExecutor(backend, catalog)
        report = executor.execute(q1.plan()).report
        assert report.peak_device_bytes > 0
        # Peak must cover at least the uploaded scan columns.
        lineitem = catalog["lineitem"]
        needed = sum(
            lineitem.column(c).nbytes
            for c in ("l_returnflag", "l_linestatus", "l_quantity",
                      "l_extendedprice", "l_discount", "l_tax",
                      "l_shipdate")
        )
        assert report.peak_device_bytes >= needed


class TestPooledDeviceHygiene:
    """The full TPC-H suite on a pooled device leaks nothing.

    Pool blocks parked in freelists are *cached*, not leaked — but after
    ``session.close()`` (evict + trim) the device must be back to zero
    used bytes with zero live buffers, and the pool must hold nothing.
    """

    @pytest.mark.parametrize("backend_name", ["thrust", "handwritten"])
    def test_full_suite_leaves_no_pool_blocks(self, framework, backend_name):
        catalog = TpchGenerator(scale_factor=0.003, seed=23).generate()
        device = Device(GTX_1080TI, allocator="pool")
        backend = framework.create(backend_name, device=device)
        session = GpuSession(backend, catalog)
        for module in ALL_QUERIES.values():
            if "catalog" in inspect.signature(module.plan).parameters:
                plan = module.plan(catalog)
            else:
                plan = module.plan()
            result = session.execute(plan)
            assert result.table.num_rows >= 0
        del result
        session.close()
        gc.collect()
        device.trim_pool()  # anything finalizers returned post-close
        assert device.pool.in_use_blocks == 0
        assert device.pool.cached_blocks == 0
        assert device.memory.used_bytes == 0
        assert device.memory.live_buffer_count == 0
        assert device.memory.leaked_buffers() == ()

    def test_pool_reuses_blocks_across_queries(self, framework):
        catalog = TpchGenerator(scale_factor=0.003, seed=23).generate()
        device = Device(GTX_1080TI, allocator="pool")
        backend = framework.create("thrust", device=device)
        executor = QueryExecutor(backend, catalog)
        executor.execute(q6.plan())
        gc.collect()
        first = device.pool.stats()
        executor.execute(q6.plan())
        gc.collect()
        second = device.pool.stats()
        # The repeat run is served mostly from freelists.
        assert second.hits - first.hits > second.misses - first.misses
