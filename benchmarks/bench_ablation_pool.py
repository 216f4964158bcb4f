"""Ablation 3 — pooled device allocator and OOM-recovery overhead.

Two measurements:

1. **Allocation cost.** The same operator suite runs on a device that
   prices every allocation as a raw ``cudaMalloc`` (host latency plus an
   engine drain, killing stream overlap) and on one with the pooling
   sub-allocator (freed blocks are reused for the cost of host
   bookkeeping).  The pool must recover most of the allocator time —
   the reason RMM/Thrust ship caching allocators.

2. **Graceful degradation.** Q1 and Q6 run on a device too small for
   their whole-table working set: the executor catches the OOM and
   retries through the chunked path.  The recovered run must produce
   the NumPy oracle's numbers; the report records the chunk count and
   the slowdown relative to a comfortably-sized device.
"""

import dataclasses

import numpy as np

from common import out_dir, run_once
from repro.bench import grouped_keys, uniform_ints, write_report
from repro.core import col_gt, default_framework
from repro.gpu import GTX_1080TI, Device
from repro.query import QueryExecutor
from repro.tpch import TpchGenerator, q1, q6

N = 1 << 18
ROUNDS = 8
SCALE_FACTOR = 0.005


def _operator_suite(backend, state):
    backend.selection({"x": state["data"]}, col_gt("x", 500_000))
    backend.grouped_aggregation(state["keys"], state["values"], "sum")
    backend.sort(state["data"])
    backend.reduction(state["values"], "sum")


def _allocator_run(allocator: str):
    """Total simulated ms and allocator-only ms for ROUNDS suite runs."""
    backend = default_framework().create(
        "thrust", device=Device(GTX_1080TI, allocator=allocator)
    )
    device = backend.device
    keys, values = grouped_keys(N, groups=512, seed=7)
    state = {
        "data": backend.upload(uniform_ints(N, seed=8)),
        "keys": backend.upload(keys),
        "values": backend.upload(values),
    }
    cursor = device.profiler.mark()
    t0 = device.clock.now
    for _ in range(ROUNDS):
        _operator_suite(backend, state)
    total_ms = (device.clock.now - t0) * 1e3
    summary = device.profiler.summary(since=cursor)
    return total_ms, summary.alloc_time * 1e3, device


def _oom_recovery_run(qmod, columns_rtol):
    """Run one query on undersized vs. comfortable devices; verify the
    recovered result against the NumPy oracle."""
    catalog = TpchGenerator(scale_factor=SCALE_FACTOR, seed=23).generate()
    lineitem_bytes = catalog["lineitem"].nbytes
    framework = default_framework()

    roomy = framework.create(
        "thrust", device=Device(GTX_1080TI, allocator="pool")
    )
    baseline = QueryExecutor(roomy, catalog).execute(qmod.plan())
    assert baseline.report.oom_recovery_chunks is None

    small_spec = dataclasses.replace(
        GTX_1080TI, memory_bytes=lineitem_bytes // 2
    )
    small = framework.create(
        "thrust", device=Device(small_spec, allocator="pool")
    )
    recovered = QueryExecutor(small, catalog).execute(qmod.plan())
    assert recovered.report.oom_recovery_chunks is not None

    reference = qmod.reference(catalog)
    for name, expected in reference.items():
        got = np.asarray(recovered.table.column(name).data, dtype=np.float64)
        expected = np.asarray(expected, dtype=np.float64)
        assert np.allclose(got, expected, rtol=columns_rtol), name

    return (
        baseline.report.simulated_ms,
        recovered.report.simulated_ms,
        recovered.report.oom_recovery_chunks,
    )


def test_ablation_pool_allocator(benchmark):
    def measure():
        malloc_ms, malloc_alloc_ms, _ = _allocator_run("malloc")
        pool_ms, pool_alloc_ms, pool_device = _allocator_run("pool")
        stats = pool_device.pool.stats()
        q6_numbers = _oom_recovery_run(q6, 1e-9)
        q1_numbers = _oom_recovery_run(q1, 1e-9)
        return (
            malloc_ms, malloc_alloc_ms, pool_ms, pool_alloc_ms, stats,
            q6_numbers, q1_numbers,
        )

    (
        malloc_ms, malloc_alloc_ms, pool_ms, pool_alloc_ms, stats,
        (q6_base, q6_rec, q6_chunks), (q1_base, q1_rec, q1_chunks),
    ) = run_once(benchmark, measure)

    text = "\n".join([
        f"== Ablation 3: pooled device allocator (operator suite x"
        f"{ROUNDS}, n={N}) ==",
        f"  cudaMalloc every call: {malloc_ms:10.3f} ms total "
        f"({malloc_alloc_ms:.3f} ms in the allocator)",
        f"  pooling sub-allocator: {pool_ms:10.3f} ms total "
        f"({pool_alloc_ms:.3f} ms in the allocator)",
        f"  allocator time recovered: "
        f"{(1.0 - pool_alloc_ms / malloc_alloc_ms) * 100.0:5.1f}%",
        f"  {stats}",
        "== OOM recovery (TPC-H on a device half the size of lineitem) ==",
        f"  Q6: {q6_base:8.3f} ms roomy -> {q6_rec:8.3f} ms recovered "
        f"({q6_chunks} chunks)",
        f"  Q1: {q1_base:8.3f} ms roomy -> {q1_rec:8.3f} ms recovered "
        f"({q1_chunks} chunks)",
    ])
    print("\n" + text)
    write_report("ablation_pool", text, directory=out_dir())

    # The pool must eliminate most per-call allocation cost...
    assert pool_alloc_ms < 0.25 * malloc_alloc_ms
    assert pool_ms < malloc_ms
    # ...by actually reusing blocks, not by skipping accounting.
    assert stats.hits > stats.misses
    # Recovery completed (oracle checks above) at a bounded chunk count.
    assert 2 <= q6_chunks <= 64
    assert 2 <= q1_chunks <= 64
