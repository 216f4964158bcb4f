"""Ablation 2 — Boost.Compute's program cache: cold vs. warm.

Boost.Compute compiles OpenCL kernels at first use.  This ablation runs a
suite of operators twice on one runtime (cold, then warm) and once with
the cache invalidated between operators (worst case), quantifying how
much of the cold-query penalty the cache recovers — the steady-state
numbers the paper reports assume a warm cache.
"""

from common import out_dir, run_once
from repro.bench import grouped_keys, uniform_ints, write_report
from repro.core import BoostComputeBackend, col_gt
from repro.gpu import Device

N = 1 << 20


def _operator_suite(backend, state):
    backend.selection({"x": state["data"]}, col_gt("x", 500_000))
    backend.grouped_aggregation(state["keys"], state["values"], "sum")
    backend.sort(state["data"])
    backend.prefix_sum(state["keys"])
    backend.reduction(state["values"], "sum")


def _setup(backend):
    keys, values = grouped_keys(N, groups=512, seed=7)
    return {
        "data": backend.upload(uniform_ints(N, seed=8)),
        "keys": backend.upload(keys),
        "values": backend.upload(values),
    }


def test_ablation_program_cache(benchmark):
    def measure():
        backend = BoostComputeBackend(Device())
        state = _setup(backend)
        device = backend.device

        t0 = device.clock.now
        _operator_suite(backend, state)
        cold_ms = (device.clock.now - t0) * 1e3
        cold_stats = (
            backend.program_cache.stats.misses,
            backend.program_cache.stats.compile_time * 1e3,
        )

        t0 = device.clock.now
        _operator_suite(backend, state)
        warm_ms = (device.clock.now - t0) * 1e3

        # Worst case: no cache at all (invalidate before the run).
        backend.program_cache.invalidate()
        t0 = device.clock.now
        _operator_suite(backend, state)
        nocache_ms = (device.clock.now - t0) * 1e3

        return cold_ms, warm_ms, nocache_ms, cold_stats

    cold_ms, warm_ms, nocache_ms, (misses, compile_ms) = run_once(
        benchmark, measure
    )
    text = "\n".join([
        f"== Ablation 2: Boost.Compute program cache (operator suite, "
        f"n={N}) ==",
        f"  cold (first use, cache filling): {cold_ms:10.3f} ms "
        f"({misses} programs compiled, {compile_ms:.1f} ms compiling)",
        f"  warm (cache hits only):          {warm_ms:10.3f} ms",
        f"  invalidated (recompile all):     {nocache_ms:10.3f} ms",
        f"  cold / warm ratio: {cold_ms / warm_ms:8.1f}x",
    ])
    print("\n" + text)
    write_report("ablation_compile_cache", text, directory=out_dir())

    assert cold_ms > 5.0 * warm_ms
    assert nocache_ms > 5.0 * warm_ms
    assert compile_ms > 0.8 * (cold_ms - warm_ms)
