"""Ablation 1 — how much of ArrayFire's selection advantage is JIT fusion?

Runs the same conjunctive selection with (a) fusion on, (b) fusion off
(every element-wise op evaluated eagerly, like an STL library), and
compares against Thrust.  DESIGN.md calls this design choice out as the
mechanism behind ArrayFire's Table II "full support" column for
selections.

Scope note: this measures ArrayFire's **element-wise JIT fusion** — the
lazy evaluation that collapses a chain of map-style ops (the predicate
arithmetic of one selection) into one generated kernel.  It fuses only
within an operator's expression; the pipeline still materialises between
operators.  **Whole-pipeline fusion** — scan → filter → probe →
partial-aggregate as one kernel, the ``compiled`` backend — is a
different, larger mechanism, ablated separately in
``bench_fig_fused_pipeline.py``.  Don't read this figure as the ceiling
on fusion.
"""

import numpy as np

from common import out_dir, run_once
from repro.bench import uniform_ints, write_report
from repro.core import ArrayFireBackend, ThrustBackend, col_gt, conjunction
from repro.gpu import Device

N = 1 << 21
PREDICATES = 3


def _selection_time(backend, data_columns, predicate) -> float:
    columns = {
        name: backend.upload(data) for name, data in data_columns.items()
    }
    backend.selection(columns, predicate)  # warm
    t0 = backend.device.clock.now
    backend.selection(columns, predicate)
    return (backend.device.clock.now - t0) * 1e3


def test_ablation_jit_fusion(benchmark):
    data_columns = {
        f"c{i}": uniform_ints(N, seed=300 + i) for i in range(PREDICATES)
    }
    predicate = conjunction(
        [col_gt(f"c{i}", 500_000) for i in range(PREDICATES)]
    )

    def measure():
        fused = _selection_time(
            ArrayFireBackend(Device(), fusion_enabled=True),
            data_columns, predicate,
        )
        unfused = _selection_time(
            ArrayFireBackend(Device(), fusion_enabled=False),
            data_columns, predicate,
        )
        thrust = _selection_time(
            ThrustBackend(Device()), data_columns, predicate
        )
        return fused, unfused, thrust

    fused, unfused, thrust = run_once(benchmark, measure)
    edge_with = thrust / fused
    edge_without = thrust / unfused
    text = "\n".join([
        f"== Ablation 1: ArrayFire element-wise JIT fusion "
        f"({PREDICATES}-predicate conjunction, n={N}, warm) ==",
        f"  arrayfire, fusion ON   (1 fused kernel): {fused:10.4f} ms",
        f"  arrayfire, fusion OFF  (eager per-op):   {unfused:10.4f} ms",
        f"  thrust (eager chain, CUDA tier):         {thrust:10.4f} ms",
        f"  fusion speedup: {unfused / fused:.2f}x",
        f"  edge over thrust with fusion: {edge_with:.2f}x, "
        f"without: {edge_without:.2f}x",
        "  (the residual unfused edge comes from ArrayFire's 1-byte bool"
        " intermediates vs the chain's int32 flags)",
        "  (element-wise JIT fusion only; whole-pipeline fusion is"
        " ablated in bench_fig_fused_pipeline.py)",
    ])
    print("\n" + text)
    write_report("ablation_jit_fusion", text, directory=out_dir())

    # Fusion is worth a material factor on multi-predicate selections...
    assert unfused / fused > 1.4
    # ...and accounts for most of ArrayFire's edge over Thrust.
    assert fused < thrust
    assert (edge_with - 1.0) > 1.5 * (edge_without - 1.0)


def test_ablation_jit_fusion_preserves_results(benchmark):
    data = uniform_ints(N // 16, seed=301)
    predicate = col_gt("c0", 500_000)

    def check():
        ids = {}
        for flag in (True, False):
            backend = ArrayFireBackend(Device(), fusion_enabled=flag)
            handle = backend.selection(
                {"c0": backend.upload(data)}, predicate
            )
            ids[flag] = np.sort(backend.download(handle).astype(np.int64))
        return ids

    ids = run_once(benchmark, check)
    assert np.array_equal(ids[True], ids[False])
