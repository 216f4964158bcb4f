"""Fig. C (inferred) — conjunctive and disjunctive selections.

Sweeps the number of ANDed predicates.  This is where the realization
strategies of Table II diverge most: ArrayFire fuses k comparisons into
one JIT kernel (+ one ``where``), while the STL libraries launch one
``transform`` per comparison plus one ``bit_and`` per combine.
"""

import numpy as np

from common import ALL_GPU, out_dir, run_once
from repro.bench import render_all, run_simple_sweep, uniform_ints, write_report
from repro.core import col_gt, conjunction, disjunction

N = 1 << 20
PREDICATE_COUNTS = (1, 2, 3, 4)


def _make_setup(combine):
    def setup(backend, k):
        columns = {}
        predicates = []
        for i in range(k):
            data = uniform_ints(N, seed=100 + i)
            columns[f"c{i}"] = backend.upload(data)
            predicates.append(col_gt(f"c{i}", 250_000))
        return {"columns": columns, "predicate": combine(predicates)}

    return setup


def _run(backend, state):
    backend.selection(state["columns"], state["predicate"])


def test_fig_conjunction_predicate_sweep(benchmark):
    def sweep():
        return run_simple_sweep(
            f"Fig. C-a: conjunctive selection vs #predicates (n={N}, warm)",
            ALL_GPU, PREDICATE_COUNTS, _make_setup(conjunction), _run,
        )

    result = run_once(benchmark, sweep)
    text = render_all(result, baseline="handwritten")
    print("\n" + text)
    write_report("fig_conjunction", text, directory=out_dir())
    # ArrayFire's advantage over Thrust grows with predicate count (fusion).
    ratio_at = [
        thrust_ms / af_ms
        for thrust_ms, af_ms in zip(result.ms("thrust"), result.ms("arrayfire"))
    ]
    assert ratio_at[-1] > ratio_at[0]


def test_fig_disjunction_predicate_sweep(benchmark):
    def sweep():
        return run_simple_sweep(
            f"Fig. C-b: disjunctive selection vs #predicates (n={N}, warm)",
            ALL_GPU, PREDICATE_COUNTS[1:], _make_setup(disjunction), _run,
        )

    result = run_once(benchmark, sweep)
    text = render_all(result, baseline="handwritten")
    print("\n" + text)
    write_report("fig_disjunction", text, directory=out_dir())
    for name in ALL_GPU:
        assert all(ms is not None for ms in result.ms(name))


def test_fig_conjunction_set_ops_vs_fused(benchmark):
    """Table II's literal ArrayFire realization (per-leaf ``where`` +
    ``setIntersect``) against the fused strategy."""
    from repro.core import ArrayFireBackend
    from repro.gpu import Device

    data = [uniform_ints(N, seed=200 + i) for i in range(3)]
    predicate = conjunction(
        [col_gt(f"c{i}", 250_000) for i in range(3)]
    )

    def measure(strategy: str) -> float:
        backend = ArrayFireBackend(Device(), conjunction_strategy=strategy)
        columns = {f"c{i}": backend.upload(data[i]) for i in range(3)}
        backend.selection(columns, predicate)  # warm
        t0 = backend.device.clock.now
        ids = backend.selection(columns, predicate)
        elapsed = (backend.device.clock.now - t0) * 1e3
        return elapsed, np.sort(backend.download(ids).astype(np.int64))

    def compare():
        fused_ms, fused_ids = measure("fused")
        setops_ms, setops_ids = measure("set_ops")
        assert np.array_equal(fused_ids, setops_ids)
        return fused_ms, setops_ms

    fused_ms, setops_ms = run_once(benchmark, compare)
    text = (
        "== Fig. C-c: ArrayFire conjunction strategies (3 predicates, "
        f"n={N}, warm) ==\n"
        f"  fused (where on fused mask):        {fused_ms:10.4f} ms\n"
        f"  set_ops (where per leaf + setIntersect): {setops_ms:10.4f} ms\n"
        f"  set-ops / fused ratio:              {setops_ms / fused_ms:10.2f}x"
    )
    print("\n" + text)
    write_report("fig_conjunction_af_strategies", text, directory=out_dir())
    assert fused_ms < setops_ms
