"""Fig. Q6 (inferred) — TPC-H Q6 runtime vs. scale factor per library.

Q6 is the canonical selection+reduction query: a three-way conjunctive
filter, a product, and a sum.  Warm numbers isolate steady-state library
quality; the cold column shows the first-query penalty (OpenCL builds,
ArrayFire JIT) the paper attributes to runtime compilation.
"""

import numpy as np

from common import ALL_GPU, SCALE_FACTORS, out_dir, run_once
from repro.bench import write_report
from repro.core import default_framework
from repro.gpu import Device
from repro.query import QueryExecutor
from repro.tpch import q6


def _measure(framework, backend_name, catalog):
    backend = framework.create(backend_name, Device())
    executor = QueryExecutor(backend, catalog)
    plan = q6.plan()
    cold = executor.execute(plan).report.simulated_ms
    warm = executor.execute(plan).report.simulated_ms
    return cold, warm


def test_fig_tpch_q6_scale_sweep(benchmark, tpch_catalogs):
    framework = default_framework()

    def sweep():
        rows = {}
        for sf in SCALE_FACTORS:
            rows[sf] = {
                name: _measure(framework, name, tpch_catalogs[sf])
                for name in ALL_GPU
            }
        return rows

    rows = run_once(benchmark, sweep)
    lines = [
        "== Fig. Q6: TPC-H Q6 vs scale factor (simulated ms) ==",
        f"{'SF':>8}  " + "  ".join(
            f"{name + ' warm':>18}  {name + ' cold':>18}" for name in ALL_GPU
        ),
    ]
    for sf, per_backend in rows.items():
        cells = []
        for name in ALL_GPU:
            cold, warm = per_backend[name]
            cells.append(f"{warm:18.4f}  {cold:18.4f}")
        lines.append(f"{sf:8.3f}  " + "  ".join(cells))
    text = "\n".join(lines)
    print("\n" + text)
    write_report("fig_tpch_q6", text, directory=out_dir())

    largest = rows[SCALE_FACTORS[-1]]
    warm = {name: largest[name][1] for name in ALL_GPU}
    cold = {name: largest[name][0] for name in ALL_GPU}
    # Warm ordering: handwritten < thrust < boost; AF competitive with
    # thrust thanks to predicate fusion.
    assert warm["handwritten"] < warm["thrust"] < warm["boost.compute"]
    assert warm["arrayfire"] < warm["boost.compute"]
    # Cold boost is dominated by OpenCL program builds.
    assert cold["boost.compute"] > 3.0 * warm["boost.compute"]
    # Warm runtimes grow with SF for every library.
    for name in ALL_GPU:
        series = [rows[sf][name][1] for sf in SCALE_FACTORS]
        assert series[-1] > series[0]


def test_fig_tpch_q6_results_agree_across_backends(benchmark, tpch_catalogs):
    """All libraries must compute the same revenue (framework property)."""
    framework = default_framework()
    catalog = tpch_catalogs[SCALE_FACTORS[-1]]
    expected = q6.reference(catalog)["revenue"][0]

    def check():
        revenues = {}
        for name in ALL_GPU:
            executor = QueryExecutor(framework.create(name, Device()), catalog)
            result = executor.execute(q6.plan())
            revenues[name] = float(result.table.column("revenue").data[0])
        return revenues

    revenues = run_once(benchmark, check)
    for name, revenue in revenues.items():
        assert np.isclose(revenue, expected), name
