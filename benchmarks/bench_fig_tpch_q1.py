"""Fig. Q1 (inferred) — TPC-H Q1 runtime vs. scale factor per library.

Q1 is the grouped-aggregation stress test: 8 aggregates over 2 group
keys.  The library realization re-sorts per reduce_by_key call (the
"chained library calls" overhead the paper criticises), while the
handwritten backend's hash aggregation never sorts.
"""

from common import ALL_GPU, SCALE_FACTORS, out_dir, run_once
from repro.bench import write_report
from repro.core import default_framework
from repro.gpu import Device
from repro.query import QueryExecutor
from repro.tpch import q1


def test_fig_tpch_q1_scale_sweep(benchmark, tpch_catalogs):
    framework = default_framework()

    def sweep():
        rows = {}
        for sf in SCALE_FACTORS:
            per_backend = {}
            for name in ALL_GPU:
                executor = QueryExecutor(
                    framework.create(name, Device()), tpch_catalogs[sf]
                )
                plan = q1.plan()
                executor.execute(plan)  # cold
                per_backend[name] = executor.execute(plan).report.simulated_ms
            rows[sf] = per_backend
        return rows

    rows = run_once(benchmark, sweep)
    lines = [
        "== Fig. Q1: TPC-H Q1 vs scale factor (warm, simulated ms) ==",
        f"{'SF':>8}  " + "  ".join(f"{name:>16}" for name in ALL_GPU),
    ]
    for sf, per_backend in rows.items():
        lines.append(
            f"{sf:8.3f}  "
            + "  ".join(f"{per_backend[name]:16.4f}" for name in ALL_GPU)
        )
    largest = rows[SCALE_FACTORS[-1]]
    lines.append(
        f"handwritten speedup over thrust at SF {SCALE_FACTORS[-1]}: "
        f"{largest['thrust'] / largest['handwritten']:.1f}x "
        "(hash aggregation vs sort-per-aggregate)"
    )
    text = "\n".join(lines)
    print("\n" + text)
    write_report("fig_tpch_q1", text, directory=out_dir())

    assert largest["handwritten"] * 2.0 < largest["thrust"]
    assert largest["thrust"] < largest["boost.compute"]
    for name in ALL_GPU:
        series = [rows[sf][name] for sf in SCALE_FACTORS]
        assert series[-1] > series[0]
