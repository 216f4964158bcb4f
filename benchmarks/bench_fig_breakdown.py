"""Breakdown figure (inferred) — where query time goes, per library.

TPC-H Q6 at a fixed scale factor, split into kernel / transfer / compile
time, cold and warm.  This regenerates the discussion the paper attaches
to its query measurements: chained library calls move intermediates, and
runtime-compiling libraries pay once per process.
"""

from common import ALL_GPU, out_dir, run_once
from repro.bench import write_report
from repro.core import default_framework
from repro.gpu import Device
from repro.query import QueryExecutor
from repro.tpch import q6

SCALE_FACTOR = 0.02


def test_fig_q6_cost_breakdown(benchmark, tpch_catalogs):
    framework = default_framework()
    catalog = tpch_catalogs[SCALE_FACTOR]

    def collect():
        rows = {}
        for name in ALL_GPU:
            executor = QueryExecutor(framework.create(name, Device()), catalog)
            cold = executor.execute(q6.plan()).report
            warm = executor.execute(q6.plan()).report
            rows[name] = (cold, warm)
        return rows

    rows = run_once(benchmark, collect)
    lines = [
        f"== Q6 cost breakdown at SF {SCALE_FACTOR} (simulated ms) ==",
        f"{'backend':>16} {'run':>6}  {'total':>10}  {'kernel':>10}  "
        f"{'transfer':>10}  {'compile':>10}  {'kernels':>8}",
    ]
    for name, (cold, warm) in rows.items():
        for label, report in (("cold", cold), ("warm", warm)):
            breakdown = report.breakdown()
            lines.append(
                f"{name:>16} {label:>6}  {report.simulated_ms:10.4f}  "
                f"{breakdown['kernel'] * 1e3:10.4f}  "
                f"{breakdown['transfer'] * 1e3:10.4f}  "
                f"{breakdown['compile'] * 1e3:10.4f}  "
                f"{report.summary.kernel_count:8d}"
            )
    text = "\n".join(lines)
    print("\n" + text)
    write_report("fig_q6_breakdown", text, directory=out_dir())

    # Cold boost.compute time is mostly OpenCL program builds.
    cold_boost = rows["boost.compute"][0]
    assert cold_boost.breakdown()["compile"] > 0.5 * cold_boost.simulated_seconds
    # Warm runs compile nothing.
    for name in ALL_GPU:
        assert rows[name][1].breakdown()["compile"] == 0.0
    # ArrayFire launches the fewest kernels on Q6 (fusion).
    warm_kernels = {
        name: rows[name][1].summary.kernel_count for name in ALL_GPU
    }
    assert warm_kernels["arrayfire"] <= warm_kernels["thrust"]
    assert warm_kernels["arrayfire"] <= warm_kernels["boost.compute"]
