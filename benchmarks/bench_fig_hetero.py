"""Fig. hetero (new) — CPU+GPU co-execution: crossovers, hybrid wins, shed.

Shanbhag et al. ("A Study of the Fundamental Performance Characteristics
of GPUs and CPUs for Database Analytics") show the CPU/GPU crossover is
per-operator: transfer cost alone decides small builds and
low-selectivity scans.  This figure drives the heterogeneous placement
layer (:mod:`repro.hetero`) through exactly those regimes:

* **size crossover** — a single-column sort, swept over row counts: at a
  few hundred rows two host dispatches beat a kernel launch plus PCIe
  latency, past a few thousand the GPU's radix passes at device
  bandwidth win.  The placement must *flip* along the axis;
* **selectivity crossover** — a filtered global aggregate at fixed size,
  swept over the filter's selectivity (passed explicitly to the
  placement model): low selectivity means the PCIe scan upload is pure
  overhead and the CPU wins, high selectivity feeds enough gather/agg
  traffic to the GPU's bandwidth advantage.  Again: the placement flips;
* **whole-suite hybrid** — all 16 TPC-H queries under pure-CPU,
  pure-GPU, and cost-chosen (auto) placement, every result checked
  against the NumPy oracle *and* across modes (bit-identity is the
  executor's core contract).  At least one query with a genuinely mixed
  placement must beat **both** pure placements by ``HYBRID_FLOOR``;
* **pressure shed** — a serving run whose admission budget is far below
  the working set, with ``shed_to_cpu`` enabled: every request must
  complete (none shed), a nonzero number on the host, all results
  oracle-identical.

Run under pytest for the report, or with ``--smoke`` for the CI smoke
job: the crossover tables, per-query mode comparison, hybrid-win
margins and shed outcome are saved to ``fig_hetero_smoke.json``, with
the floor rows enforced on them.
"""

import numpy as np

from bench_fig_tpch_suite import ALL_QUERIES, _matches, _plan_of, _reference_of
from common import failed_floors, finish_smoke, out_dir, run_once, smoke_main
from repro.bench import write_report
from repro.core import default_framework
from repro.core.expr import col
from repro.core.predicate import col_lt
from repro.hetero import CPU, GPU, HeterogeneousExecutor, PlacementModel, place_pipelines
from repro.query.pipeline import lower_plan
from repro.query.plan import Aggregate, Filter, GroupBy, OrderBy, Scan
from repro.relational.table import Table
from repro.serve import QueryServer, QuerySpec, ServerConfig, repeated_workload
from repro.tpch import TpchGenerator

CATALOG_SEED = 11
SMOKE_SCALE_FACTOR = 0.02

#: On at least one TPC-H query, the cost-chosen *hybrid* placement must
#: beat both pure placements by this factor.
HYBRID_FLOOR = 1.15

#: Auto placement may never pay more than 25% over the best pure
#: placement on any query (the cost model is allowed to be imperfect,
#: not wrong).
AUTO_REGRESSION_FLOOR = 0.8

#: Row counts for the size crossover (single-column sort).  The model
#: flips around ~4k rows: below it CPU dispatch wins, above it device
#: bandwidth does.
SIZE_AXIS = (256, 1024, 4096, 16384, 65536)

#: Selectivities for the selectivity crossover (filter + global sum over
#: 200k rows).  The model flips around ~0.35.
SELECTIVITY_AXIS = (0.05, 0.2, 0.35, 0.5, 0.8, 0.95)
SELECTIVITY_ROWS = 200_000

#: Admission budget for the pressure-shed run — far below the TPC-H
#: working set at SF 0.02, so large queries cannot be admitted and the
#: CPU fallback is the only way to complete them.
SHED_BUDGET_BYTES = 3_000_000
SHED_QUERIES = ("Q1", "Q6", "Q12")


def _catalog(scale_factor):
    return TpchGenerator(
        scale_factor=scale_factor, seed=CATALOG_SEED
    ).generate()


def _size_catalog(rows):
    rng = np.random.default_rng(7)
    return {"series": Table.from_arrays("series", {"v": rng.random(rows)})}


def _size_plan():
    return OrderBy(Scan("series"), "v")


def _selectivity_catalog():
    rng = np.random.default_rng(7)
    return {
        "events": Table.from_arrays(
            "events", {"v": rng.random(SELECTIVITY_ROWS)}
        )
    }


def _selectivity_plan():
    filtered = Filter(Scan("events"), col_lt("v", 0.5))
    return GroupBy(filtered, (), (Aggregate("total", "sum", col("v")),))


def _placement_devices(plan, catalog, model, selectivity=None):
    """The device string ("cpu"/"gpu"/"mixed") auto placement chooses."""
    program = lower_plan(plan, catalog=catalog)
    placement = place_pipelines(
        program, catalog, model, selectivity=selectivity
    )
    devices = set(placement.devices)
    if devices == {CPU}:
        return CPU
    if devices == {GPU}:
        return GPU
    return "mixed"


def _crossover_size(model):
    """[(rows, device)] along the size axis, plus endpoint bit-identity."""
    points = []
    for rows in SIZE_AXIS:
        catalog = _size_catalog(rows)
        points.append(
            (rows, _placement_devices(_size_plan(), catalog, model))
        )
    # Endpoints run for real, in all three modes, against the NumPy sort.
    identical = True
    for rows in (SIZE_AXIS[0], SIZE_AXIS[-1]):
        catalog = _size_catalog(rows)
        expected = np.sort(catalog["series"].column("v").data)
        for mode in ("cpu", "gpu", "auto"):
            executor = HeterogeneousExecutor(
                default_framework().create("compiled"), catalog
            )
            result = executor.execute(_size_plan(), mode=mode)
            if not np.array_equal(result.table.column("v").data, expected):
                identical = False
    return points, identical


def _crossover_selectivity(model):
    """[(selectivity, device)] with the fraction given to the model."""
    catalog = _selectivity_catalog()
    plan = _selectivity_plan()
    return [
        (fraction, _placement_devices(plan, catalog, model, fraction))
        for fraction in SELECTIVITY_AXIS
    ]


def _flipped(points):
    """True when both devices appear and the flip is a single switch."""
    devices = [device for _x, device in points]
    if not (CPU in devices and GPU in devices):
        return False
    return devices == sorted(devices, key=devices.index)


def _run_suite(catalog):
    """name -> per-mode microseconds, placement string, oracle verdicts."""
    results = {}
    for name in sorted(ALL_QUERIES, key=lambda q: int(q[1:])):
        executor = HeterogeneousExecutor(
            default_framework().create("compiled"), catalog
        )
        plan = _plan_of(name, catalog)
        expected = _reference_of(name, catalog)
        times, tables, placements = {}, {}, {}
        for mode in ("cpu", "gpu", "auto"):
            executor.execute(plan, mode=mode)  # warm: amortise the JIT
            result = executor.execute(plan, mode=mode)
            times[mode] = result.report.simulated_seconds
            tables[mode] = result.table
            placements[mode] = "".join(
                device[0].upper()
                for device in executor.last_placement.devices
            )
        oracle_match = all(
            _matches(tables[mode], expected) for mode in tables
        )
        cross_mode_match = tables["cpu"].equals(tables["gpu"]) and tables[
            "gpu"
        ].equals(tables["auto"])
        results[name] = {
            "placement": placements["auto"],
            "hybrid": len(set(placements["auto"])) > 1,
            "auto_us": times["auto"] * 1e6,
            "cpu_us": times["cpu"] * 1e6,
            "gpu_us": times["gpu"] * 1e6,
            "vs_cpu": times["cpu"] / times["auto"],
            "vs_gpu": times["gpu"] / times["auto"],
            "oracle_match": oracle_match,
            "cross_mode_match": cross_mode_match,
        }
    return results


def _best_hybrid(queries):
    """The mixed-placement query with the largest min(vs_cpu, vs_gpu).

    With no mixed placement at all, an empty row with zero margins, so
    the hybrid floor reports the regression instead of crashing.
    """
    candidates = {
        name: row for name, row in queries.items() if row["hybrid"]
    }
    if not candidates:
        return {"query": None, "placement": "", "vs_cpu": 0.0, "vs_gpu": 0.0}
    name = max(
        candidates,
        key=lambda n: min(candidates[n]["vs_cpu"], candidates[n]["vs_gpu"]),
    )
    row = candidates[name]
    return {
        "query": name,
        "placement": row["placement"],
        "vs_cpu": row["vs_cpu"],
        "vs_gpu": row["vs_gpu"],
    }


def _run_shed(catalog):
    """One pressure run with the CPU fallback on; oracle-checked."""
    specs = [
        QuerySpec(name=name, plan=_plan_of(name, catalog))
        for name in SHED_QUERIES
    ]
    workload = repeated_workload(
        specs, rate=2000.0, repeats=4, tenants=("tenant-a", "tenant-b"),
        seed=3,
    )
    config = ServerConfig(
        num_streams=2,
        admission_budget_bytes=SHED_BUDGET_BYTES,
        shed_to_cpu=True,
        keep_results=True,
        result_cache=False,
    )
    backend = default_framework().create("compiled")
    with QueryServer(backend, catalog, config) as server:
        report = server.run(workload)
    metrics = report.metrics
    oracle_matches = all(
        _matches(record.table, _reference_of(record.name, catalog))
        for record in report.records
    )
    return {
        "total": metrics.total_requests,
        "completed": metrics.completed,
        "shed": metrics.shed,
        "shed_to_cpu": metrics.shed_to_cpu,
        "oracle_matches": oracle_matches,
        "p99_latency_s": metrics.p99_latency,
    }


def _collect(scale_factor):
    """The full figure payload (shared by the pytest run and the smoke)."""
    model = PlacementModel.default()
    size_points, size_identical = _crossover_size(model)
    selectivity_points = _crossover_selectivity(model)
    catalog = _catalog(scale_factor)
    queries = _run_suite(catalog)
    return {
        "scale_factor": scale_factor,
        "crossover": {
            "size": {
                "axis": [rows for rows, _d in size_points],
                "devices": [device for _r, device in size_points],
                "flipped": _flipped(size_points),
                "endpoints_identical": size_identical,
            },
            "selectivity": {
                "axis": [fraction for fraction, _d in selectivity_points],
                "devices": [device for _f, device in selectivity_points],
                "flipped": _flipped(selectivity_points),
            },
        },
        "queries": queries,
        "hybrid": _best_hybrid(queries),
        "shed": _run_shed(catalog),
    }


def _floors(payload):
    """Crossovers flip, queries agree, hybrid wins, pressure run completes."""
    size = payload["crossover"]["size"]
    queries, hybrid, shed = payload["queries"], payload["hybrid"], payload["shed"]
    rows = [
        ("size crossover flipped", size["flipped"], "==", True),
        ("size endpoints identical", size["endpoints_identical"], "==", True),
        (
            "selectivity crossover flipped",
            payload["crossover"]["selectivity"]["flipped"], "==", True,
        ),
        ("queries run", len(queries), ">=", len(ALL_QUERIES)),
    ]
    for name, row in queries.items():
        rows += [
            (f"{name} oracle match", row["oracle_match"], "==", True),
            (f"{name} cross-mode match", row["cross_mode_match"], "==", True),
            (
                f"{name} auto vs best pure placement",
                min(row["vs_cpu"], row["vs_gpu"]), ">=",
                AUTO_REGRESSION_FLOOR,
            ),
        ]
    return rows + [
        (
            f"best hybrid ({hybrid['query']}) vs both pure placements",
            min(hybrid["vs_cpu"], hybrid["vs_gpu"]), ">=", HYBRID_FLOOR,
        ),
        ("requests under pressure", shed["total"], ">=", 1),
        ("completed under pressure", shed["completed"], "==", shed["total"]),
        ("shed under pressure", shed["shed"], "==", 0),
        ("shed to the CPU", shed["shed_to_cpu"], ">=", 1),
        ("shed-to-cpu oracle match", shed["oracle_matches"], "==", True),
    ]


def test_fig_hetero(benchmark):
    payload = run_once(benchmark, lambda: _collect(SMOKE_SCALE_FACTOR))
    assert failed_floors(_floors(payload)) == []

    lines = [
        "== Fig. hetero: CPU+GPU co-execution "
        f"(SF {payload['scale_factor']}, warm) ==",
        "-- size crossover (sort) --",
    ]
    for rows, device in zip(
        payload["crossover"]["size"]["axis"],
        payload["crossover"]["size"]["devices"],
    ):
        lines.append(f"{rows:8d} rows -> {device}")
    lines.append("-- selectivity crossover (filter + agg) --")
    for fraction, device in zip(
        payload["crossover"]["selectivity"]["axis"],
        payload["crossover"]["selectivity"]["devices"],
    ):
        lines.append(f"{fraction:8.2f}      -> {device}")
    lines.append(
        f"{'query':>6}  {'placement':>12}  {'auto us':>9}  {'cpu us':>9}  "
        f"{'gpu us':>9}  {'vs cpu':>6}  {'vs gpu':>6}"
    )
    for name, row in payload["queries"].items():
        lines.append(
            f"{name:>6}  {row['placement']:>12}  {row['auto_us']:9.1f}  "
            f"{row['cpu_us']:9.1f}  {row['gpu_us']:9.1f}  "
            f"{row['vs_cpu']:6.2f}  {row['vs_gpu']:6.2f}"
        )
    hybrid = payload["hybrid"]
    shed = payload["shed"]
    lines.append(
        f"hybrid win: {hybrid['query']} ({hybrid['placement']}) "
        f"{hybrid['vs_cpu']:.2f}x vs cpu, {hybrid['vs_gpu']:.2f}x vs gpu "
        f"(floor {HYBRID_FLOOR}x)"
    )
    lines.append(
        f"pressure shed: {shed['completed']}/{shed['total']} completed, "
        f"{shed['shed_to_cpu']} on the host, 0 shed"
    )
    text = "\n".join(lines)
    print("\n" + text)
    write_report("fig_hetero", text, directory=out_dir())


def _smoke() -> int:
    """CI smoke: the whole figure once, floors enforced."""
    payload = _collect(SMOKE_SCALE_FACTOR)
    hybrid = payload["hybrid"]
    shed = payload["shed"]
    print(
        f"hetero smoke (SF {SMOKE_SCALE_FACTOR}): "
        f"{len(payload['queries'])} queries x3 modes; "
        f"hybrid win {hybrid['query']} {hybrid['vs_cpu']:.2f}x/"
        f"{hybrid['vs_gpu']:.2f}x (floor {HYBRID_FLOOR}x); "
        f"shed-to-cpu {shed['shed_to_cpu']}/{shed['total']}"
    )
    return finish_smoke("fig_hetero_smoke.json", payload, _floors(payload))


if __name__ == "__main__":
    smoke_main(lambda args: _smoke(), doc=__doc__)
