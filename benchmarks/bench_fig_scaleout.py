"""Fig. scaleout (new) — multi-GPU speedup curves and the exchange crossover.

Two experiments on the ``repro.distributed`` layer, both deterministic
(seeded catalog, simulated clocks):

* **speedup curves** — Q1, Q6, and Q3 at SF 0.1 on device groups of
  1/2/4/8 NVLink-connected GPUs, hash-partitioned on ``l_orderkey``.
  Q1/Q6 run partition-parallel scan + partial-aggregate merge; Q3 runs a
  shuffle-partitioned hash join.  The 1-device run must stay
  bit-identical to the plain serial executor (asserted with
  ``Table.equals``), and Q6 must reach >= 2.5x at 4 devices (asserted —
  per-device H2D and compute engines overlap across devices, so the
  scan-bound queries scale until per-query fixed costs dominate).
* **broadcast-vs-shuffle crossover** — the exchange cost model and the
  measured exchange operators over a sweep of build-side sizes against a
  fixed fact side that needs re-sharding.  Small builds replicate
  (broadcast), large builds shuffle a 1/N slice each; the chosen mode
  must flip exactly once as the build side grows (asserted).

Run directly with ``--smoke`` for the CI smoke job: a 2-device Q1/Q6/Q3
run differentially checked against the serial executor, metrics and the
floor rows it enforces saved to ``fig_scaleout_smoke.json`` under the
report directory.
"""


import numpy as np

from common import failed_floors, finish_smoke, out_dir, run_once, smoke_main
from repro.bench import write_report
from repro.core import default_framework
from repro.distributed import (
    Broadcast,
    DistributedExecutor,
    Shuffle,
    choose_exchange,
)
from repro.gpu import GTX_1080TI, Device, DeviceGroup
from repro.query import QueryExecutor
from repro.tpch import TpchGenerator
from repro.tpch.queries import q1, q3, q6

SCALE_FACTOR = 0.1
CATALOG_SEED = 2021
DEVICE_COUNTS = (1, 2, 4, 8)
PARTITION = "hash:l_orderkey"
BACKEND = "thrust"

#: Acceptance floors: Q6 speedup at >= 4 devices (the full sweep) and at
#: 2-3 devices (the smoke measures ~1.35x on 2).  Every other query, and
#: Q6 on fewer devices, must still be no slower than one device.
Q6_FLOOR_AT_4 = 2.5
Q6_FLOOR_AT_2 = 1.2


def _catalog(scale_factor=SCALE_FACTOR):
    return TpchGenerator(
        scale_factor=scale_factor, seed=CATALOG_SEED
    ).generate()


def _plans(catalog):
    return {"Q1": q1.plan(), "Q6": q6.plan(), "Q3": q3.plan(catalog)}


def _serial_table(catalog, plan):
    backend = default_framework().create(BACKEND, Device(GTX_1080TI))
    return QueryExecutor(backend, catalog).execute(plan).table


def _run(catalog, plan, devices, partition=PARTITION):
    group = DeviceGroup.of_size(devices)
    executor = DistributedExecutor(group, BACKEND, catalog, partition)
    return executor.execute(plan)


def _speedup_floor(name, devices):
    if name != "Q6" or devices < 2:
        return 1.0
    return Q6_FLOOR_AT_4 if devices >= 4 else Q6_FLOOR_AT_2


def _floors(payload):
    """One speedup-over-one-device row per query."""
    devices = payload["devices"]
    return [
        (
            f"{name} speedup on {devices} devices", row["speedup"], ">=",
            _speedup_floor(name, devices),
        )
        for name, row in payload["queries"].items()
    ]


def test_fig_scaleout_speedup(benchmark):
    catalog = _catalog()
    plans = _plans(catalog)

    def sweep():
        rows = {}
        for name, plan in plans.items():
            runs = {n: _run(catalog, plan, n) for n in DEVICE_COUNTS}
            rows[name] = runs
        return rows

    rows = run_once(benchmark, sweep)

    lines = [
        f"== Fig. scaleout: TPC-H SF {SCALE_FACTOR} on 1-8 simulated GPUs "
        f"(NVLink P2P, {PARTITION}, {BACKEND}) ==",
        f"{'query':>6}  {'devices':>7}  {'strategy':>18}  "
        f"{'makespan ms':>12}  {'speedup':>8}",
    ]
    speedups = {}
    for name, runs in rows.items():
        base = runs[1].report.makespan_seconds
        for n in DEVICE_COUNTS:
            report = runs[n].report
            speedup = base / report.makespan_seconds
            speedups[(name, n)] = speedup
            lines.append(
                f"{name:>6}  {n:7d}  {report.strategy:>18}  "
                f"{report.simulated_ms:12.3f}  {speedup:8.2f}x"
            )
    lines.append(
        f"-- Q6 at 4 devices: {speedups[('Q6', 4)]:.2f}x "
        f"(floor {Q6_FLOOR_AT_4:.1f}x) --"
    )
    text = "\n".join(lines)
    print("\n" + text)
    write_report("fig_scaleout", text, directory=out_dir())

    # Acceptance: the partitioned path degenerates to the serial executor
    # on one device — bit-identical output, not just close.
    for name, plan in plans.items():
        assert rows[name][1].table.equals(_serial_table(catalog, plan)), name
        assert rows[name][1].report.strategy == "single_device"
    # Acceptance: Q6 reaches its speedup floor at every device count
    # (2.5x from 4 devices on), no query is slower than one device, and
    # curves are monotone in the device count for the scan-bound queries.
    for n in DEVICE_COUNTS:
        payload = {
            "devices": n,
            "queries": {
                name: {"speedup": speedups[(name, n)]} for name in plans
            },
        }
        assert failed_floors(_floors(payload)) == [], n
    for name in ("Q1", "Q6"):
        for lo, hi in zip(DEVICE_COUNTS, DEVICE_COUNTS[1:]):
            assert speedups[(name, hi)] > speedups[(name, lo)], (name, hi)
    # Q3's join runs shuffle-partitioned on the co-located key.
    assert rows["Q3"][4].report.strategy == "shuffle_join"


#: Crossover sweep: build-side sizes against a fixed 64 MiB fact side
#: whose stored layout needs re-sharding onto the join key.
FACT_BYTES = 64 << 20
BUILD_SIZES = tuple((1 << 20) * (4 ** e) for e in range(5))  # 1 MiB..256 MiB
CROSSOVER_DEVICES = 4


def _measured_exchange(nbytes, devices, mode):
    """Wall time of the actual exchange operators on a fresh group."""
    group = DeviceGroup.of_size(devices)
    if mode == "broadcast":
        return Broadcast(nbytes).run(group)
    slice_bytes = nbytes // devices
    moved = [
        [0 if s == d else slice_bytes // devices for d in range(devices)]
        for s in range(devices)
    ]
    return Shuffle.from_matrix(moved).run(group)


def test_fig_scaleout_crossover(benchmark):
    def sweep():
        group = DeviceGroup.of_size(CROSSOVER_DEVICES)
        rows = []
        for build in BUILD_SIZES:
            choice = choose_exchange(
                group, build_bytes=build, fact_bytes=FACT_BYTES,
                reshard_required=True,
            )
            rows.append((
                build,
                choice,
                _measured_exchange(build, CROSSOVER_DEVICES, "broadcast"),
                _measured_exchange(build, CROSSOVER_DEVICES, "shuffle"),
            ))
        return rows

    rows = run_once(benchmark, sweep)

    lines = [
        "== Fig. scaleout-crossover: broadcast vs shuffle exchange, "
        f"{CROSSOVER_DEVICES} GPUs, fact side {FACT_BYTES >> 20} MiB "
        "(re-shard required) ==",
        f"{'build MiB':>10}  {'bcast model ms':>15}  "
        f"{'shuffle model ms':>17}  {'bcast meas ms':>14}  "
        f"{'shuffle meas ms':>16}  {'chosen':>9}",
    ]
    for build, choice, bcast_meas, shuf_meas in rows:
        lines.append(
            f"{build >> 20:10d}  {choice.broadcast_cost * 1e3:15.3f}  "
            f"{choice.shuffle_cost * 1e3:17.3f}  {bcast_meas * 1e3:14.3f}  "
            f"{shuf_meas * 1e3:16.3f}  {choice.mode:>9}"
        )
    modes = [choice.mode for _b, choice, _bm, _sm in rows]
    flip = modes.index("shuffle") if "shuffle" in modes else len(modes)
    lines.append(
        f"-- crossover between {BUILD_SIZES[max(flip - 1, 0)] >> 20} and "
        f"{BUILD_SIZES[min(flip, len(modes) - 1)] >> 20} MiB builds --"
    )
    text = "\n".join(lines)
    print("\n" + text)
    write_report("fig_scaleout_crossover", text, directory=out_dir())

    # Acceptance: small builds broadcast, large builds shuffle, and the
    # decision flips exactly once across the sweep.
    assert modes[0] == "broadcast" and modes[-1] == "shuffle", modes
    assert modes == ["broadcast"] * flip + ["shuffle"] * (len(modes) - flip)
    # The model tracks the measured operators' ordering at the extremes.
    assert rows[0][2] < rows[0][3] or rows[0][1].mode == "broadcast"
    assert rows[-1][3] < rows[-1][2]


def _smoke(devices: int) -> int:
    """CI smoke: tiny differential scale-out run, floors enforced."""
    catalog = _catalog(0.01)
    plans = _plans(catalog)
    payload = {"devices": devices, "queries": {}}
    for name, plan in plans.items():
        oracle = _serial_table(catalog, plan)
        base = _run(catalog, plan, 1)
        multi = _run(catalog, plan, devices)
        table = multi.table
        assert table.num_rows == oracle.num_rows, name
        for column in oracle.column_names:
            got = table.column(column).data
            want = oracle.column(column).data
            if got.dtype.kind == "f":
                assert np.allclose(got, want), (name, column)
            else:
                assert (got == want).all(), (name, column)
        assert base.table.equals(oracle), name
        payload["queries"][name] = {
            "strategy": multi.report.strategy,
            "makespan_ms_1": base.report.simulated_ms,
            "makespan_ms_n": multi.report.simulated_ms,
            "speedup": (
                base.report.makespan_seconds
                / multi.report.makespan_seconds
            ),
            "exchange_bytes": multi.report.exchange_bytes,
        }
    summary = ", ".join(
        f"{name} {row['speedup']:.2f}x"
        for name, row in payload["queries"].items()
    )
    print(f"scaleout smoke ({devices} devices): {summary}")
    return finish_smoke(
        "fig_scaleout_smoke.json", payload, _floors(payload)
    )


if __name__ == "__main__":
    smoke_main(
        lambda args: _smoke(args.devices),
        doc=__doc__,
        add_args=lambda parser: parser.add_argument(
            "--devices", type=int, default=2
        ),
    )
