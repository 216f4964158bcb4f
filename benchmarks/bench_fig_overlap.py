"""Fig. overlap (new) — chunked scans vs. the max(transfer, compute) bound.

A Q6-style selection that *materialises* its qualifying rows moves data
across PCIe in both directions: column uploads (H2D), selection + gather
kernels (compute), and the filtered result download (D2H).  Executed
serially those three phases add up; executed in chunks on rotating
streams they pipeline, so the makespan approaches the busiest single
engine — the classic CUDA-streams overlap figure.

The sweep varies chunk count at several input sizes.  One chunk on one
stream reproduces the serial timeline bit-exactly (asserted); at the
largest input the best chunked configuration must beat serial by >= 1.3x
(acceptance floor; the measured curve peaks around 8 chunks and dips
again at 16 as per-chunk fixed costs — PCIe latency, kernel launches —
start to dominate).
"""

import numpy as np

from common import out_dir, run_once
from repro.bench import write_report
from repro.core import default_framework
from repro.core.expr import col
from repro.core.predicate import col_lt
from repro.gpu import Device
from repro.query import QueryExecutor
from repro.query.builder import scan
from repro.relational.table import Table

#: Rows in the synthetic lineitem sample, smallest to largest.
ROW_COUNTS = (100_000, 400_000, 1_600_000)

#: (chunks, streams) configurations swept at every size; (1, 1) is the
#: serial-equivalence control.
CONFIGS = ((1, 1), (2, 2), (4, 3), (8, 3), (16, 3))


def _lineitem_sample(n: int, seed: int = 42) -> Table:
    """A Q6-shaped lineitem sample: the three columns Q6's predicate and
    revenue expression touch, with TPC-H-like value distributions."""
    rng = np.random.default_rng(seed)
    return Table.from_arrays(
        "lineitem",
        {
            "l_quantity": rng.integers(1, 51, n).astype(np.float64),
            "l_extendedprice": rng.uniform(900.0, 105_000.0, n),
            "l_discount": rng.uniform(0.0, 0.1, n),
        },
    )


def _selection_plan():
    """Q6-style selection materialising qualifying rows (~78% pass
    ``l_quantity < 40``), so all three engines carry real traffic."""
    return (
        scan("lineitem")
        .filter(col_lt("l_quantity", 40))
        .project(
            [
                ("l_extendedprice", col("l_extendedprice")),
                ("l_discount", col("l_discount")),
                ("revenue", col("l_extendedprice") * col("l_discount")),
            ]
        )
        .build()
    )


def _measure(framework, catalog, chunks=None, streams=2):
    backend = framework.create("thrust", Device())
    executor = QueryExecutor(
        backend, catalog, scan_chunks=chunks, scan_streams=streams
    )
    result = executor.execute(_selection_plan())
    stats = backend.device.engine_summary()
    return result, stats


def test_fig_overlap_chunk_sweep(benchmark):
    framework = default_framework()

    def sweep():
        rows = {}
        for n in ROW_COUNTS:
            catalog = {"lineitem": _lineitem_sample(n)}
            serial, _ = _measure(framework, catalog)
            per_config = {}
            for chunks, streams in CONFIGS:
                result, stats = _measure(framework, catalog, chunks, streams)
                per_config[(chunks, streams)] = (result, stats)
            rows[n] = (serial, per_config)
        return rows

    rows = run_once(benchmark, sweep)

    lines = [
        "== Fig. overlap: chunked Q6-style selection vs serial "
        "(simulated ms, thrust) ==",
        f"{'rows':>10}  {'serial':>10}  " + "  ".join(
            f"{f'{c}ch/{s}st':>10}" for c, s in CONFIGS
        ) + f"  {'best':>6}  {'bound':>6}",
    ]
    for n, (serial, per_config) in rows.items():
        serial_ms = serial.report.simulated_ms
        cells = []
        best = serial_ms
        bound_ms = 0.0
        for key in CONFIGS:
            result, stats = per_config[key]
            ms = result.report.simulated_ms
            best = min(best, ms)
            bound_ms = max(bound_ms, max(stats.busy_by_engine.values()) * 1e3)
            cells.append(f"{ms:10.4f}")
        lines.append(
            f"{n:10d}  {serial_ms:10.4f}  " + "  ".join(cells)
            + f"  {serial_ms / best:5.2f}x  {serial_ms / bound_ms:5.2f}x"
        )
    text = "\n".join(lines)
    print("\n" + text)
    write_report("fig_overlap", text, directory=out_dir())

    for n, (serial, per_config) in rows.items():
        # Semantics are chunking-invariant: same rows out of every config.
        expected = serial.table
        for (chunks, streams), (result, _stats) in per_config.items():
            assert result.table.num_rows == expected.num_rows, (n, chunks)
            assert np.allclose(
                result.table.column("revenue").data,
                expected.column("revenue").data,
            ), (n, chunks)
        # The serial-equivalence control: 1 chunk / 1 stream is bit-exact.
        control, _ = per_config[(1, 1)]
        assert control.report.simulated_seconds == serial.report.simulated_seconds

    # Acceptance: at the largest input the best chunked configuration
    # beats serial by at least 1.3x and never beats the busiest-engine
    # (max of transfer/compute) lower bound.
    largest = ROW_COUNTS[-1]
    serial, per_config = rows[largest]
    serial_s = serial.report.simulated_seconds
    best_s = min(
        result.report.simulated_seconds for result, _ in per_config.values()
    )
    assert serial_s / best_s >= 1.3, serial_s / best_s
    for (chunks, streams), (result, stats) in per_config.items():
        bound = max(stats.busy_by_engine.values())
        assert result.report.simulated_seconds >= bound or chunks == 1
