"""Chunked scan execution: equivalence, fallback, and repeatability.

The acceptance bar for the streams PR is two-sided: chunked execution
must *overlap* (covered by ``benchmarks/bench_fig_overlap.py``), and it
must be *safe* — a single chunk on a single stream reproduces the
pre-stream serial timeline bit-for-bit, multiple chunks reproduce the
same rows, and ineligible plans silently fall back to the whole-table
path.  This file pins all of that down, plus the clock-hygiene property
that two identical queries back-to-back report identical simulated
durations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import default_framework
from repro.core.expr import col
from repro.core.predicate import col_lt
from repro.query import (
    QueryExecutor,
    chunk_bounds,
    chunkable_table,
    slice_table,
)
from repro.query.builder import scan
from repro.query.executor import PlanError
from repro.relational.column import Column
from repro.relational.table import Table
from repro.relational.types import ColumnType


def _catalog(n: int = 50_000, seed: int = 7):
    rng = np.random.default_rng(seed)
    lineitem = Table.from_arrays(
        "lineitem",
        {
            "l_quantity": rng.integers(1, 51, n).astype(np.float64),
            "l_extendedprice": rng.uniform(900.0, 105_000.0, n),
            "l_discount": rng.uniform(0.0, 0.1, n),
        },
    )
    nation = Table.from_arrays(
        "nation",
        {"n_key": np.arange(25, dtype=np.int64)},
    )
    return {"lineitem": lineitem, "nation": nation}


def _selection_plan():
    return (
        scan("lineitem")
        .filter(col_lt("l_quantity", 40.0))
        .project(
            [
                ("l_extendedprice", col("l_extendedprice")),
                ("revenue", col("l_extendedprice") * col("l_discount")),
            ]
        )
        .build()
    )


def _q6_plan():
    return (
        scan("lineitem")
        .filter(col_lt("l_quantity", 24.0))
        .aggregate(
            [("revenue", "sum", col("l_extendedprice") * col("l_discount"))]
        )
        .build()
    )


def _executor(catalog, **kwargs) -> QueryExecutor:
    return QueryExecutor(default_framework().create("thrust"), catalog, **kwargs)


def _keyed_plan():
    """Keyed group-by with every combinable kind, wrapped in an OrderBy."""
    return (
        scan("lineitem")
        .filter(col_lt("l_quantity", 40.0))
        .group_by(
            ["l_quantity"],
            [
                ("total", "sum", "l_extendedprice"),
                ("avg_disc", "avg", "l_discount"),
                ("lo", "min", "l_extendedprice"),
                ("hi", "max", "l_extendedprice"),
                ("n", "count", None),
            ],
        )
        .order_by("l_quantity")
        .build()
    )


class TestSerialEquivalence:
    def test_one_chunk_one_stream_is_bit_exact(self):
        """The acceptance criterion: scan_chunks=1 reproduces the pre-PR
        serial path's rows AND its simulated duration bit-for-bit."""
        catalog = _catalog()
        for plan in (_selection_plan(), _q6_plan()):
            serial = _executor(catalog).execute(plan)
            chunked = _executor(catalog, scan_chunks=1, scan_streams=1).execute(plan)
            assert serial.report.simulated_seconds == chunked.report.simulated_seconds
            assert chunked.table.column_names == serial.table.column_names
            for name in serial.table.column_names:
                assert np.array_equal(
                    chunked.table.column(name).data,
                    serial.table.column(name).data,
                )

    def test_multi_chunk_selection_rows_are_identical(self):
        """Row-local plans re-concatenate to exactly the serial rows."""
        catalog = _catalog()
        serial = _executor(catalog).execute(_selection_plan())
        for chunks in (2, 4, 7):
            chunked = _executor(catalog, scan_chunks=chunks).execute(
                _selection_plan()
            )
            assert chunked.table.num_rows == serial.table.num_rows
            for name in serial.table.column_names:
                assert np.array_equal(
                    chunked.table.column(name).data,
                    serial.table.column(name).data,
                )

    def test_multi_chunk_aggregate_matches_to_float_tolerance(self):
        """Chunked float sums re-associate, so allclose — not bit-equal."""
        catalog = _catalog()
        serial = _executor(catalog).execute(_q6_plan())
        for chunks in (2, 8):
            chunked = _executor(catalog, scan_chunks=chunks).execute(_q6_plan())
            assert np.allclose(
                chunked.table.column("revenue").data,
                serial.table.column("revenue").data,
                rtol=1e-12,
            )

    def test_multi_chunk_runs_on_multiple_streams(self):
        catalog = _catalog()
        executor = _executor(catalog, scan_chunks=4, scan_streams=2)
        executor.execute(_selection_plan())
        streams = {
            event.payload["stream"]
            for event in executor.backend.device.profiler.events
            if "stream" in event.payload
        }
        assert len(streams) >= 2


class TestFallback:
    """Ineligible plans take the ordinary whole-table path unchanged."""

    @pytest.mark.parametrize(
        "plan_builder",
        [
            pytest.param(
                lambda: scan("lineitem")
                .join(scan("nation"), left_on="l_quantity", right_on="n_key")
                .build(),
                id="join",
            ),
            pytest.param(
                lambda: scan("lineitem").order_by("l_extendedprice").build(),
                id="order_by",
            ),
            pytest.param(
                lambda: scan("lineitem")
                .join(scan("nation"), left_on="l_quantity", right_on="n_key")
                .group_by(["n_key"], [("n", "count", None)])
                .build(),
                id="keyed_group_by_over_join",
            ),
            pytest.param(
                lambda: scan("lineitem").limit(10).build(),
                id="limit",
            ),
            pytest.param(
                lambda: scan("lineitem")
                .aggregate([("m", "avg", col("l_discount"))])
                .build(),
                id="avg_aggregate",
            ),
        ],
    )
    def test_ineligible_plans_match_unchunked_execution(self, plan_builder):
        catalog = _catalog(n=2_000)
        plan = plan_builder()
        serial = _executor(catalog).execute(plan)
        chunked = _executor(catalog, scan_chunks=4).execute(plan)
        # Fallback *is* the normal path: identical rows and identical cost.
        assert chunked.report.simulated_seconds == serial.report.simulated_seconds
        assert chunked.table.column_names == serial.table.column_names
        for name in serial.table.column_names:
            assert np.array_equal(
                chunked.table.column(name).data,
                serial.table.column(name).data,
            )

    def test_keyed_group_by_falls_back_at_one_chunk(self):
        """scan_chunks=1 promises the exact un-chunked operator sequence,
        which the keyed host-combine path cannot honour — so it defers."""
        catalog = _catalog(n=2_000)
        plan = _keyed_plan()
        serial = _executor(catalog).execute(plan)
        chunked = _executor(catalog, scan_chunks=1).execute(plan)
        assert chunked.report.simulated_seconds == serial.report.simulated_seconds
        for name in serial.table.column_names:
            assert np.array_equal(
                chunked.table.column(name).data,
                serial.table.column(name).data,
            )

    def test_global_avg_runs_whole_table_even_at_one_chunk(self):
        """A global avg has no partial form, so even one chunk on one
        stream leaves it to the whole-table path — at the same cost."""
        plan = (
            scan("lineitem")
            .aggregate([("m", "avg", col("l_discount"))])
            .build()
        )
        assert chunkable_table(plan) is None
        catalog = _catalog(n=2_000)
        serial = _executor(catalog).execute(plan)
        executor = _executor(catalog, scan_chunks=1, scan_streams=1)
        chunked = executor.execute(plan)
        assert chunked.report.simulated_seconds == serial.report.simulated_seconds
        assert np.array_equal(
            chunked.table.column("m").data, serial.table.column("m").data
        )
        streams = {
            event.payload.get("stream")
            for event in executor.backend.device.profiler.events
        }
        assert streams <= {None, 0}  # the legacy default stream only

    def test_validation_rejects_bad_chunk_counts(self):
        catalog = _catalog(n=100)
        backend = default_framework().create("thrust")
        with pytest.raises(PlanError):
            QueryExecutor(backend, catalog, scan_chunks=0)
        with pytest.raises(PlanError):
            QueryExecutor(backend, catalog, scan_chunks=2, scan_streams=0)


class TestChunkHelpers:
    def test_chunk_bounds_cover_exactly_and_balance(self):
        bounds = chunk_bounds(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1

    def test_chunk_bounds_clamp_to_row_count(self):
        assert chunk_bounds(2, 8) == [(0, 1), (1, 2)]

    def test_chunk_bounds_empty_table_yields_one_empty_range(self):
        assert chunk_bounds(0, 4) == [(0, 0)]

    def test_chunk_bounds_reject_nonpositive_chunks(self):
        with pytest.raises(ValueError):
            chunk_bounds(10, 0)

    def test_slice_table_full_range_is_identity(self):
        table = _catalog(n=64)["lineitem"]
        copy = slice_table(table, 0, table.num_rows)
        for name in table.column_names:
            assert np.array_equal(
                copy.column(name).data, table.column(name).data
            )

    def test_slice_table_takes_half_open_range(self):
        table = _catalog(n=64)["lineitem"]
        part = slice_table(table, 8, 24)
        assert part.num_rows == 16
        assert np.array_equal(
            part.column("l_quantity").data,
            table.column("l_quantity").data[8:24],
        )

    def test_chunkable_table_accepts_filter_project_chains(self):
        assert chunkable_table(_selection_plan()) == "lineitem"
        assert chunkable_table(_q6_plan()) == "lineitem"

    def test_chunkable_table_accepts_keyed_group_by_with_wrappers(self):
        plan = (
            scan("lineitem")
            .group_by(["l_quantity"], [("n", "count", None)])
            .order_by("l_quantity")
            .limit(5)
            .build()
        )
        assert chunkable_table(plan) == "lineitem"

    def test_chunkable_table_rejects_wrappers_over_non_grouped_plans(self):
        assert chunkable_table(
            scan("lineitem").order_by("l_quantity").build()
        ) is None
        assert chunkable_table(scan("lineitem").limit(10).build()) is None

    def test_chunkable_table_rejects_keyed_group_by_over_join(self):
        plan = (
            scan("lineitem")
            .join(scan("nation"), left_on="l_quantity", right_on="n_key")
            .group_by(["n_key"], [("n", "count", None)])
            .build()
        )
        assert chunkable_table(plan) is None


class TestKeyedGroupByChunks:
    """Keyed group-bys chunk via the host combine step (>= 2 chunks)."""

    @pytest.mark.parametrize("chunks", [2, 5])
    def test_rows_match_serial_to_float_tolerance(self, chunks):
        catalog = _catalog(n=10_000)
        serial = _executor(catalog).execute(_keyed_plan())
        chunked = _executor(catalog, scan_chunks=chunks).execute(_keyed_plan())
        assert chunked.table.column_names == serial.table.column_names
        # Keys, counts, and min/max are exact; sums and avgs re-associate.
        for name in ("l_quantity", "n", "lo", "hi"):
            assert np.array_equal(
                chunked.table.column(name).data,
                serial.table.column(name).data,
            )
        for name in ("total", "avg_disc"):
            assert np.allclose(
                chunked.table.column(name).data,
                serial.table.column(name).data,
                rtol=1e-12,
            )

    def test_avg_without_count_strips_the_helper_column(self):
        catalog = _catalog(n=4_000)
        plan = (
            scan("lineitem")
            .group_by(["l_quantity"], [("avg_price", "avg", "l_extendedprice")])
            .build()
        )
        serial = _executor(catalog).execute(plan)
        chunked = _executor(catalog, scan_chunks=3).execute(plan)
        assert chunked.table.column_names == serial.table.column_names
        assert np.array_equal(
            chunked.table.column("l_quantity").data,
            serial.table.column("l_quantity").data,
        )
        assert np.allclose(
            chunked.table.column("avg_price").data,
            serial.table.column("avg_price").data,
            rtol=1e-12,
        )

    def test_limit_applies_after_the_combined_sort(self):
        catalog = _catalog(n=4_000)
        plan = (
            scan("lineitem")
            .group_by(["l_quantity"], [("n", "count", None)])
            .order_by("l_quantity", descending=True)
            .limit(3)
            .build()
        )
        serial = _executor(catalog).execute(plan)
        chunked = _executor(catalog, scan_chunks=4).execute(plan)
        assert chunked.table.num_rows == serial.table.num_rows == 3
        for name in serial.table.column_names:
            assert np.array_equal(
                chunked.table.column(name).data,
                serial.table.column(name).data,
            )


class TestDictionaryKeys:
    def test_unsorted_key_dictionary_keeps_code_order(self):
        """Chunks share the key dictionary, so the merge must keep the
        codes — and the whole-table path's code order — as they are."""
        n = 1_000
        catalog = {"t": Table("t", [
            Column.from_codes("k", np.arange(n) % 2, ["zeta", "alpha"]),
            Column("v", ColumnType.INT64, np.arange(n, dtype=np.int64)),
        ])}
        plan = (
            scan("t")
            .group_by(["k"], [("total", "sum", "v"), ("n", "count", None)])
            .build()
        )
        serial = _executor(catalog).execute(plan).table
        chunked = _executor(catalog, scan_chunks=2).execute(plan).table
        assert serial.column("k").to_values() == ["zeta", "alpha"]
        assert chunked.equals(serial)


class TestRepeatability:
    """Clock hygiene: no state leaks between consecutive executions."""

    @pytest.mark.parametrize("kwargs", [
        pytest.param({}, id="serial"),
        pytest.param({"scan_chunks": 4, "scan_streams": 2}, id="chunked"),
    ])
    def test_back_to_back_runs_report_identical_durations(self, kwargs):
        """With a device reset between them — as the test fixtures do —
        two identical queries report bit-identical simulated durations:
        reset clears the clock, engines, barrier, AND stream cursors."""
        catalog = _catalog(n=20_000)
        executor = _executor(catalog, **kwargs)
        first = executor.execute(_selection_plan())
        executor.backend.device.reset()
        second = executor.execute(_selection_plan())
        executor.backend.device.reset()
        third = executor.execute(_selection_plan())
        assert first.report.simulated_seconds == second.report.simulated_seconds
        assert second.report.simulated_seconds == third.report.simulated_seconds

    @pytest.mark.parametrize("kwargs", [
        pytest.param({}, id="serial"),
        pytest.param({"scan_chunks": 4, "scan_streams": 2}, id="chunked"),
    ])
    def test_runs_without_reset_agree_to_rounding(self, kwargs):
        """Without a reset the timeline keeps extending from a nonzero
        base, so absolute end-minus-start subtraction may round one ULP
        differently — but the schedule itself must not drift (the device
        synchronisation floor stops later runs from scheduling work in
        the past)."""
        catalog = _catalog(n=20_000)
        executor = _executor(catalog, **kwargs)
        first = executor.execute(_selection_plan())
        second = executor.execute(_selection_plan())
        assert second.report.simulated_seconds == pytest.approx(
            first.report.simulated_seconds, rel=1e-12
        )

    def test_fresh_devices_reproduce_durations(self):
        catalog = _catalog(n=20_000)
        first = _executor(catalog, scan_chunks=4).execute(_selection_plan())
        second = _executor(catalog, scan_chunks=4).execute(_selection_plan())
        assert first.report.simulated_seconds == second.report.simulated_seconds


class TestKeyedGroupByChunkEdgeCases:
    """Degenerate chunk shapes must recombine oracle-exact."""

    def _plan(self, threshold: float = 40.0):
        return (
            scan("lineitem")
            .filter(col_lt("l_quantity", threshold))
            .group_by(
                ["l_quantity"],
                [
                    ("total", "sum", "l_extendedprice"),
                    ("n", "count", None),
                    ("lo", "min", "l_extendedprice"),
                ],
            )
            .order_by("l_quantity")
            .build()
        )

    def _assert_matches_serial(self, catalog, plan, chunks):
        serial = _executor(catalog).execute(plan)
        chunked = _executor(catalog, scan_chunks=chunks).execute(plan)
        assert chunked.table.column_names == serial.table.column_names
        assert chunked.table.num_rows == serial.table.num_rows
        for name in ("l_quantity", "n", "lo"):
            assert np.array_equal(
                chunked.table.column(name).data,
                serial.table.column(name).data,
            )
        assert np.allclose(
            chunked.table.column("total").data,
            serial.table.column("total").data,
            rtol=1e-12,
        )
        return chunked

    @pytest.mark.parametrize("chunks", [2, 3])
    def test_chunk_whose_filter_removes_every_row(self, chunks):
        """The first chunk's rows all fail the predicate (an empty
        partial result) — the host combine must still produce exactly
        the surviving groups."""
        n = 6_000
        quantity = np.concatenate([
            np.full(n // 2, 100.0),          # chunk 1: filtered out entirely
            np.tile(np.arange(1.0, 31.0), n // 60),  # survivors
        ])
        catalog = {
            "lineitem": Table.from_arrays("lineitem", {
                "l_quantity": quantity,
                "l_extendedprice": np.linspace(900.0, 1000.0, n),
            })
        }
        result = self._assert_matches_serial(catalog, self._plan(), chunks)
        assert result.table.num_rows == 30

    def test_every_chunk_filtered_empty(self):
        """No chunk survives the predicate: an empty grouped result."""
        catalog = {
            "lineitem": Table.from_arrays("lineitem", {
                "l_quantity": np.full(4_000, 100.0),
                "l_extendedprice": np.linspace(900.0, 1000.0, 4_000),
            })
        }
        result = self._assert_matches_serial(catalog, self._plan(), 4)
        assert result.table.num_rows == 0

    @pytest.mark.parametrize("chunks", [1, 2, 3])
    def test_one_row_table(self, chunks):
        """A 1-row table: chunk_bounds clamps to a single chunk and the
        combine path degenerates to the identity."""
        catalog = {
            "lineitem": Table.from_arrays("lineitem", {
                "l_quantity": np.asarray([5.0]),
                "l_extendedprice": np.asarray([1234.5]),
            })
        }
        result = self._assert_matches_serial(catalog, self._plan(), chunks)
        assert result.table.num_rows == 1
        assert result.table.column("total").data[0] == pytest.approx(1234.5)
        assert result.table.column("n").data[0] == 1

    def test_one_row_table_filtered_out(self):
        catalog = {
            "lineitem": Table.from_arrays("lineitem", {
                "l_quantity": np.asarray([99.0]),
                "l_extendedprice": np.asarray([1.0]),
            })
        }
        result = self._assert_matches_serial(catalog, self._plan(), 2)
        assert result.table.num_rows == 0
