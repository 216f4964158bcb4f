"""Executor edge cases: empty intermediates, type decoding, failure
injection, multi-query sessions."""

import datetime

import numpy as np
import pytest

from repro.core import col_eq, col_gt, col_lt
from repro.errors import DeviceMemoryError, PlanError
from repro.gpu import Device, INTEGRATED_GPU
from repro.query import QueryExecutor, scan
from repro.relational import Column, ColumnType, Table


@pytest.fixture
def catalog(rng):
    n = 1_000
    events = Table("events", [
        Column.from_values("id", np.arange(n, dtype=np.int32)),
        Column.from_values("value", rng.random(n)),
        Column("day", "date", rng.integers(0, 100, n).astype(np.int32)),
        Column.from_strings("kind", rng.choice(["x", "y"], n).tolist()),
    ])
    lookup = Table("lookup", [
        Column.from_values("key", np.arange(0, n, 2, dtype=np.int32)),
        Column.from_values("weight", rng.random(n // 2)),
    ])
    return {"events": events, "lookup": lookup}


class TestEmptyIntermediates:
    @pytest.mark.parametrize("backend_name", ["thrust", "arrayfire",
                                              "handwritten"])
    def test_empty_filter_result(self, catalog, framework, backend_name):
        executor = QueryExecutor(framework.create(backend_name), catalog)
        result = executor.execute(
            scan("events").filter(col_gt("value", 2.0)).build()
        )
        assert result.table.num_rows == 0

    def test_empty_filter_then_aggregate(self, catalog, framework):
        executor = QueryExecutor(framework.create("thrust"), catalog)
        result = executor.execute(
            scan("events")
            .filter(col_gt("value", 2.0))
            .aggregate([("total", "sum", "value"), ("n", "count", None)])
            .build()
        )
        assert result.table.column("total").data[0] == 0.0
        assert result.table.column("n").data[0] == 0

    def test_empty_filter_then_group_by(self, catalog, framework):
        executor = QueryExecutor(framework.create("thrust"), catalog)
        result = executor.execute(
            scan("events")
            .filter(col_gt("value", 2.0))
            .group_by(["kind"], [("n", "count", None)])
            .build()
        )
        assert result.table.num_rows == 0

    def test_empty_side_join(self, catalog, framework):
        executor = QueryExecutor(framework.create("thrust"), catalog)
        result = executor.execute(
            scan("events")
            .filter(col_gt("value", 2.0))
            .project(["id", "value"])
            .join(scan("lookup"), "id", "key")
            .build()
        )
        assert result.table.num_rows == 0


class TestTypeDecoding:
    def test_dates_survive_the_round_trip(self, catalog, framework):
        executor = QueryExecutor(framework.create("thrust"), catalog)
        result = executor.execute(
            scan("events").filter(col_lt("day", 10)).build()
        )
        decoded = result.table.column("day").to_values()
        assert all(isinstance(d, datetime.date) for d in decoded)
        assert all(d < datetime.date(1992, 4, 10) for d in decoded)

    def test_strings_survive_group_by(self, catalog, framework):
        executor = QueryExecutor(framework.create("arrayfire"), catalog)
        result = executor.execute(
            scan("events").group_by(["kind"], [("n", "count", None)]).build()
        )
        assert set(result.table.column("kind").to_values()) == {"x", "y"}
        assert result.table.column("kind").ctype is ColumnType.STRING

    def test_string_equality_predicate(self, catalog, framework):
        code = catalog["events"].column("kind").code_for("y")
        executor = QueryExecutor(framework.create("thrust"), catalog)
        result = executor.execute(
            scan("events").filter(col_eq("kind", code)).build()
        )
        assert set(result.table.column("kind").to_values()) == {"y"}

    def test_count_column_is_int64(self, catalog, framework):
        executor = QueryExecutor(framework.create("thrust"), catalog)
        result = executor.execute(
            scan("events").group_by(["kind"], [("n", "count", None)]).build()
        )
        assert result.table.column("n").ctype is ColumnType.INT64


class TestSessionBehaviour:
    def test_costs_accumulate_but_reports_are_per_query(
        self, catalog, framework
    ):
        executor = QueryExecutor(framework.create("thrust"), catalog)
        plan = scan("events").filter(col_lt("value", 0.5)).build()
        first = executor.execute(plan)
        second = executor.execute(plan)
        # The device clock keeps running, but each report isolates its own
        # query via profiler marks.
        assert second.report.simulated_seconds == pytest.approx(
            first.report.simulated_seconds, rel=0.05
        )

    def test_boost_program_cache_amortises_across_queries(
        self, catalog, framework
    ):
        executor = QueryExecutor(framework.create("boost.compute"), catalog)
        plan = scan("events").filter(col_lt("value", 0.5)).build()
        first = executor.execute(plan)
        second = executor.execute(plan)
        assert first.report.summary.compile_time > 0.0
        assert second.report.summary.compile_time == 0.0
        assert second.report.simulated_seconds < (
            0.2 * first.report.simulated_seconds
        )

    def test_different_executors_do_not_share_devices(self, catalog, framework):
        a = QueryExecutor(framework.create("thrust"), catalog)
        b = QueryExecutor(framework.create("thrust"), catalog)
        a.execute(scan("events").build())
        assert b.backend.device.clock.now == 0.0


class TestFailureInjection:
    def test_oom_on_small_device(self, framework):
        """An allocation bigger than device memory raises, with the sizes
        in the error (a column exceeding the 2 GB integrated device)."""
        backend = framework.create("thrust", Device(INTEGRATED_GPU))
        with pytest.raises(DeviceMemoryError) as excinfo:
            backend.device.allocate(3 * 1024**3, "too-big")
        assert excinfo.value.requested >= 3 * 1024**3

    def test_unknown_column_in_predicate(self, catalog, framework):
        executor = QueryExecutor(framework.create("thrust"), catalog)
        with pytest.raises(PlanError):
            executor.execute(
                scan("events").filter(col_lt("no_such_column", 1)).build()
            )

    def test_order_by_missing_column(self, catalog, framework):
        executor = QueryExecutor(framework.create("thrust"), catalog)
        with pytest.raises(PlanError):
            executor.execute(scan("events").order_by("nope").build())


class TestJoinAutoSelection:
    def test_auto_uses_hash_on_capable_backends(self, catalog, framework):
        for name in ("handwritten", "cudf"):
            backend = framework.create(name)
            executor = QueryExecutor(backend, catalog)
            executor.execute(
                scan("events")
                .project(["id", "value"])
                .join(scan("lookup"), "id", "key")
                .build()
            )
            kernel_names = {
                event.name for event in backend.device.profiler.events
                if event.kind == "kernel"
            }
            assert any("hash_probe" in k for k in kernel_names), name

    def test_auto_uses_merge_on_stl_backends(self, catalog, framework):
        backend = framework.create("thrust")
        executor = QueryExecutor(backend, catalog)
        executor.execute(
            scan("events")
            .project(["id", "value"])
            .join(scan("lookup"), "id", "key")
            .build()
        )
        kernel_names = {
            event.name for event in backend.device.profiler.events
            if event.kind == "kernel"
        }
        assert any("merge_join_expand" in k for k in kernel_names)

    def test_auto_falls_back_to_nlj_on_arrayfire(self, catalog, framework):
        backend = framework.create("arrayfire")
        executor = QueryExecutor(backend, catalog)
        executor.execute(
            scan("events")
            .project(["id", "value"])
            .join(scan("lookup"), "id", "key")
            .build()
        )
        kernel_names = {
            event.name for event in backend.device.profiler.events
            if event.kind == "kernel"
        }
        assert any("gfor_nlj" in k for k in kernel_names)

    def test_result_independent_of_algorithm(self, catalog, framework):
        results = {}
        for algorithm in ("nested_loop", "merge", "hash"):
            backend = framework.create("handwritten")
            executor = QueryExecutor(backend, catalog)
            result = executor.execute(
                scan("events")
                .project(["id", "value"])
                .join(scan("lookup"), "id", "key", algorithm=algorithm)
                .group_by(["key"], [("total", "sum", "value")])
                .build()
            )
            results[algorithm] = result.table
        assert results["nested_loop"].equals(results["merge"])
        assert results["merge"].equals(results["hash"])


class TestLimitPlacement:
    """A limit is applied when the result is materialised, so a limit
    that feeds any operator but a projection or another limit is
    refused at lowering instead of being silently ignored."""

    @pytest.fixture
    def orders(self):
        n = 100
        orders = Table("orders", [
            Column.from_values("o_key", np.arange(n, dtype=np.int32)),
            Column.from_values("o_cust", (np.arange(n) % 10).astype(np.int32)),
            Column.from_values("o_total", np.arange(n, dtype=np.float64)),
        ])
        customers = Table("customers", [
            Column.from_values("c_key", np.arange(10, dtype=np.int32)),
        ])
        return {"orders": orders, "customers": customers}

    BACKENDS = ("handwritten", "compiled", "thrust")
    #: One plan per operator a limit may not feed.
    REFUSED = {
        "aggregate": lambda: scan("orders").limit(5).aggregate(
            [("n", "count", None)]),
        "filter": lambda: scan("orders").limit(5).filter(
            col_gt("o_total", 50.0)),
        "join_probe": lambda: scan("orders").limit(5).join(
            scan("customers"), "o_cust", "c_key"),
        "join_build": lambda: scan("customers").join(
            scan("orders").limit(5), "c_key", "o_cust"),
        "order_by": lambda: scan("orders").limit(5).order_by(
            "o_total", descending=True),
    }

    @pytest.mark.parametrize("shape", REFUSED)
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_limit_below_another_operator_is_refused(
        self, orders, framework, backend_name, shape
    ):
        executor = QueryExecutor(framework.create(backend_name), orders)
        with pytest.raises(PlanError, match="limit 5 feeds"):
            executor.execute(self.REFUSED[shape]().build())

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_limit_under_projections_and_limits(
        self, orders, framework, backend_name
    ):
        executor = QueryExecutor(framework.create(backend_name), orders)
        result = executor.execute(
            scan("orders").limit(5).project(["o_total"]).limit(3).build()
        )
        assert result.table.column("o_total").data.tolist() == [0.0, 1.0, 2.0]
