"""Integration tests for the query executor across backends."""

import numpy as np
import pytest

from repro.core import col_eq, col_gt, col_lt
from repro.core.expr import col, lit
from repro.errors import PlanError
from repro.query import QueryExecutor, scan
from repro.relational import Column, Table


@pytest.fixture
def catalog(rng):
    n = 4_000
    orders = Table("orders", [
        Column.from_values("o_key", np.arange(n, dtype=np.int32)),
        Column.from_values(
            "o_cust", rng.integers(0, 500, n).astype(np.int32)
        ),
        Column.from_values("o_total", rng.random(n) * 1000),
        Column.from_strings(
            "o_status", rng.choice(["A", "B", "C"], n).tolist()
        ),
    ])
    customers = Table("customers", [
        Column.from_values("c_key", np.arange(500, dtype=np.int32)),
        Column.from_values(
            "c_group", rng.integers(0, 5, 500).astype(np.int32)
        ),
    ])
    return {"orders": orders, "customers": customers}


@pytest.fixture
def executor(catalog, any_backend):
    return QueryExecutor(any_backend, catalog)


class TestScanProjectFilter:
    def test_scan_all_columns(self, executor, catalog):
        result = executor.execute(scan("orders").build())
        assert result.table.num_rows == catalog["orders"].num_rows
        assert result.table.column_names == catalog["orders"].column_names

    def test_unknown_table(self, executor):
        with pytest.raises(PlanError):
            executor.execute(scan("nope").build())

    def test_filter_matches_numpy(self, executor, catalog):
        result = executor.execute(
            scan("orders").filter(col_lt("o_total", 100.0)).build()
        )
        expected = catalog["orders"].column("o_total").data < 100.0
        assert result.table.num_rows == int(expected.sum())

    def test_string_predicate_via_codes(self, executor, catalog):
        code = catalog["orders"].column("o_status").code_for("B")
        result = executor.execute(
            scan("orders").filter(col_eq("o_status", code)).build()
        )
        assert set(result.table.column("o_status").to_values()) == {"B"}

    def test_projection_passthrough_and_derived(self, executor, catalog):
        result = executor.execute(
            scan("orders")
            .project(["o_key", ("double_total", col("o_total") * 2.0)])
            .build()
        )
        assert result.table.column_names == ["o_key", "double_total"]
        assert np.allclose(
            result.table.column("double_total").data,
            catalog["orders"].column("o_total").data * 2.0,
        )

    def test_filter_then_project(self, executor, catalog):
        result = executor.execute(
            scan("orders")
            .filter(col_gt("o_total", 500.0))
            .project([("v", col("o_total") + 1.0)])
            .build()
        )
        expected = catalog["orders"].column("o_total").data
        expected = expected[expected > 500.0] + 1.0
        assert np.allclose(np.sort(result.table.column("v").data),
                           np.sort(expected))

    def test_scan_uploads_only_needed_columns(self, catalog, framework):
        backend = framework.create("thrust")
        executor = QueryExecutor(backend, catalog)
        executor.execute(
            scan("orders")
            .filter(col_lt("o_total", 100.0))
            .project([("t", col("o_total"))])
            .build()
        )
        uploaded = {
            e.name for e in backend.device.profiler.events
            if e.kind == "transfer_h2d" and e.name.startswith("orders.")
        }
        assert uploaded == {"orders.o_total"}


class TestOrderByLimit:
    def test_order_by_ascending(self, executor, catalog):
        result = executor.execute(
            scan("orders").order_by("o_total").build()
        )
        values = result.table.column("o_total").data
        assert np.all(values[:-1] <= values[1:])

    def test_order_by_descending_with_limit(self, executor, catalog):
        result = executor.execute(
            scan("orders").order_by("o_total", descending=True).limit(5).build()
        )
        assert result.table.num_rows == 5
        top = np.sort(catalog["orders"].column("o_total").data)[-5:][::-1]
        assert np.allclose(result.table.column("o_total").data, top)

    def test_order_by_carries_other_columns(self, executor, catalog):
        result = executor.execute(
            scan("orders").order_by("o_total").limit(1).build()
        )
        source = catalog["orders"]
        smallest = int(np.argmin(source.column("o_total").data))
        assert result.table.column("o_key").data[0] == smallest

    def test_limit_zero(self, executor):
        result = executor.execute(scan("orders").limit(0).build())
        assert result.table.num_rows == 0


class TestGroupBy:
    def test_global_aggregation(self, executor, catalog):
        result = executor.execute(
            scan("orders")
            .aggregate([
                ("total", "sum", "o_total"),
                ("n", "count", None),
                ("biggest", "max", "o_total"),
            ])
            .build()
        )
        data = catalog["orders"].column("o_total").data
        assert result.table.column("total").data[0] == pytest.approx(data.sum())
        assert result.table.column("n").data[0] == len(data)
        assert result.table.column("biggest").data[0] == pytest.approx(
            data.max()
        )

    def test_single_key_group(self, executor, catalog):
        result = executor.execute(
            scan("orders")
            .group_by(["o_cust"], [("total", "sum", "o_total")])
            .build()
        )
        keys = catalog["orders"].column("o_cust").data
        values = catalog["orders"].column("o_total").data
        expected_keys, inverse = np.unique(keys, return_inverse=True)
        expected = np.bincount(inverse, weights=values)
        assert np.array_equal(
            result.table.column("o_cust").data, expected_keys
        )
        assert np.allclose(result.table.column("total").data, expected)

    def test_multi_key_group(self, executor, catalog):
        result = executor.execute(
            scan("orders")
            .group_by(
                ["o_status", "o_cust"],
                [("n", "count", None)],
            )
            .build()
        )
        orders = catalog["orders"]
        pairs = set(
            zip(
                orders.column("o_status").to_values(),
                orders.column("o_cust").data.tolist(),
            )
        )
        assert result.table.num_rows == len(pairs)
        assert int(result.table.column("n").data.sum()) == orders.num_rows
        # Decoded key columns must reproduce actual (status, cust) pairs.
        got_pairs = set(
            zip(
                result.table.column("o_status").to_values(),
                result.table.column("o_cust").data.tolist(),
            )
        )
        assert got_pairs == pairs

    @pytest.mark.parametrize("backend_name", ["handwritten", "compiled"])
    def test_composite_key_strides_span_the_whole_table_column(
        self, framework, catalog, backend_name, monkeypatch
    ):
        """Each stride is the scanned table column's max + 1, also when a
        filter removed every row holding that max."""
        from repro.query import runner

        original = runner.composite_key_expr
        strides = []

        def recording(keys, meta):
            expr, key_strides = original(keys, meta)
            strides.append(key_strides)
            return expr, key_strides

        monkeypatch.setattr(runner, "composite_key_expr", recording)
        orders = catalog["orders"]
        cust_max = int(orders.column("o_cust").data.max())
        status_max = int(orders.column("o_status").data.max())
        result = QueryExecutor(framework.create(backend_name), catalog).execute(
            scan("orders")
            .filter(col_lt("o_cust", cust_max))
            .group_by(["o_status", "o_cust"], [("n", "count", None)])
            .build()
        )
        assert result.table.column("o_cust").data.max() < cust_max
        assert strides == [[status_max + 1, cust_max + 1]]

    def test_group_by_derived_value(self, executor, catalog):
        result = executor.execute(
            scan("orders")
            .group_by(
                ["o_cust"],
                [("v", "sum", col("o_total") * (lit(1.0) + lit(0.1)))],
            )
            .build()
        )
        keys = catalog["orders"].column("o_cust").data
        values = catalog["orders"].column("o_total").data * 1.1
        _expected_keys, inverse = np.unique(keys, return_inverse=True)
        expected = np.bincount(inverse, weights=values)
        assert np.allclose(result.table.column("v").data, expected)

    def test_order_by_after_group_by(self, executor):
        result = executor.execute(
            scan("orders")
            .group_by(["o_cust"], [("total", "sum", "o_total")])
            .order_by("total", descending=True)
            .limit(3)
            .build()
        )
        totals = result.table.column("total").data
        assert np.all(totals[:-1] >= totals[1:])
        assert result.table.num_rows == 3


class TestJoins:
    def test_join_gathers_both_sides(self, executor, catalog):
        result = executor.execute(
            scan("orders")
            .join(scan("customers"), "o_cust", "c_key")
            .project(["o_key", "c_group"])
            .build()
        )
        # Every order's customer exists, so the join preserves all rows.
        assert result.table.num_rows == catalog["orders"].num_rows

    def test_join_then_group(self, executor, catalog):
        result = executor.execute(
            scan("orders")
            .join(scan("customers"), "o_cust", "c_key")
            .group_by(["c_group"], [("total", "sum", "o_total")])
            .build()
        )
        orders = catalog["orders"]
        groups = catalog["customers"].column("c_group").data
        per_order_group = groups[orders.column("o_cust").data]
        expected_keys, inverse = np.unique(per_order_group, return_inverse=True)
        expected = np.bincount(
            inverse, weights=orders.column("o_total").data
        )
        assert np.array_equal(
            result.table.column("c_group").data, expected_keys
        )
        assert np.allclose(result.table.column("total").data, expected)

    def test_duplicate_column_names_rejected(self, executor, catalog):
        plan = (
            scan("orders").join(scan("orders"), "o_cust", "o_key").build()
        )
        with pytest.raises(PlanError):
            executor.execute(plan)

    def test_join_algorithm_hash_fails_on_libraries(self, catalog, framework):
        from repro.errors import UnsupportedOperatorError

        executor = QueryExecutor(framework.create("thrust"), catalog)
        plan = (
            scan("orders")
            .join(scan("customers"), "o_cust", "c_key", algorithm="hash")
            .build()
        )
        with pytest.raises(UnsupportedOperatorError):
            executor.execute(plan)


class TestReports:
    def test_report_contains_costs(self, catalog, framework):
        executor = QueryExecutor(framework.create("thrust"), catalog)
        result = executor.execute(
            scan("orders").filter(col_lt("o_total", 100.0)).build()
        )
        report = result.report
        assert report.backend == "thrust"
        assert report.simulated_seconds > 0.0
        assert report.summary.kernel_count > 0
        assert report.peak_device_bytes > 0
        assert set(report.breakdown()) == {"kernel", "transfer", "compile"}
        assert report.simulated_ms == pytest.approx(
            report.simulated_seconds * 1e3
        )

    def test_cpu_reference_costs_nothing(self, catalog, framework):
        executor = QueryExecutor(framework.create("cpu-reference"), catalog)
        result = executor.execute(scan("orders").build())
        assert result.report.simulated_seconds == 0.0


class TestCompositeKeyGuard:
    def test_derived_column_rejected_as_later_group_key(
        self, catalog, framework
    ):
        from repro.core.expr import col

        executor = QueryExecutor(framework.create("thrust"), catalog)
        plan = (
            scan("orders")
            .project([
                "o_cust",
                ("bucket", col("o_total") / 100.0),
            ])
            .group_by(["o_cust", "bucket"], [("n", "count", None)])
            .build()
        )
        with pytest.raises(PlanError, match="no known value bound"):
            executor.execute(plan)

    def test_derived_column_allowed_as_first_group_key(
        self, catalog, framework
    ):
        from repro.core.expr import col

        executor = QueryExecutor(framework.create("thrust"), catalog)
        plan = (
            scan("orders")
            .project([
                "o_cust",
                ("flag", col("o_total") * 0.0),
            ])
            .group_by(["flag", "o_cust"], [("n", "count", None)])
            .build()
        )
        result = executor.execute(plan)
        assert result.table.num_rows > 0
