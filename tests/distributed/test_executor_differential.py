"""Differential matrix: partitioned plans vs the single-device oracle.

Every (query, partitioner, device-count) combination must produce the
same table as the plain serial executor — distribution is never allowed
to change results, only to re-price them.  Floats are compared with
``allclose`` (partial-aggregate summation order differs), everything
else exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.expr import col
from repro.distributed import DistributedExecutor
from repro.gpu import GTX_1080TI, Device, DeviceGroup
from repro.query import QueryExecutor
from repro.query.plan import Aggregate, GroupBy, Scan
from repro.relational.column import Column
from repro.relational.table import Table
from repro.relational.types import ColumnType
from repro.tpch.queries import q1, q3, q4, q6

QUERIES = {
    "q1": lambda catalog: q1.plan(),
    "q6": lambda catalog: q6.plan(),
    "q3": lambda catalog: q3.plan(catalog),
    "q4": lambda catalog: q4.plan(),
}
PARTITIONS = ("hash:l_orderkey", "range:l_orderkey", "round_robin")
DEVICE_COUNTS = (1, 2, 4)


def _serial(framework, catalog, plan, backend="thrust"):
    device = Device(GTX_1080TI)
    return QueryExecutor(
        framework.create(backend, device), catalog
    ).execute(plan).table


def _distributed(framework, catalog, plan, partition, devices,
                 backend="thrust"):
    group = DeviceGroup.of_size(devices)
    executor = DistributedExecutor(
        group, backend, catalog, partition, framework=framework
    )
    return executor.execute(plan)


def _assert_close(got: Table, want: Table, context) -> None:
    assert got.num_rows == want.num_rows, context
    assert got.column_names == want.column_names, context
    for name in want.column_names:
        a, b = got.column(name).data, want.column(name).data
        if a.dtype.kind == "f":
            assert np.allclose(a, b), (context, name)
        else:
            assert (a == b).all(), (context, name)


@pytest.mark.parametrize("devices", DEVICE_COUNTS)
@pytest.mark.parametrize("partition", PARTITIONS)
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_matrix_matches_serial_oracle(
    framework, tpch_catalog, query, partition, devices
):
    plan = QUERIES[query](tpch_catalog)
    want = _serial(framework, tpch_catalog, plan)
    result = _distributed(
        framework, tpch_catalog, plan, partition, devices
    )
    context = (query, partition, devices, result.report.strategy)
    _assert_close(result.table, want, context)
    if devices == 1:
        # One device degenerates to the serial path: bit-identical.
        assert result.table.equals(want), context
        assert result.report.strategy == "single_device"
    else:
        assert result.report.strategy != "single_device", context


@pytest.mark.parametrize("backend", ("arrayfire", "boost.compute",
                                     "thrust", "handwritten"))
@pytest.mark.parametrize("query", ("q6", "q3"))
def test_every_backend_agrees_with_its_own_serial_run(
    framework, tpch_catalog, backend, query
):
    plan = QUERIES[query](tpch_catalog)
    want = _serial(framework, tpch_catalog, plan, backend=backend)
    result = _distributed(
        framework, tpch_catalog, plan, "hash:l_orderkey", 2,
        backend=backend,
    )
    _assert_close(result.table, want, (backend, query))


def test_q1_matches_the_numpy_reference(framework, tpch_catalog):
    result = _distributed(
        framework, tpch_catalog, q1.plan(), "hash:l_orderkey", 4
    )
    for column, expected in q1.reference(tpch_catalog).items():
        got = np.asarray(result.table.column(column).data,
                         dtype=np.float64)
        assert np.allclose(
            got, np.asarray(expected, dtype=np.float64)
        ), column


# -- edge cases: shards that end up empty or carry everything ----------------


def _tiny_catalog(keys) -> dict:
    data = np.asarray(keys, dtype=np.int64)
    return {"t": Table("t", [
        Column("k", ColumnType.INT64, data),
        Column("v", ColumnType.FLOAT64,
               np.linspace(1.0, 2.0, len(data))),
    ])}


def _keyed_plan() -> GroupBy:
    return GroupBy(
        Scan("t"), ("k",),
        (Aggregate("total", "sum", col("v")),
         Aggregate("n", "count", None)),
    )


@pytest.mark.parametrize("partition", ("hash:k", "range:k", "round_robin"))
def test_more_devices_than_rows_leaves_shards_empty(framework, partition):
    catalog = _tiny_catalog([3, 1, 2])
    want = _serial(framework, catalog, _keyed_plan())
    result = _distributed(framework, catalog, _keyed_plan(), partition, 4)
    _assert_close(result.table, want, partition)
    # Only non-empty shards participated.
    assert result.report.devices_used <= 3


@pytest.mark.parametrize("devices", (2, 4))
def test_skewed_keys_put_every_row_on_one_shard(framework, devices):
    # 100% of rows share one key: hash partitioning drives all work to a
    # single device and the rest sit the query out — results unchanged.
    catalog = _tiny_catalog([7] * 64)
    want = _serial(framework, catalog, _keyed_plan())
    result = _distributed(
        framework, catalog, _keyed_plan(), "hash:k", devices
    )
    _assert_close(result.table, want, devices)
    assert result.report.devices_used == 1
    assert result.report.per_device[0].shard_rows == 64


@pytest.mark.parametrize("partition", ("hash:id", "range:id", "round_robin"))
def test_unsorted_key_dictionary_keeps_code_order(framework, partition):
    """Shards share the key dictionary: the merge keeps the codes, so the
    groups come out in the serial run's code order, not word order."""
    n = 1_000
    catalog = {"t": Table("t", [
        Column("id", ColumnType.INT64, np.arange(n, dtype=np.int64)),
        Column.from_codes("k", np.arange(n) % 2, ["zeta", "alpha"]),
    ])}
    plan = GroupBy(
        Scan("t"), ("k",),
        (Aggregate("total", "sum", col("id")),
         Aggregate("n", "count", None)),
    )
    want = _serial(framework, catalog, plan)
    result = _distributed(framework, catalog, plan, partition, 2)
    assert result.report.strategy == "partition_parallel"
    assert want.column("k").to_values() == ["zeta", "alpha"]
    assert result.table.equals(want), partition


def test_empty_table_still_executes(framework):
    catalog = _tiny_catalog([])
    want = _serial(framework, catalog, _keyed_plan())
    result = _distributed(
        framework, catalog, _keyed_plan(), "round_robin", 2
    )
    _assert_close(result.table, want, "empty")
    assert result.report.devices_used == 1
