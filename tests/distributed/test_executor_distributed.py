"""Distributed executor: strategies, exchange choice, and recovery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.expr import col
from repro.distributed import DistributedExecutor
from repro.gpu import GTX_1080TI, Device, DeviceGroup
from repro.query import QueryExecutor
from repro.query.builder import scan
from repro.query.plan import Aggregate, GroupBy, Join, Scan
from repro.relational.column import Column
from repro.relational.table import Table
from repro.relational.types import ColumnType
from repro.tpch.queries import q1, q3, q4, q6

BACKEND = "thrust"


def _serial(framework, catalog, plan):
    backend = framework.create(BACKEND, Device(GTX_1080TI))
    return QueryExecutor(backend, catalog).execute(plan).table


def _executor(framework, catalog, devices, partition, **kwargs):
    group = DeviceGroup.of_size(devices)
    return group, DistributedExecutor(
        group, BACKEND, catalog, partition, framework=framework, **kwargs
    )


def _assert_close(got: Table, want: Table) -> None:
    assert got.num_rows == want.num_rows
    assert got.column_names == want.column_names
    for name in want.column_names:
        a, b = got.column(name).data, want.column(name).data
        if a.dtype.kind == "f":
            assert np.allclose(a, b), name
        else:
            assert (a == b).all(), name


class TestFallbacks:
    def test_one_device_is_bit_identical_to_serial(
        self, framework, tpch_catalog
    ):
        _group, executor = _executor(
            framework, tpch_catalog, 1, "hash:l_orderkey"
        )
        result = executor.execute(q1.plan())
        assert result.report.strategy == "single_device"
        assert result.report.reason == "one device in the group"
        assert result.table.equals(
            _serial(framework, tpch_catalog, q1.plan())
        )

    def test_ineligible_plan_falls_back_with_reason(
        self, framework, tpch_catalog
    ):
        plan = scan("orders").order_by("o_orderkey").limit(5).build()
        _group, executor = _executor(
            framework, tpch_catalog, 2, "round_robin"
        )
        result = executor.execute(plan)
        assert result.report.strategy == "single_device"
        assert "no aggregation" in result.report.reason
        assert result.table.equals(
            _serial(framework, tpch_catalog, plan)
        )


class TestStrategies:
    def test_q1_runs_partition_parallel(self, framework, tpch_catalog):
        _group, executor = _executor(
            framework, tpch_catalog, 2, "hash:l_orderkey"
        )
        result = executor.execute(q1.plan())
        report = result.report
        assert report.strategy == "partition_parallel"
        assert report.devices_used == 2
        assert sum(s.shard_rows for s in report.per_device) == (
            tpch_catalog["lineitem"].num_rows
        )
        assert report.makespan_seconds > 0.0
        assert report.exchange_bytes == 0
        assert report.merge_bytes > 0
        _assert_close(
            result.table, _serial(framework, tpch_catalog, q1.plan())
        )

    def test_q3_copartitioned_shuffle_join_moves_nothing(
        self, framework, tpch_catalog
    ):
        plan = q3.plan(tpch_catalog)
        _group, executor = _executor(
            framework, tpch_catalog, 2, "hash:l_orderkey"
        )
        result = executor.execute(plan)
        assert result.report.strategy == "shuffle_join"
        # Stored layout already matches the join key: no re-shard copies.
        assert result.report.exchange_bytes == 0
        assert result.report.exchange_choice is not None
        assert not result.report.exchange_choice.reshard_required
        _assert_close(result.table, _serial(framework, tpch_catalog, plan))

    def test_q3_range_partitioning_broadcasts(self, framework, tpch_catalog):
        plan = q3.plan(tpch_catalog)
        _group, executor = _executor(
            framework, tpch_catalog, 2, "range:l_orderkey"
        )
        result = executor.execute(plan)
        assert result.report.strategy == "broadcast_join"
        _assert_close(result.table, _serial(framework, tpch_catalog, plan))

    def test_q4_round_robin_must_shuffle_and_reshard(
        self, framework, tpch_catalog
    ):
        # round_robin scatters the EXISTS group-by, so broadcast is
        # unsound; the executor re-shards the fact side instead of
        # falling back to one device.
        plan = q4.plan()
        _group, executor = _executor(
            framework, tpch_catalog, 2, "round_robin"
        )
        result = executor.execute(plan)
        assert result.report.strategy == "shuffle_join"
        assert result.report.exchange_bytes > 0
        assert result.report.exchange_seconds > 0.0
        _assert_close(result.table, _serial(framework, tpch_catalog, plan))


def _join_catalog(build_rows: int):
    """A fact/build pair for the exchange cost-model flip.

    The fact side is stored partitioned on its group column ``g`` (not
    the join key), so a shuffle join must re-shard it; the build side's
    size is the experiment's knob.
    """
    rng = np.random.default_rng(11)
    fact_rows = 40_000
    fact = Table("fact", [
        Column("fk", ColumnType.INT64,
               rng.integers(0, build_rows, fact_rows).astype(np.int64)),
        Column("g", ColumnType.INT64,
               rng.integers(0, 8, fact_rows).astype(np.int64)),
        Column("v", ColumnType.FLOAT64, rng.random(fact_rows)),
    ])
    build = Table("build", [
        Column("bk", ColumnType.INT64,
               np.arange(build_rows, dtype=np.int64)),
    ])
    plan = GroupBy(
        Join(Scan("fact"), Scan("build"), "fk", "bk"),
        ("g",),
        (Aggregate("total", "sum", col("v")),),
    )
    return {"fact": fact, "build": build}, plan


class TestCostBasedExchange:
    @pytest.mark.parametrize(
        "build_rows, strategy",
        [(512, "broadcast_join"), (262_144, "shuffle_join")],
        ids=["small-build-broadcasts", "large-build-shuffles"],
    )
    def test_choice_flips_with_build_size(
        self, framework, build_rows, strategy
    ):
        catalog, plan = _join_catalog(build_rows)
        _group, executor = _executor(framework, catalog, 4, "hash:g")
        result = executor.execute(plan)
        assert result.report.strategy == strategy
        choice = result.report.exchange_choice
        assert choice is not None and choice.reshard_required
        _assert_close(result.table, _serial(framework, catalog, plan))


class TestResilienceAndMerge:
    def test_oom_on_one_shard_recovers_locally(
        self, framework, tpch_catalog
    ):
        group, executor = _executor(
            framework, tpch_catalog, 2, "round_robin"
        )
        group[1].inject_faults(oom_at_alloc=4)
        result = executor.execute(q6.plan())
        by_device = {s.device: s.report for s in result.report.per_device}
        assert by_device[1].oom_recovery_chunks is not None
        assert by_device[0].oom_recovery_chunks is None
        _assert_close(
            result.table, _serial(framework, tpch_catalog, q6.plan())
        )
