"""Distribution-eligibility analysis over real and synthetic plans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.expr import col
from repro.distributed import PartitionSpec, analyze
from repro.distributed.planner import colocated
from repro.query.plan import (
    Aggregate,
    GroupBy,
    Join,
    Limit,
    OrderBy,
    Scan,
)
from repro.relational.column import Column
from repro.relational.table import Table
from repro.relational.types import ColumnType
from repro.tpch.queries import q1, q3, q4, q6

HASH_ORDERKEY = PartitionSpec("hash", "l_orderkey")
ROUND_ROBIN = PartitionSpec("round_robin")


def _table(name: str, columns, num_rows: int = 8) -> Table:
    return Table(name, [
        Column(c, ColumnType.INT64, np.arange(num_rows, dtype=np.int64))
        for c in columns
    ])


class TestTpchPlans:
    def test_q1_is_partition_parallel(self, tpch_catalog):
        decision = analyze(q1.plan(), tpch_catalog, HASH_ORDERKEY)
        assert decision.eligible
        assert decision.sharded_table == "lineitem"
        assert decision.split.keyed
        assert decision.replicated == ()
        assert decision.join_exchange is None
        assert "no join" in decision.shuffle_reason

    def test_q6_global_aggregate_is_eligible(self, tpch_catalog):
        decision = analyze(q6.plan(), tpch_catalog, ROUND_ROBIN)
        assert decision.eligible
        assert not decision.split.keyed
        assert decision.split.wrappers == ()

    def test_q3_exposes_a_shuffle_exchange(self, tpch_catalog):
        decision = analyze(q3.plan(tpch_catalog), tpch_catalog,
                           HASH_ORDERKEY)
        assert decision.eligible
        assert decision.sharded_table == "lineitem"
        assert decision.broadcast_sound
        assert decision.join_exchange is not None
        assert decision.join_exchange.fact_key == "l_orderkey"
        assert decision.join_exchange.build_table == "orders"
        assert decision.join_exchange.build_key == "o_orderkey"

    def test_q4_round_robin_distributes_only_via_shuffle(self, tpch_catalog):
        # Q4's decorrelated EXISTS puts a GroupBy below the merge point;
        # round_robin scatters its groups, so broadcast is unsound, but
        # re-sharding on the join key restores colocation.
        decision = analyze(q4.plan(), tpch_catalog, ROUND_ROBIN)
        assert decision.eligible
        assert not decision.broadcast_sound
        assert decision.join_exchange is not None
        assert decision.inner_group_keys  # the EXISTS group-by was seen

    def test_q4_hash_on_orderkey_allows_both_modes(self, tpch_catalog):
        decision = analyze(q4.plan(), tpch_catalog, HASH_ORDERKEY)
        assert decision.eligible
        assert decision.broadcast_sound
        assert decision.join_exchange is not None


class TestIneligiblePlans:
    def test_no_top_aggregation(self, tpch_catalog):
        decision = analyze(Scan("lineitem"), tpch_catalog, ROUND_ROBIN)
        assert not decision.eligible
        assert "no aggregation" in decision.reason

    def test_global_avg_has_no_partial_form(self, tpch_catalog):
        plan = GroupBy(
            Scan("lineitem"), (),
            (Aggregate("mean_qty", "avg", col("l_quantity")),),
        )
        decision = analyze(plan, tpch_catalog, ROUND_ROBIN)
        assert not decision.eligible
        assert "avg" in decision.reason

    def test_wrappers_above_global_aggregate(self, tpch_catalog):
        plan = Limit(OrderBy(GroupBy(
            Scan("lineitem"), (),
            (Aggregate("n", "count", None),),
        ), "n"), 1)
        decision = analyze(plan, tpch_catalog, ROUND_ROBIN)
        assert not decision.eligible

    def test_unknown_table(self, tpch_catalog):
        plan = GroupBy(Scan("nope"), (), (Aggregate("n", "count", None),))
        decision = analyze(plan, tpch_catalog, ROUND_ROBIN)
        assert not decision.eligible
        assert "unknown tables: nope" in decision.reason

    def test_partition_column_absent(self, tpch_catalog):
        decision = analyze(
            q1.plan(), tpch_catalog, PartitionSpec("hash", "no_such")
        )
        assert not decision.eligible
        assert "not a column" in decision.reason

    def test_partition_column_ambiguous(self):
        catalog = {
            "a": _table("a", ["k", "x"]),
            "b": _table("b", ["k", "y"]),
        }
        plan = GroupBy(
            Join(Scan("a"), Scan("b"), "x", "y"),
            ("k",), (Aggregate("n", "count", None),),
        )
        decision = analyze(plan, catalog, PartitionSpec("hash", "k"))
        assert not decision.eligible
        assert "ambiguous" in decision.reason

    def test_self_join_cannot_shard(self):
        catalog = {"a": _table("a", ["k"])}
        plan = GroupBy(
            Join(Scan("a"), Scan("a"), "k", "k"),
            (), (Aggregate("n", "count", None),),
        )
        decision = analyze(plan, catalog, ROUND_ROBIN)
        assert not decision.eligible
        assert "scanned more than once" in decision.reason

    def test_uncolocated_inner_group_by_without_join(self):
        # A GroupBy below the merge point with no join above it: round
        # robin breaks its groups and no shuffle can repair that.
        catalog = {"a": _table("a", ["k", "v"])}
        plan = GroupBy(
            GroupBy(
                Scan("a"), ("k",),
                (Aggregate("per_key", "count", None),),
            ),
            (), (Aggregate("n", "count", None),),
        )
        decision = analyze(plan, catalog, ROUND_ROBIN)
        assert not decision.eligible
        assert "colocate" in decision.reason


class TestColocated:
    def test_hash_on_a_member_column_colocates(self):
        keys = (frozenset({"k", "j"}),)
        assert colocated(PartitionSpec("hash", "k"), keys)
        assert colocated(PartitionSpec("range", "j"), keys)
        assert not colocated(PartitionSpec("hash", "other"), keys)
        assert not colocated(PartitionSpec("round_robin"), keys)

    def test_empty_key_sets_are_trivially_colocated(self):
        assert colocated(PartitionSpec("round_robin"), ())
