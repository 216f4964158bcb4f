"""Unit tests for the pipeline IR: lowering shapes, edge cases, rendering.

The IR (:mod:`repro.query.pipeline`) is the contract between the plan
tree and the compiled backend's runner: plans split at their breakers
(Join build, GroupBy merge, Sort) into fusable segments.  These tests pin
the lowering of the interesting shapes — single-operator pipelines,
back-to-back breakers (a Join build feeding a GroupBy merge), the TPC-H
query skeletons — plus the program's dependency validation and the
``explain_pipelines`` rendering.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import col_gt, col_lt
from repro.core.expr import col
from repro.errors import PlanError
from repro.query import (
    BuildSink,
    FilterStage,
    GroupBySink,
    LimitStage,
    Pipeline,
    PipelineProgram,
    PipelineSource,
    ProbeStage,
    ProjectStage,
    ResultSink,
    SortSink,
    TableSource,
    explain_pipelines,
    lower_plan,
    scan,
)
from repro.query.plan import Join, Scan
from repro.relational import Column, Table
from repro.tpch import TpchGenerator
from repro.tpch.queries import q1, q3, q6


@pytest.fixture
def catalog():
    n = 100
    orders = Table("orders", [
        Column.from_values("o_key", np.arange(n, dtype=np.int32)),
        Column.from_values("o_cust", (np.arange(n) % 10).astype(np.int32)),
        Column.from_values("o_total", np.linspace(0.0, 999.0, n)),
    ])
    customers = Table("customers", [
        Column.from_values("c_key", np.arange(10, dtype=np.int32)),
        Column.from_values("c_group", (np.arange(10) % 3).astype(np.int32)),
    ])
    return {"orders": orders, "customers": customers}


class TestSingleOperatorPipelines:
    def test_bare_scan_is_one_eager_pipeline(self, catalog):
        program = lower_plan(scan("orders").build(), catalog)
        assert len(program) == 1
        (p,) = program.pipelines
        assert p.pid == program.result_pid == 0
        assert p.source == TableSource("orders", None)
        assert p.stages == ()
        assert isinstance(p.sink, ResultSink)
        # A scan with nothing to fuse into it stays eager.
        assert not p.fusable
        assert p.operator_count == 0

    def test_single_filter_is_fusable(self, catalog):
        plan = scan("orders").filter(col_lt("o_total", 100.0)).build()
        program = lower_plan(plan, catalog)
        assert len(program) == 1
        (p,) = program.pipelines
        assert isinstance(p.stages[0], FilterStage)
        assert p.fusable
        assert p.operator_count == 1

    def test_bare_global_aggregate_is_fusable(self, catalog):
        """No row-local stages, but the partial aggregation itself rides
        inside the fused kernel — a GroupBySink alone qualifies."""
        plan = scan("orders").aggregate([("n", "count", None)]).build()
        program = lower_plan(plan, catalog)
        assert len(program) == 2
        first, result = program.pipelines
        assert first.stages == ()
        assert isinstance(first.sink, GroupBySink)
        assert first.fusable
        assert result.source == PipelineSource(0)
        assert not result.fusable  # fed by a breaker, stays eager

    def test_single_limit_annotates_without_fusing(self, catalog):
        program = lower_plan(scan("orders").limit(5).build(), catalog)
        (p,) = program.pipelines
        assert isinstance(p.stages[0], LimitStage)
        assert p.stages[0].plan.n == 5
        assert not p.fusable  # a limit alone is no work for a kernel


class TestLoweringShapes:
    def test_join_splits_build_then_probe(self, catalog):
        plan = (
            scan("orders")
            .join(scan("customers"), left_on="o_cust", right_on="c_key")
            .build()
        )
        program = lower_plan(plan, catalog)
        assert len(program) == 2
        build, probe = program.pipelines
        # Build side closes FIRST: the probe cannot start until it exists.
        assert build.source == TableSource("customers", None)
        assert isinstance(build.sink, BuildSink)
        assert probe.source == TableSource("orders", None)
        assert isinstance(probe.stages[0], ProbeStage)
        assert probe.stages[0].build_pid == build.pid == 0
        assert program.result_pid == probe.pid == 1

    def test_build_feeding_group_merge(self, catalog):
        """Back-to-back breakers: a probe pipeline that ends in a GroupBy
        merge — Join build and GroupBy merge sinks chained directly."""
        plan = (
            scan("orders")
            .join(scan("customers"), left_on="o_cust", right_on="c_key")
            .group_by(["c_group"], [("total", "sum", col("o_total"))])
            .build()
        )
        program = lower_plan(plan, catalog)
        assert [type(p.sink) for p in program.pipelines] == [
            BuildSink, GroupBySink, ResultSink,
        ]
        build, merge, result = program.pipelines
        assert isinstance(merge.stages[0], ProbeStage)
        assert merge.stages[0].build_pid == build.pid
        assert merge.fusable  # scan -> probe -> partial-agg fuses
        assert result.source == PipelineSource(merge.pid)

    def test_breaker_inside_build_side(self, catalog):
        """A group-by as the join's build side: the merge pipeline feeds
        the build pipeline, which feeds the probe."""
        right = scan("customers").group_by(
            ["c_key"], [("members", "count", None)]
        )
        plan = (
            scan("orders")
            .join(right, left_on="o_cust", right_on="c_key")
            .build()
        )
        program = lower_plan(plan, catalog)
        assert [type(p.sink) for p in program.pipelines] == [
            GroupBySink, BuildSink, ResultSink,
        ]
        merge, build, probe = program.pipelines
        assert build.source == PipelineSource(merge.pid)
        assert probe.stages[0].build_pid == build.pid

    def test_column_pruning_mirrors_executor(self, catalog):
        """The scan uploads predicate + aggregate columns only, and the
        filter's keep list drops the predicate-only columns after."""
        plan = (
            scan("orders")
            .filter(col_gt("o_key", 10))
            .aggregate([("total", "sum", col("o_total"))])
            .build()
        )
        program = lower_plan(plan, catalog)
        segment = program.pipelines[0]
        assert segment.source == TableSource("orders", ("o_key", "o_total"))
        assert segment.stages[0].keep == ("o_total",)

    def test_needed_seed_prunes_the_root(self, catalog):
        program = lower_plan(
            scan("orders").build(), catalog, needed=["o_total"]
        )
        assert program.pipelines[0].source == TableSource(
            "orders", ("o_total",)
        )


class TestTpchShapes:
    @pytest.fixture(scope="class")
    def tpch(self):
        return TpchGenerator(scale_factor=0.002, seed=11).generate()

    def test_q6_is_one_fused_segment_plus_result(self, tpch):
        program = lower_plan(q6.plan(), tpch)
        assert [type(p.sink) for p in program.pipelines] == [
            GroupBySink, ResultSink,
        ]
        assert program.pipelines[0].fusable

    def test_q1_adds_the_sort_breaker(self, tpch):
        program = lower_plan(q1.plan(), tpch)
        assert [type(p.sink) for p in program.pipelines] == [
            GroupBySink, SortSink, ResultSink,
        ]
        segment = program.pipelines[0]
        assert isinstance(segment.source, TableSource)
        assert any(isinstance(s, FilterStage) for s in segment.stages)

    def test_q3_chains_builds_probes_merge_sort(self, tpch):
        program = lower_plan(q3.plan(tpch), tpch)
        sinks = [type(p.sink) for p in program.pipelines]
        assert sinks.count(BuildSink) == 2  # two joins, two build sides
        assert sinks[-1] is ResultSink
        assert GroupBySink in sinks and SortSink in sinks
        probes = [
            s
            for p in program.pipelines
            for s in p.stages
            if isinstance(s, ProbeStage)
        ]
        assert len(probes) == 2
        for probe in probes:
            assert isinstance(
                program.pipelines[probe.build_pid].sink, BuildSink
            )


class TestValidation:
    def test_source_must_reference_earlier_pipeline(self):
        with pytest.raises(PlanError, match="later pipeline"):
            PipelineProgram(
                (
                    Pipeline(0, PipelineSource(1), (), ResultSink()),
                    Pipeline(1, TableSource("t"), (), ResultSink()),
                ),
                result_pid=0,
            )

    def test_probe_must_reference_earlier_build(self):
        join = Join(Scan("a"), Scan("b"), "x", "y")
        with pytest.raises(PlanError, match="later build"):
            PipelineProgram(
                (
                    Pipeline(
                        0,
                        TableSource("a"),
                        (ProbeStage(join, build_pid=0),),
                        ResultSink(),
                    ),
                ),
                result_pid=0,
            )

    def test_join_column_overlap_raises(self, catalog):
        clashing = Table("clashing", [
            Column.from_values("o_key", np.arange(4, dtype=np.int32)),
        ])
        catalog["clashing"] = clashing
        plan = (
            scan("orders")
            .join(scan("clashing"), left_on="o_key", right_on="o_key")
            .build()
        )
        with pytest.raises(PlanError, match="share column names"):
            lower_plan(plan, catalog)

    def test_unknown_table_raises(self, catalog):
        plan = (
            scan("nope")
            .join(scan("customers"), left_on="x", right_on="c_key")
            .build()
        )
        with pytest.raises(PlanError, match="unknown table"):
            lower_plan(plan, catalog)

    def test_lower_plan_needs_schema_source(self):
        with pytest.raises(TypeError, match="catalog"):
            lower_plan(scan("orders").build())


class TestExplain:
    def test_rendering_marks_segments_and_breakers(self, catalog):
        plan = (
            scan("orders")
            .filter(col_gt("o_total", 500.0))
            .join(scan("customers"), left_on="o_cust", right_on="c_key")
            .group_by(["c_group"], [("n", "count", None)])
            .order_by("n", descending=True)
            .limit(3)
            .build()
        )
        text = explain_pipelines(lower_plan(plan, catalog))
        assert "scan customers" in text
        assert "scan orders" in text
        assert "build[c_key]" in text
        assert "probe #0 on o_cust = c_key" in text
        assert "group-merge[c_group]" in text
        assert "sort[n desc]" in text
        assert "limit 3" in text
        # Exactly one result pipeline, starred.
        starred = [ln for ln in text.splitlines() if ln.startswith("*")]
        assert len(starred) == 1
        assert "[fusable]" in text and "[eager]" in text
