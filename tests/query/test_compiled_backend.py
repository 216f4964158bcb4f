"""The compiled fused-pipeline backend: bit-identity, cost events, cache.

The contract under test (ISSUE 6 acceptance criteria):

* every fusion mode (``auto``/``on``/``off``) produces tables
  **bit-identical** to the eager ``handwritten`` baseline — the fused
  path recomputes values with the same NumPy semantics, so only the cost
  events may differ;
* with fusion **off** the runner replays the eager executor's exact
  kernel sequence (same events, ``compiled::`` namespace);
* fused segments appear as single ``FUSED[...]`` kernels after a one-time
  JIT-codegen charge that the program cache elides on reuse;
* the fused path composes with chunked scans and with OOM recovery;
* the optimizer's :func:`~repro.query.optimizer.fusion_decision` knows
  the two loss cases (tiny inputs; narrow predicate guarding a wide
  payload).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompiledBackend, FUSION_MODES, default_framework
from repro.core.expr import col
from repro.core.predicate import col_gt, col_lt
from repro.gpu import Device, GTX_1080TI
from repro.query import (
    PipelineRunner,
    QueryExecutor,
    fusion_decision,
    lower_plan,
    scan,
)
from repro.tpch import TpchGenerator
from repro.tpch.queries import q1, q3, q6


def _assert_tables_identical(actual, expected):
    assert actual.column_names == expected.column_names
    assert actual.num_rows == expected.num_rows
    for name in expected.column_names:
        a = actual.column(name).data
        b = expected.column(name).data
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def _catalog(rng):
    n = 3_000
    from repro.relational import Column, Table

    orders = Table("orders", [
        Column.from_values("o_key", np.arange(n, dtype=np.int32)),
        Column.from_values("o_cust", rng.integers(0, 200, n).astype(np.int32)),
        Column.from_values("o_total", rng.random(n) * 1000),
        Column.from_values("o_qty", rng.integers(1, 50, n).astype(np.int32)),
    ])
    customers = Table("customers", [
        Column.from_values("c_key", np.arange(200, dtype=np.int32)),
        Column.from_values("c_group", rng.integers(0, 5, 200).astype(np.int32)),
    ])
    return {"orders": orders, "customers": customers}


@pytest.fixture
def catalog(rng):
    return _catalog(rng)


def _plans(catalog):
    """A plan per pipeline shape (filter/project, join, keyed group-by,
    global aggregate, sort + limit, back-to-back breakers)."""
    return {
        "filter_project": (
            scan("orders")
            .filter(col_gt("o_total", 250.0))
            .project([("o_key", col("o_key")),
                      ("v", col("o_total") * 1.1)])
            .build()
        ),
        "join": (
            scan("orders")
            .join(scan("customers"), left_on="o_cust", right_on="c_key")
            .build()
        ),
        "keyed_group_by": (
            scan("orders")
            .filter(col_lt("o_total", 700.0))
            .group_by(
                ["o_cust"],
                [("total", "sum", col("o_total")),
                 ("n", "count", None),
                 ("m", "max", col("o_qty"))],
            )
            .build()
        ),
        "global_agg": (
            scan("orders")
            .filter(col_gt("o_qty", 10))
            .aggregate([("revenue", "sum", col("o_total") * col("o_qty")),
                        ("n", "count", None)])
            .build()
        ),
        "sort_limit": (
            scan("orders")
            .filter(col_gt("o_total", 900.0))
            .order_by("o_total", descending=True)
            .limit(7)
            .build()
        ),
        "join_then_group": (
            scan("orders")
            .join(scan("customers"), left_on="o_cust", right_on="c_key")
            .group_by(["c_group"], [("total", "sum", col("o_total"))])
            .order_by("c_group")
            .build()
        ),
    }


def _compiled(fusion="auto", spec=GTX_1080TI, allocator="null"):
    return CompiledBackend(
        Device(spec, allocator=allocator), fusion=fusion
    )


def _handwritten():
    return default_framework().create("handwritten")


class TestRegistration:
    def test_framework_registers_compiled(self):
        framework = default_framework()
        assert "compiled" in framework
        backend = framework.create("compiled")
        assert isinstance(backend, CompiledBackend)
        assert backend.fusion == "auto"
        assert backend.supports_fused_pipelines

    def test_unknown_fusion_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown fusion mode"):
            CompiledBackend(Device(), fusion="sometimes")


class TestBitIdentity:
    @pytest.mark.parametrize("fusion", FUSION_MODES)
    def test_all_shapes_match_handwritten(self, catalog, fusion):
        baseline = QueryExecutor(_handwritten(), catalog)
        compiled = QueryExecutor(_compiled(fusion), catalog)
        for name, plan in _plans(catalog).items():
            expected = baseline.execute(plan).table
            actual = compiled.execute(plan).table
            _assert_tables_identical(actual, expected)

    @pytest.mark.parametrize("fusion", ("on", "off"))
    def test_tpch_queries_match_handwritten(self, fusion):
        tpch = TpchGenerator(scale_factor=0.002, seed=11).generate()
        baseline = QueryExecutor(_handwritten(), tpch)
        compiled = QueryExecutor(_compiled(fusion), tpch)
        for plan in (q1.plan(), q6.plan(), q3.plan(tpch)):
            _assert_tables_identical(
                compiled.execute(plan).table, baseline.execute(plan).table
            )


class TestFusedEvents:
    def _event_names(self, backend):
        return [e.name for e in backend.device.profiler.events]

    def test_fused_segment_is_one_kernel(self, catalog):
        backend = _compiled("on")
        QueryExecutor(backend, catalog).execute(
            _plans(catalog)["filter_project"]
        )
        names = self._event_names(backend)
        fused = [n for n in names if n.startswith("compiled::FUSED[")]
        assert len(fused) == 1
        # The whole segment rides in the one kernel's name.
        assert "scan orders" in fused[0]
        assert "filter" in fused[0]
        assert "project" in fused[0]
        assert "stream-out" in fused[0]
        # No eager per-operator kernels for the fused segment.
        assert not any("selection" in n for n in names)

    def test_codegen_charged_once_per_signature(self, catalog):
        backend = _compiled("on")
        executor = QueryExecutor(backend, catalog)
        plan = _plans(catalog)["keyed_group_by"]
        cold = executor.execute(plan).report
        assert cold.breakdown()["compile"] > 0.0
        assert backend.cached_programs == 1
        warm = executor.execute(plan).report
        assert warm.breakdown()["compile"] == 0.0
        assert backend.cached_programs == 1
        # Identical tables either way (the cache changes cost only).
        _assert_tables_identical(
            executor.execute(plan).table, executor.execute(plan).table
        )

    @pytest.mark.parametrize("shape", list(_plans(catalog=None)))
    def test_fusion_off_replays_eager_kernel_sequence(self, catalog, shape):
        """fusion="off" must be the eager executor byte for byte: same
        event sequence, only the library namespace differs."""
        plan = _plans(catalog)[shape]
        eager = _handwritten()
        QueryExecutor(eager, catalog).execute(plan)
        compiled = _compiled("off")
        QueryExecutor(compiled, catalog).execute(plan)

        def suffixes(backend):
            return [
                (e.kind, e.name.split("::", 1)[-1], e.duration)
                for e in backend.device.profiler.events
            ]

        assert suffixes(compiled) == suffixes(eager)
        assert compiled.cached_programs == 0

    def test_fused_q6_is_cheaper_than_eager(self):
        """The point of the exercise: one DRAM pass beats the chain."""
        tpch = TpchGenerator(scale_factor=0.01, seed=11).generate()
        on = QueryExecutor(_compiled("on"), tpch).execute(q6.plan()).report
        off = QueryExecutor(_compiled("off"), tpch).execute(q6.plan()).report
        assert on.breakdown()["kernel"] < off.breakdown()["kernel"]


class TestAutoMode:
    def test_auto_fuses_the_large_tpch_segment(self):
        tpch = TpchGenerator(scale_factor=0.002, seed=11).generate()
        backend = _compiled("auto")
        runner = PipelineRunner(backend, tpch)
        segment = lower_plan(q6.plan(), tpch).pipelines[0]
        decision = runner.decide(segment)
        assert decision.fuse
        assert decision.fused_seconds < decision.eager_seconds

    def test_auto_stays_eager_when_fusion_saves_nothing(self, catalog):
        """Loss case 1: a passthrough projection neither saves launches
        nor bytes, so the (amortised) codegen share tips the decision —
        the segment is fusable but auto mode keeps it eager."""
        backend = _compiled("auto")
        runner = PipelineRunner(backend, catalog)
        plan = scan("orders").project([("k", col("o_key"))]).build()
        segment = lower_plan(plan, catalog).pipelines[0]
        assert segment.fusable
        decision = runner.decide(segment)
        assert not decision.fuse
        assert decision.fused_seconds > decision.eager_seconds

    def test_auto_matches_forced_modes_bitwise(self, catalog):
        plan = _plans(catalog)["join_then_group"]
        auto = QueryExecutor(_compiled("auto"), catalog).execute(plan).table
        on = QueryExecutor(_compiled("on"), catalog).execute(plan).table
        _assert_tables_identical(auto, on)


class TestFusionDecisionModel:
    def test_tiny_input_with_compile_share_stays_eager(self):
        decision = fusion_decision(
            rows=10,
            fused_read_bytes_per_row=16.0,
            eager_first_bytes_per_row=8.0,
            survivor_bytes_per_row=16.0,
            num_filters=1,
            eager_launches=1,
            compile_seconds=2.5e-6,
        )
        assert not decision.fuse
        assert decision.fused_seconds > decision.eager_seconds

    def test_narrow_predicate_wide_payload_stays_eager(self):
        """Loss case 2: a 4 B predicate guards a 24 B payload at strong
        selectivity — eager touches the payload for survivors only,
        fused drags it through DRAM for every row."""
        decision = fusion_decision(
            rows=2_000_000,
            fused_read_bytes_per_row=28.0,
            eager_first_bytes_per_row=4.0,
            survivor_bytes_per_row=24.0,
            num_filters=2,
            eager_launches=4,
        )
        assert not decision.fuse

    def test_launch_bound_chain_fuses(self):
        decision = fusion_decision(
            rows=1_000_000,
            fused_read_bytes_per_row=16.0,
            eager_first_bytes_per_row=16.0,
            survivor_bytes_per_row=16.0,
            num_filters=1,
            eager_launches=6,
        )
        assert decision.fuse
        assert decision.fused_seconds < decision.eager_seconds

    def test_compile_share_can_flip_the_decision(self):
        kwargs = dict(
            rows=50_000,
            fused_read_bytes_per_row=8.0,
            eager_first_bytes_per_row=8.0,
            survivor_bytes_per_row=8.0,
            num_filters=1,
            eager_launches=2,
        )
        warm = fusion_decision(**kwargs)
        cold = fusion_decision(**kwargs, compile_seconds=1.0)
        assert warm.fuse
        assert not cold.fuse


class TestChunkedAndRecovery:
    @pytest.fixture(scope="class")
    def tpch(self):
        return TpchGenerator(scale_factor=0.002, seed=11).generate()

    def test_fused_path_under_chunked_scan(self, tpch):
        baseline = QueryExecutor(_handwritten(), tpch).execute(q6.plan())
        backend = _compiled("on")
        chunked = QueryExecutor(backend, tpch, scan_chunks=2).execute(
            q6.plan()
        )
        _assert_tables_identical(chunked.table, baseline.table)
        fused = [
            e.name
            for e in backend.device.profiler.events
            if e.name.startswith("compiled::FUSED[")
        ]
        assert len(fused) >= 2  # one fused kernel per chunk

    def test_oom_recovery_stays_bit_identical(self, tpch):
        baseline = QueryExecutor(_handwritten(), tpch).execute(q6.plan())
        backend = _compiled("on", spec=GTX_1080TI, allocator="pool")
        # The fused path makes few allocations (one upload per scanned
        # column); fault the second so the OOM lands mid-scan.
        backend.device.inject_faults(oom_at_alloc=1)
        result = QueryExecutor(backend, tpch).execute(q6.plan())
        assert result.report.oom_recovery_chunks is not None
        _assert_tables_identical(result.table, baseline.table)


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(
        threshold=st.floats(min_value=-10.0, max_value=1010.0,
                            allow_nan=False),
        descending=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_random_predicates_match_handwritten(
        self, threshold, descending, seed
    ):
        rng = np.random.default_rng(seed)
        catalog = _catalog(rng)
        plan = (
            scan("orders")
            .filter(col_lt("o_total", threshold))
            .group_by(
                ["o_cust"],
                [("total", "sum", col("o_total")), ("n", "count", None)],
            )
            .order_by("total", descending=descending)
            .build()
        )
        expected = QueryExecutor(_handwritten(), catalog).execute(plan)
        actual = QueryExecutor(_compiled("on"), catalog).execute(plan)
        _assert_tables_identical(actual.table, expected.table)
