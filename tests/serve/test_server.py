"""QueryServer integration: determinism, correctness, admission, caches.

The acceptance bar for the serving PR:

* a seeded run is **bit-deterministic** — same (seed, arrival rate,
  policy) gives identical per-request latencies and an identical Chrome
  trace across two runs on fresh devices;
* every result served under load is **oracle-equal** to the same query
  executed solo;
* the result cache **invalidates** when a base table's data changes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import default_framework
from repro.gpu import Device, GTX_1080TI
from repro.gpu.profiler import SPAN, chrome_trace_json
from repro.query import QueryExecutor
from repro.serve import (
    COMPLETED,
    SHED,
    OpenLoopWorkload,
    QueryServer,
    QuerySpec,
    ServerConfig,
    repeated_workload,
)
from repro.relational.column import Column
from repro.tpch import TpchGenerator
from repro.tpch.queries import q1, q6, q16


@pytest.fixture(scope="module")
def catalog():
    return TpchGenerator(scale_factor=0.002, seed=11).generate()


def _specs():
    return [
        QuerySpec("Q6", q6.plan(), weight=3.0),
        QuerySpec("Q1", q1.plan(), weight=1.0),
    ]


def _server(catalog, **config_kwargs):
    device = Device(GTX_1080TI, allocator="pool")
    backend = default_framework().create("thrust", device)
    return QueryServer(backend, catalog, ServerConfig(**config_kwargs))


def _workload(num_requests=24, rate=400.0, seed=5):
    return OpenLoopWorkload(
        _specs(), rate=rate, num_requests=num_requests,
        tenants=("t0", "t1"), seed=seed,
    )


def _tables_equal(left, right) -> bool:
    if left.column_names != right.column_names:
        return False
    return all(
        np.array_equal(left.column(n).data, right.column(n).data)
        for n in left.column_names
    )


class TestDeterminism:
    def _run(self, catalog, policy):
        with _server(catalog, policy=policy) as server:
            report = server.run(_workload())
            trace = chrome_trace_json(server.device.profiler.events)
        latencies = [(r.seq, r.latency, r.stream_id) for r in report.records]
        return latencies, trace

    @pytest.mark.parametrize("policy", ["fifo", "sjf", "fair"])
    def test_two_runs_are_bit_identical(self, catalog, policy):
        first_latencies, first_trace = self._run(catalog, policy)
        second_latencies, second_trace = self._run(catalog, policy)
        assert first_latencies == second_latencies
        assert first_trace == second_trace

    def test_different_seeds_change_the_run(self, catalog):
        with _server(catalog) as server:
            base = server.run(_workload(seed=5))
        with _server(catalog) as server:
            other = server.run(_workload(seed=6))
        assert [r.latency for r in base.records] != \
               [r.latency for r in other.records]


class TestCorrectnessUnderLoad:
    def test_every_result_is_oracle_equal_to_a_solo_run(self, catalog):
        with _server(catalog, keep_results=True, policy="sjf") as server:
            report = server.run(_workload())
        solo = {}
        for spec in _specs():
            executor = QueryExecutor(
                default_framework().create("thrust"), catalog
            )
            solo[spec.name] = executor.execute(spec.plan, spec.name).table
        assert report.records, "workload produced no records"
        for record in report.records:
            assert record.status == COMPLETED
            assert record.table is not None
            assert _tables_equal(record.table, solo[record.name])

    def test_all_requests_complete_and_spans_are_recorded(self, catalog):
        with _server(catalog) as server:
            report = server.run(_workload())
            spans = [
                e for e in server.device.profiler.events if e.kind == SPAN
            ]
        assert report.metrics.completed == len(report.records)
        assert len(spans) == report.metrics.completed
        for span in spans:
            assert span.duration >= 0.0
            assert "tenant" in span.payload


class TestResultCacheServing:
    def test_repeated_queries_hit_and_skip_device_work(self, catalog):
        workload = repeated_workload(_specs(), rate=300.0, repeats=8, seed=2)
        with _server(catalog) as server:
            report = server.run(workload)
        metrics = report.metrics
        # 2 distinct shapes, 16 requests: first touch misses, rest hit.
        assert metrics.result_cache_misses == 2
        assert metrics.result_cache_hits == 14
        hits = [r for r in report.records if r.result_cache_hit]
        assert all(r.stream_id == -1 for r in hits)
        assert all(not r.device_breakdown for r in hits)

    def test_update_table_invalidates_and_serves_fresh_data(self, catalog):
        workload = repeated_workload(
            [QuerySpec("Q6", q6.plan())], rate=300.0, repeats=4, seed=3
        )
        with _server(catalog, keep_results=True) as server:
            before = server.run(workload)

            # Bump every lineitem discount: revenue must change.
            lineitem = catalog["lineitem"]
            arrays = {
                c.name: c.data.copy() for c in lineitem
            }
            arrays["l_discount"] = np.clip(
                arrays["l_discount"] + 0.01, 0.0, 0.1
            )
            from repro.relational.table import Table

            server.update_table(
                "lineitem", Table.from_arrays("lineitem", arrays)
            )
            assert server.result_cache.invalidations > 0
            assert server.table_version("lineitem") == 1

            after = server.run(workload.__class__(
                [QuerySpec("Q6", q6.plan())], 300.0, 4, seed=3
            ))
        old_revenue = before.records[0].table.column("revenue").data[0]
        new_revenue = after.records[0].table.column("revenue").data[0]
        assert new_revenue != old_revenue
        expected = q6.reference(server.catalog)["revenue"][0]
        assert new_revenue == pytest.approx(expected)

    def test_update_of_a_table_only_a_subquery_reads_invalidates(self):
        """Q16 reads supplier only in its NOT IN subquery; after every
        balance rises above the exclusion bound, Q16 must be served
        fresh, not from the cache."""
        catalog = TpchGenerator(scale_factor=0.004, seed=19920101).generate()
        workload = repeated_workload(
            [QuerySpec("Q16", q16.plan(catalog))], rate=300.0, repeats=1
        )
        with _server(catalog, keep_results=True) as server:
            before = server.run(workload)
            supplier = catalog["supplier"]
            balance = supplier.column("s_acctbal")
            server.update_table("supplier", supplier.with_column(Column(
                "s_acctbal", balance.ctype, np.full_like(balance.data, 1000.0)
            )))
            assert server.result_cache.invalidations == 1
            after = server.run(workload)
        expected = q16.reference(server.catalog)
        assert len(expected["supplier_cnt"]) > 0
        (old,), (new,) = before.records, after.records
        assert not new.result_cache_hit
        got = new.table.column("supplier_cnt").data
        assert np.array_equal(got, expected["supplier_cnt"])
        assert not np.array_equal(got, old.table.column("supplier_cnt").data)

    @pytest.mark.parametrize("result_cache", [True, False])
    @pytest.mark.parametrize("first", [0, 1])
    def test_plans_differing_only_inside_a_subquery_are_served_apart(
        self, first, result_cache
    ):
        """Two Q16 plans that differ only in their NOT IN subquery's
        bound get their own plan- and result-cache entries, whichever
        arrives first: each is served its own answer."""
        catalog = TpchGenerator(scale_factor=0.004, seed=19920101).generate()
        params = [
            q16.DEFAULT_PARAMS, q16.Q16Params(max_excluded_balance=-10000.0)
        ]
        order = [first, 1 - first]
        workload = repeated_workload(
            [QuerySpec(f"Q16-{i}", q16.plan(catalog, params[i]))
             for i in order],
            rate=300.0, repeats=1,
        )
        with _server(
            catalog, keep_results=True, result_cache=result_cache
        ) as server:
            report = server.run(workload)
        assert report.metrics.plan_cache_hits == 0
        records = sorted(report.records, key=lambda r: r.seq)
        for i, record in zip(order, records):
            expected = q16.reference(catalog, params[i])["supplier_cnt"]
            got = record.table.column("supplier_cnt").data
            assert np.array_equal(got, expected), (order, i)

    def test_update_table_rejects_unknown_tables(self, catalog):
        with _server(catalog) as server:
            with pytest.raises(KeyError):
                server.update_table("nope", catalog["lineitem"])


class TestPlanCacheServing:
    def test_plan_cache_hits_without_result_cache(self, catalog):
        workload = repeated_workload(
            [QuerySpec("Q6", q6.plan())], rate=300.0, repeats=6, seed=1
        )
        with _server(catalog, result_cache=False) as server:
            report = server.run(workload)
        metrics = report.metrics
        assert metrics.result_cache_hits == 0
        assert metrics.plan_cache_misses == 1
        assert metrics.plan_cache_hits == 5
        hit = next(r for r in report.records if r.plan_cache_hit)
        miss = next(r for r in report.records if not r.plan_cache_hit)
        assert hit.planning_seconds < miss.planning_seconds
        # Device work still happens on plan-cache hits.
        assert hit.device_breakdown

    def test_caches_fully_disabled(self, catalog):
        workload = repeated_workload(
            [QuerySpec("Q6", q6.plan())], rate=300.0, repeats=3, seed=1
        )
        with _server(catalog, plan_cache=False, result_cache=False) as server:
            report = server.run(workload)
        metrics = report.metrics
        assert metrics.plan_cache_hits == metrics.result_cache_hits == 0
        assert all(r.device_breakdown for r in report.records)


class TestAdmissionServing:
    def test_oversized_requests_are_shed(self, catalog):
        with _server(catalog, admission_budget_bytes=64,
                     result_cache=False) as server:
            report = server.run(_workload(num_requests=6))
        assert report.metrics.shed == 6
        assert all(r.status == SHED for r in report.records)
        assert server.admission.shed == 6

    def test_memory_waits_serialize_but_complete(self, catalog):
        # Budget fits one in-flight working set but not two: concurrent
        # requests must wait for each other, never shed.
        from repro.serve import estimate_working_set

        q6_bytes = estimate_working_set(q6.plan(), catalog)
        with _server(catalog, admission_budget_bytes=int(q6_bytes * 1.5),
                     result_cache=False, num_streams=4) as server:
            report = server.run(OpenLoopWorkload(
                [QuerySpec("Q6", q6.plan())], rate=5000.0,
                num_requests=8, seed=4,
            ))
        assert report.metrics.completed == 8
        assert report.metrics.shed == 0
        assert server.admission.waited > 0

    def test_default_budget_comes_from_device_memory(self, catalog):
        with _server(catalog) as server:
            capacity = server.device.memory.effective_capacity
            assert 0 < server.admission.budget_bytes < capacity


class TestTenancy:
    def test_sessions_are_per_tenant_and_reused(self, catalog):
        with _server(catalog) as server:
            server.run(_workload(num_requests=10))
            assert sorted(server._sessions) == ["t0", "t1"]
            for session in server._sessions.values():
                assert session.resident_columns  # warm resident sets

    def test_fair_policy_accounts_service(self, catalog):
        with _server(catalog, policy="fair") as server:
            server.run(_workload(num_requests=10))
            assert set(server._served_by_tenant) == {"t0", "t1"}
            assert all(v > 0 for v in server._served_by_tenant.values())
