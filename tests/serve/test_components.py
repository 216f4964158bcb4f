"""Serving components in isolation: caches, admission, scheduling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.expr import col
from repro.core.predicate import col_lt
from repro.query.builder import scan
from repro.query.plan import InSubquery, ScalarCompare
from repro.relational.table import Table
from repro.serve import (
    AdmissionController,
    PlanCache,
    QueryRequest,
    ResultCache,
    estimate_plan_cost,
    estimate_working_set,
    make_policy,
    percentile,
    plan_fingerprint,
    result_key,
    scanned_tables,
)
from repro.serve.admission import ADMIT, SHED, WAIT, WORKING_SET_FACTOR


def _table(name: str, rows: int, columns=("a", "b")) -> Table:
    return Table.from_arrays(
        name, {c: np.arange(rows, dtype=np.float64) for c in columns}
    )


def _filtered(table: str = "t"):
    return scan(table).filter(col_lt("a", 10.0)).build()


class TestFingerprint:
    def test_equal_plans_share_a_fingerprint(self):
        assert plan_fingerprint(_filtered()) == plan_fingerprint(_filtered())

    def test_different_plans_differ(self):
        other = scan("t").filter(col_lt("a", 11.0)).build()
        assert plan_fingerprint(_filtered()) != plan_fingerprint(other)

    def test_subqueries_that_differ_only_in_their_subplan_differ(self):
        def plans(bound):
            inner = scan("s").filter(col_lt("b", bound))
            in_set = InSubquery("a", inner.build(), "b")
            scalar = ScalarCompare(
                "a", "lt", inner.aggregate([("m", "max", col("b"))]).build(),
                "m",
            )
            return [scan("t").filter(p).build() for p in (in_set, scalar)]

        for low, high in zip(plans(1.0), plans(2.0)):
            assert plan_fingerprint(low) != plan_fingerprint(high)

    def test_scanned_tables_deduplicates_and_sorts(self):
        plan = (
            scan("zeta").join(scan("alpha"), left_on="a", right_on="a").build()
        )
        assert scanned_tables(plan) == ("alpha", "zeta")


class TestPlanCache:
    def test_miss_then_hit(self):
        cache = PlanCache()
        fp = plan_fingerprint(_filtered())
        assert cache.get(fp) is None
        cache.put(fp, _filtered())
        assert cache.get(fp) is not None
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        plans = {f"fp{i}": _filtered() for i in range(3)}
        for fp, plan in plans.items():
            cache.put(fp, plan)
        assert cache.get("fp0") is None  # evicted as LRU
        assert cache.get("fp2") is not None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestResultCache:
    def _key(self, versions, fp="fp", tables=("t",)):
        return result_key(fp, "thrust", versions, tables)

    def test_version_bump_changes_the_key(self):
        cache = ResultCache()
        cache.put(self._key({}), _table("r", 4))
        assert cache.get(self._key({})) is not None
        assert cache.get(self._key({"t": 1})) is None

    def test_invalidate_table_drops_only_matching_entries(self):
        cache = ResultCache()
        cache.put(self._key({}, fp="f1", tables=("t",)), _table("r", 1))
        cache.put(self._key({}, fp="f2", tables=("u",)), _table("r", 2))
        assert cache.invalidate_table("t") == 1
        assert cache.invalidations == 1
        assert cache.get(self._key({}, fp="f2", tables=("u",))) is not None
        assert len(cache) == 1

    def test_lru_bound(self):
        cache = ResultCache(capacity=2)
        for i in range(3):
            cache.put(self._key({}, fp=f"f{i}"), _table("r", i + 1))
        assert len(cache) == 2
        assert cache.get(self._key({}, fp="f0")) is None


class TestAdmission:
    def test_working_set_counts_only_referenced_columns(self):
        catalog = {"t": _table("t", 1000, columns=("a", "b", "c"))}
        est = estimate_working_set(_filtered(), catalog)
        # The filter reads only "a": one column, times the headroom factor.
        one_column = catalog["t"].column("a").nbytes
        assert est == int(one_column * WORKING_SET_FACTOR)

    def test_working_set_falls_back_to_whole_table(self):
        catalog = {"t": _table("t", 100, columns=("a", "b"))}
        est = estimate_working_set(scan("t").build(), catalog)
        assert est == int(catalog["t"].nbytes * WORKING_SET_FACTOR)

    def test_decisions_and_counters(self):
        controller = AdmissionController(budget_bytes=1000)
        assert controller.decide(1500, 0) == SHED
        assert controller.decide(600, 0) == ADMIT
        assert controller.decide(600, 600) == WAIT
        assert controller.decide(400, 600) == ADMIT
        assert (controller.admitted, controller.waited, controller.shed) == \
               (2, 1, 1)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(0)


def _request(seq: int, tenant: str, name: str = "q") -> QueryRequest:
    return QueryRequest(seq=seq, tenant=tenant, name=name,
                        plan=_filtered(), arrival=float(seq))


class TestPolicies:
    def test_fifo_takes_the_queue_head(self):
        policy = make_policy("fifo")
        queue = [_request(3, "a"), _request(1, "b"), _request(2, "a")]
        assert policy.choose(queue, {1: 9.0, 2: 1.0, 3: 5.0}, {}) == 0

    def test_sjf_prefers_the_cheapest_estimate(self):
        policy = make_policy("sjf")
        queue = [_request(0, "a"), _request(1, "b"), _request(2, "c")]
        costs = {0: 50.0, 1: 2.0, 2: 50.0}
        assert policy.choose(queue, costs, {}) == 1

    def test_sjf_breaks_ties_by_sequence(self):
        policy = make_policy("sjf")
        queue = [_request(5, "a"), _request(2, "b")]
        assert policy.choose(queue, {5: 1.0, 2: 1.0}, {}) == 1

    def test_fair_picks_least_served_tenant(self):
        policy = make_policy("fair")
        queue = [_request(0, "hog"), _request(1, "quiet")]
        served = {"hog": 10.0, "quiet": 0.1}
        assert policy.choose(queue, {}, served) == 1

    def test_fair_weights_scale_entitlement(self):
        # Equal raw service, but "paid" has twice the weight, so its
        # normalised service is lower and it goes first.
        policy = make_policy("fair", weights={"paid": 2.0})
        queue = [_request(0, "free"), _request(1, "paid")]
        served = {"free": 4.0, "paid": 4.0}
        assert policy.choose(queue, {}, served) == 1

    def test_fair_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            make_policy("fair", weights={"t": -1.0})

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_policy("priority")


class TestPlanCost:
    def test_bigger_inputs_cost_more(self):
        small = {"t": _table("t", 100)}
        large = {"t": _table("t", 100_000)}
        plan = _filtered()
        assert estimate_plan_cost(plan, large) > estimate_plan_cost(plan, small)

    def test_join_plans_cost_more_than_their_scans(self):
        catalog = {"t": _table("t", 1000), "u": _table("u", 1000)}
        join = scan("t").join(scan("u"), left_on="a", right_on="a").build()
        assert estimate_plan_cost(join, catalog) > \
               estimate_plan_cost(scan("t").build(), catalog)


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.95) == 95.0
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 1.0) == 100.0

    def test_empty_and_validation(self):
        assert percentile([], 0.5) == 0.0
        with pytest.raises(ValueError):
            percentile([1.0], 0.0)
