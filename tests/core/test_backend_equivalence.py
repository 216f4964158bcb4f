"""Cross-backend operator equivalence.

Every GPU backend must produce bit-identical (or float-close) results to
the CPU reference oracle for every Table II operator — the framework
property that makes the paper's performance comparison meaningful.
"""

import numpy as np
import pytest

from repro.core import (
    col_between,
    col_cmp,
    col_gt,
    col_lt,
)
from repro.core.backend import join_reference
from repro.core.cpu_backend import CpuReferenceBackend
from repro.core.expr import col, lit
from repro.errors import ReproError, UnsupportedOperatorError

ORACLE = CpuReferenceBackend()


def _sorted_ids(backend, handle):
    return np.sort(backend.download(handle).astype(np.int64))


def _join_pairs(backend, left, right):
    left_ids = backend.download(left).astype(np.int64)
    right_ids = backend.download(right).astype(np.int64)
    order = np.lexsort((right_ids, left_ids))
    return left_ids[order], right_ids[order]


class TestSelectionEquivalence:
    def test_single_predicate(self, gpu_backend, rng):
        data = rng.integers(0, 1000, 10_000).astype(np.int32)
        predicate = col_lt("x", 250)
        expected = ORACLE.selection({"x": data}, predicate)
        ids = gpu_backend.selection(
            {"x": gpu_backend.upload(data)}, predicate
        )
        assert np.array_equal(_sorted_ids(gpu_backend, ids), expected)

    def test_conjunction(self, gpu_backend, rng):
        a = rng.integers(0, 100, 5_000).astype(np.int32)
        b = rng.random(5_000)
        predicate = col_gt("a", 20) & col_lt("b", 0.5)
        expected = ORACLE.selection({"a": a, "b": b}, predicate)
        ids = gpu_backend.selection(
            {"a": gpu_backend.upload(a), "b": gpu_backend.upload(b)},
            predicate,
        )
        assert np.array_equal(_sorted_ids(gpu_backend, ids), expected)

    def test_disjunction(self, gpu_backend, rng):
        a = rng.integers(0, 100, 5_000).astype(np.int32)
        predicate = col_lt("a", 10) | col_gt("a", 90)
        expected = ORACLE.selection({"a": a}, predicate)
        ids = gpu_backend.selection(
            {"a": gpu_backend.upload(a)}, predicate
        )
        assert np.array_equal(_sorted_ids(gpu_backend, ids), expected)

    def test_three_way_conjunction(self, gpu_backend, rng):
        a = rng.integers(0, 100, 5_000).astype(np.int32)
        b = rng.integers(0, 100, 5_000).astype(np.int32)
        c = rng.random(5_000)
        predicate = (
            col_between("a", 20, 60) & col_gt("b", 30) & col_lt("c", 0.7)
        )
        columns_host = {"a": a, "b": b, "c": c}
        expected = ORACLE.selection(columns_host, predicate)
        ids = gpu_backend.selection(
            {k: gpu_backend.upload(v) for k, v in columns_host.items()},
            predicate,
        )
        assert np.array_equal(_sorted_ids(gpu_backend, ids), expected)

    def test_column_column_comparison(self, gpu_backend, rng):
        a = rng.integers(0, 50, 3_000).astype(np.int32)
        b = rng.integers(0, 50, 3_000).astype(np.int32)
        predicate = col_cmp("a", "le", "b")
        expected = ORACLE.selection({"a": a, "b": b}, predicate)
        ids = gpu_backend.selection(
            {"a": gpu_backend.upload(a), "b": gpu_backend.upload(b)},
            predicate,
        )
        assert np.array_equal(_sorted_ids(gpu_backend, ids), expected)

    def test_negation(self, gpu_backend, rng):
        a = rng.integers(0, 100, 2_000).astype(np.int32)
        predicate = ~col_lt("a", 50)
        expected = ORACLE.selection({"a": a}, predicate)
        ids = gpu_backend.selection({"a": gpu_backend.upload(a)}, predicate)
        assert np.array_equal(_sorted_ids(gpu_backend, ids), expected)

    def test_empty_match(self, gpu_backend, rng):
        a = rng.integers(0, 100, 1_000).astype(np.int32)
        ids = gpu_backend.selection(
            {"a": gpu_backend.upload(a)}, col_gt("a", 1_000_000)
        )
        assert len(gpu_backend.download(ids)) == 0

    def test_full_match(self, gpu_backend, rng):
        a = rng.integers(0, 100, 1_000).astype(np.int32)
        ids = gpu_backend.selection(
            {"a": gpu_backend.upload(a)}, col_gt("a", -1)
        )
        assert np.array_equal(
            _sorted_ids(gpu_backend, ids), np.arange(1_000)
        )

    @pytest.mark.parametrize("selectivity", [0.0, 0.01, 0.5, 0.99, 1.0])
    def test_selectivity_extremes(self, gpu_backend, rng, selectivity):
        a = rng.random(4_000)
        predicate = col_lt("a", selectivity)
        expected = ORACLE.selection({"a": a}, predicate)
        ids = gpu_backend.selection({"a": gpu_backend.upload(a)}, predicate)
        assert np.array_equal(_sorted_ids(gpu_backend, ids), expected)


class TestJoinEquivalence:
    @pytest.fixture
    def keys(self, rng):
        left = rng.integers(0, 300, 2_000).astype(np.int32)
        right = rng.integers(0, 300, 1_500).astype(np.int32)
        return left, right

    def test_nested_loop_join(self, gpu_backend, keys):
        left, right = keys
        expected = join_reference(left, right)
        handles = gpu_backend.upload(left), gpu_backend.upload(right)
        got = _join_pairs(
            gpu_backend, *gpu_backend.nested_loop_join(*handles)
        )
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])

    def test_merge_join_where_supported(self, gpu_backend, keys):
        left, right = keys
        expected = join_reference(left, right)
        handles = gpu_backend.upload(left), gpu_backend.upload(right)
        try:
            result = gpu_backend.merge_join(*handles)
        except UnsupportedOperatorError:
            pytest.skip(f"{gpu_backend.name} has no merge join (Table II)")
        got = _join_pairs(gpu_backend, *result)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])

    def test_hash_join_only_handwritten(self, gpu_backend, keys):
        left, right = keys
        handles = gpu_backend.upload(left), gpu_backend.upload(right)
        if gpu_backend.name == "handwritten":
            expected = join_reference(left, right)
            got = _join_pairs(gpu_backend, *gpu_backend.hash_join(*handles))
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])
        else:
            with pytest.raises(UnsupportedOperatorError):
                gpu_backend.hash_join(*handles)

    def test_join_with_no_matches(self, gpu_backend):
        left = np.array([1, 2, 3], dtype=np.int32)
        right = np.array([10, 20], dtype=np.int32)
        handles = gpu_backend.upload(left), gpu_backend.upload(right)
        left_ids, right_ids = gpu_backend.nested_loop_join(*handles)
        assert len(gpu_backend.download(left_ids)) == 0
        assert len(gpu_backend.download(right_ids)) == 0

    def test_join_with_duplicates_both_sides(self, gpu_backend):
        left = np.array([7, 7, 8], dtype=np.int32)
        right = np.array([7, 7], dtype=np.int32)
        expected = join_reference(left, right)
        handles = gpu_backend.upload(left), gpu_backend.upload(right)
        got = _join_pairs(
            gpu_backend, *gpu_backend.nested_loop_join(*handles)
        )
        assert len(got[0]) == 4
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])


class TestGroupedAggregationEquivalence:
    @pytest.mark.parametrize("agg", ["sum", "count", "min", "max", "avg"])
    def test_aggregates(self, gpu_backend, rng, agg):
        keys = rng.integers(0, 40, 5_000).astype(np.int32)
        values = rng.random(5_000)
        expected_keys, expected_values = ORACLE.grouped_aggregation(
            keys, values, agg
        )
        got_keys, got_values = gpu_backend.grouped_aggregation(
            gpu_backend.upload(keys), gpu_backend.upload(values), agg
        )
        assert np.array_equal(
            gpu_backend.download(got_keys).astype(np.int64),
            expected_keys.astype(np.int64),
        )
        assert np.allclose(
            gpu_backend.download(got_values).astype(np.float64),
            expected_values.astype(np.float64),
        )

    def test_single_group(self, gpu_backend, rng):
        keys = np.zeros(100, dtype=np.int32)
        values = rng.random(100)
        got_keys, got_values = gpu_backend.grouped_aggregation(
            gpu_backend.upload(keys), gpu_backend.upload(values), "sum"
        )
        assert len(gpu_backend.download(got_keys)) == 1
        assert gpu_backend.download(got_values)[0] == pytest.approx(
            values.sum()
        )

    def test_all_distinct_keys(self, gpu_backend):
        keys = np.arange(50, dtype=np.int32)
        values = np.ones(50)
        got_keys, got_values = gpu_backend.grouped_aggregation(
            gpu_backend.upload(keys), gpu_backend.upload(values), "count"
        )
        assert np.array_equal(
            gpu_backend.download(got_values).astype(np.int64), np.ones(50)
        )

    def test_length_mismatch_rejected(self, gpu_backend):
        with pytest.raises(ValueError):
            gpu_backend.grouped_aggregation(
                gpu_backend.upload(np.arange(3, dtype=np.int32)),
                gpu_backend.upload(np.arange(4, dtype=np.float64)),
            )

    def test_unknown_aggregate_rejected(self, gpu_backend):
        with pytest.raises(ValueError):
            gpu_backend.grouped_aggregation(
                gpu_backend.upload(np.arange(3, dtype=np.int32)),
                gpu_backend.upload(np.arange(3, dtype=np.float64)),
                "median",
            )


class TestReductionEquivalence:
    @pytest.mark.parametrize("agg", ["sum", "count", "min", "max", "avg"])
    def test_aggregates(self, gpu_backend, rng, agg):
        values = rng.random(10_000)
        expected = ORACLE.reduction(values, agg)
        got = gpu_backend.reduction(gpu_backend.upload(values), agg)
        assert got == pytest.approx(expected)

    def test_empty_sum_is_zero(self, gpu_backend):
        empty = gpu_backend.upload(np.empty(0, dtype=np.float64))
        assert gpu_backend.reduction(empty, "sum") == 0.0

    def test_empty_min_rejected(self, gpu_backend):
        empty = gpu_backend.upload(np.empty(0, dtype=np.float64))
        with pytest.raises(ValueError):
            gpu_backend.reduction(empty, "min")


class TestSortEquivalence:
    def test_sort(self, gpu_backend, rng):
        values = rng.integers(0, 10_000, 5_000).astype(np.int32)
        got = gpu_backend.download(gpu_backend.sort(gpu_backend.upload(values)))
        assert np.array_equal(got, np.sort(values))

    def test_sort_descending(self, gpu_backend, rng):
        values = rng.integers(0, 100, 500).astype(np.int32)
        got = gpu_backend.download(
            gpu_backend.sort(gpu_backend.upload(values), descending=True)
        )
        assert np.array_equal(got, np.sort(values)[::-1])

    def test_sort_does_not_mutate_input(self, gpu_backend, rng):
        values = rng.integers(0, 100, 100).astype(np.int32)
        handle = gpu_backend.upload(values)
        gpu_backend.sort(handle)
        assert np.array_equal(gpu_backend.download(handle), values)

    def test_sort_by_key(self, gpu_backend, rng):
        keys = rng.integers(0, 1_000, 2_000).astype(np.int32)
        values = np.arange(2_000, dtype=np.int64)
        expected_keys, expected_values = ORACLE.sort_by_key(keys, values)
        got_keys, got_values = gpu_backend.sort_by_key(
            gpu_backend.upload(keys), gpu_backend.upload(values)
        )
        assert np.array_equal(gpu_backend.download(got_keys), expected_keys)
        assert np.array_equal(
            gpu_backend.download(got_values), expected_values
        )

    @pytest.mark.parametrize("values_length", [5, 2])
    def test_sort_by_key_rejects_mismatched_lengths(self, any_backend, values_length):
        keys = any_backend.upload(np.array([3, 1, 2], dtype=np.int32))
        values = any_backend.upload(np.arange(values_length, dtype=np.float64) * 10)
        with pytest.raises(ReproError):
            any_backend.sort_by_key(keys, values)


class TestPrimitivesEquivalence:
    def test_prefix_sum(self, gpu_backend, rng):
        values = rng.integers(0, 10, 3_000).astype(np.int32)
        expected = ORACLE.prefix_sum(values)
        got = gpu_backend.download(
            gpu_backend.prefix_sum(gpu_backend.upload(values))
        )
        assert np.array_equal(got, expected)

    def test_gather(self, gpu_backend, rng):
        source = rng.random(1_000)
        indices = rng.integers(0, 1_000, 500).astype(np.int32)
        got = gpu_backend.download(
            gpu_backend.gather(
                gpu_backend.upload(source), gpu_backend.upload(indices)
            )
        )
        assert np.allclose(got, source[indices])

    def test_scatter(self, gpu_backend, rng):
        source = rng.random(500)
        indices = rng.permutation(1_000)[:500].astype(np.int32)
        expected = ORACLE.scatter(source, indices, 1_000)
        got = gpu_backend.download(
            gpu_backend.scatter(
                gpu_backend.upload(source), gpu_backend.upload(indices), 1_000
            )
        )
        assert np.allclose(got, expected)

    def test_product(self, gpu_backend, rng):
        left = rng.random(2_000)
        right = rng.random(2_000)
        got = gpu_backend.download(
            gpu_backend.product(
                gpu_backend.upload(left), gpu_backend.upload(right)
            )
        )
        assert np.allclose(got, left * right)

    def test_compute_expression(self, gpu_backend, rng):
        price = rng.random(3_000) * 100
        discount = rng.random(3_000) * 0.1
        expr = col("price") * (lit(1.0) - col("discount"))
        got = gpu_backend.download(
            gpu_backend.compute(
                {
                    "price": gpu_backend.upload(price),
                    "discount": gpu_backend.upload(discount),
                },
                expr,
            )
        )
        assert np.allclose(got, price * (1.0 - discount))

    def test_compute_constant_only_rejected(self, gpu_backend):
        with pytest.raises(ValueError):
            gpu_backend.compute({}, lit(1.0) + lit(2.0))

    def test_iota(self, gpu_backend):
        got = gpu_backend.download(gpu_backend.iota(256))
        assert np.array_equal(got, np.arange(256))

    def test_upload_download_roundtrip(self, any_backend, rng):
        data = rng.random(1_000)
        assert np.allclose(
            any_backend.download(any_backend.upload(data)), data
        )
