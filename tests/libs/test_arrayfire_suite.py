"""Unit tests for the ArrayFire emulation: lazy algebra, JIT fusion,
kernel cache, and the eager algorithm suite."""

import gc

import numpy as np
import pytest

from repro.core import default_framework
from repro.core.predicate import InSet
from repro.errors import ArraySizeMismatchError, LibraryError
from repro.gpu import Device
from repro.libs import arrayfire as af
from repro.libs.arrayfire import jit


@pytest.fixture
def rt(device):
    return af.ArrayFireRuntime(device)


class TestLazyAlgebra:
    def test_upload_is_materialized(self, rt):
        a = rt.array(np.arange(10, dtype=np.float32))
        assert not a.is_lazy

    def test_elementwise_builds_lazy_tree(self, rt):
        a = rt.array(np.arange(10, dtype=np.float32))
        expr = a * 2.0 + 1.0
        assert expr.is_lazy
        assert len(expr) == 10

    def test_no_kernel_until_eval(self, rt, device):
        a = rt.array(np.arange(10, dtype=np.float32))
        cursor = device.profiler.mark()
        _expr = (a * 2.0 + 1.0) > 5.0
        assert device.profiler.summary(since=cursor).kernel_count == 0

    def test_eval_fuses_to_single_kernel(self, rt, device):
        a = rt.array(np.arange(10, dtype=np.float32))
        b = rt.array(np.ones(10, dtype=np.float32))
        expr = (a * b + 1.0) / 2.0 - 3.0
        cursor = device.profiler.mark()
        expr.eval()
        summary = device.profiler.summary(since=cursor)
        assert summary.kernel_count == 1

    def test_eval_semantics(self, rt):
        data = np.arange(10, dtype=np.float64)
        a = rt.array(data)
        expr = (a * 3.0 + 1.0) / 2.0
        assert np.allclose(expr.peek(), (data * 3.0 + 1.0) / 2.0)

    def test_eval_idempotent(self, rt, device):
        a = rt.array(np.arange(4, dtype=np.float32))
        expr = a + 1.0
        expr.eval()
        cursor = device.profiler.mark()
        expr.eval()
        assert device.profiler.summary(since=cursor).kernel_count == 0

    def test_comparisons_yield_bool(self, rt):
        a = rt.array(np.array([1.0, 5.0]))
        mask = (a > 2.0).eval()
        assert mask.dtype == np.dtype(bool)
        assert np.array_equal(mask.peek(), [False, True])

    def test_logical_ops(self, rt):
        a = rt.array(np.array([1, 4, 8], dtype=np.int32))
        mask = ((a > 2) & (a < 6)) | (a == 1)
        assert np.array_equal(mask.peek(), [True, True, False])

    def test_invert_and_neg_and_abs(self, rt):
        a = rt.array(np.array([-1, 2], dtype=np.int32))
        assert np.array_equal((~(a > 0)).peek(), [True, False])
        assert np.array_equal((-a).peek(), [1, -2])
        assert np.array_equal(abs(a).peek(), [1, 2])

    def test_reflected_scalar_ops(self, rt):
        a = rt.array(np.array([1.0, 2.0]))
        assert np.allclose((10.0 - a).peek(), [9.0, 8.0])
        assert np.allclose((1.0 / a).peek(), [1.0, 0.5])

    def test_cast(self, rt):
        a = rt.array(np.array([1.7, 2.2]))
        out = a.cast(np.int32).eval()
        assert out.dtype == np.dtype(np.int32)
        assert np.array_equal(out.peek(), [1, 2])

    def test_length_mismatch_rejected(self, rt):
        a = rt.array(np.arange(3, dtype=np.float32))
        b = rt.array(np.arange(4, dtype=np.float32))
        with pytest.raises(ArraySizeMismatchError):
            _ = a + b

    def test_cross_runtime_rejected(self, rt):
        other = af.ArrayFireRuntime(Device())
        a = rt.array(np.arange(3, dtype=np.float32))
        b = other.array(np.arange(3, dtype=np.float32))
        with pytest.raises(LibraryError):
            _ = a + b

    def test_to_host_charges_transfer(self, rt, device):
        a = rt.array(np.arange(10, dtype=np.float64))
        before = device.profiler.summary().bytes_d2h
        (a + 1.0).to_host()
        assert device.profiler.summary().bytes_d2h > before

    def test_constant_and_iota(self, rt):
        c = rt.constant(7, 5, np.int32)
        assert np.array_equal(c.peek(), [7] * 5)
        i = rt.iota(4)
        assert np.array_equal(i.peek(), [0, 1, 2, 3])


class TestLazyGraphBuild:
    """Lazy operands become children as they are; eval numbers the
    leaves once, so deep expressions build in linear time and still
    flatten to the same kernel."""

    @staticmethod
    def _right_nested(rt, depth):
        """x0 + (x1 + (... + (x[depth-1] + x[depth])))."""
        xs = [rt.array(np.arange(4.0) + i) for i in range(depth + 1)]
        expr = xs[depth]
        for x in reversed(xs[:depth]):
            expr = x + expr
        return xs, expr

    def test_deep_right_nested_signature_and_leaves(self, rt, monkeypatch):
        seen = []
        analyze, evaluate = jit.analyze, jit.evaluate

        def recording_analyze(root, leaf_dtypes):
            kernel = analyze(root, leaf_dtypes)
            seen.append(kernel)
            return kernel

        def recording_evaluate(root, leaves):
            seen.append(list(leaves))
            return evaluate(root, leaves)

        monkeypatch.setattr(jit, "analyze", recording_analyze)
        monkeypatch.setattr(jit, "evaluate", recording_evaluate)
        depth = 40
        xs, expr = self._right_nested(rt, depth)
        expr.eval()
        kernel, leaves = seen
        assert kernel.signature == (
            "".join(f"add[float64](in{i}:float64" for i in range(depth))
            + f"in{depth}:float64" + ")" * depth
        )
        assert (kernel.node_count, kernel.flops_per_element, kernel.leaf_count) == (
            depth, float(depth), depth + 1
        )
        assert len(leaves) == depth + 1
        assert all(leaf is x.storage().data for leaf, x in zip(leaves, xs))
        want = sum(np.arange(4.0) + i for i in range(depth + 1))
        assert np.array_equal(expr.peek(), want)

    def test_eval_frees_the_leaves_it_alone_held(self, rt, device):
        """A leaf no one else references is freed before eval returns, not
        at the next garbage collection."""
        a = rt.array(np.arange(1000, dtype=np.float64))
        expr = a * 2.0 + 1.0
        del a
        gc.disable()
        try:
            expr.eval()
            assert device.memory.live_buffer_count == 1  # the result
        finally:
            gc.enable()

    def test_shared_operands_get_a_leaf_per_use(self, rt, monkeypatch):
        """``a * a`` and a lazy array used by two operands read their
        device arrays once per use."""
        seen = []
        analyze = jit.analyze

        def recording(root, leaf_dtypes):
            seen.append(analyze(root, leaf_dtypes))
            return seen[-1]

        monkeypatch.setattr(jit, "analyze", recording)
        a = rt.array(np.arange(3, dtype=np.int32))
        b = rt.array(np.ones(3, dtype=np.float32))
        t = a * a
        (t + (t > b)).eval()
        assert seen[0].signature == (
            "add[int32](mul[int32](in0:int32in1:int32)"
            "gt[bool](mul[int32](in2:int32in3:int32)in4:float32))"
        )
        assert seen[0].leaf_count == 5

    def test_nodes_built_grow_linearly_with_depth(self, rt, monkeypatch):
        built = [0]
        post_init = jit.JitNode.__post_init__

        def counting(node):
            built[0] += 1
            post_init(node)

        monkeypatch.setattr(jit.JitNode, "__post_init__", counting)
        counts = {}
        for depth in (50, 100, 200):
            built[0] = 0
            _xs, expr = self._right_nested(rt, depth)
            expr.eval()
            counts[depth] = built[0]
        # One node per operation when built, one when eval numbers it.
        assert all(count <= 2 * depth for depth, count in counts.items())
        assert counts[200] <= 2 * counts[100] <= 4 * counts[50]


class TestTreesDeeperThanTheRecursionLimit:
    """Numbering, flattening and evaluating walk explicit stacks, so a
    tree thousands of nodes deep fuses like a shallow one."""

    def test_large_in_set_selection_matches_the_oracle(self, device, rng):
        """A 5,000-value InSet lowers to a 10,000-node ``|`` chain."""
        backend = default_framework().create("arrayfire", device)
        data = rng.integers(0, 20000, 1000).astype(np.int32)
        values = tuple(float(v) for v in range(0, 10000, 2))
        ids = backend.download(backend.selection(
            {"x": backend.upload(data)}, InSet("x", values)
        ))
        assert np.array_equal(ids, np.flatnonzero(np.isin(data, values)))

    def test_deep_right_nested_signature_and_leaves(self, rt, monkeypatch):
        seen = []
        analyze = jit.analyze

        def recording(root, leaf_dtypes):
            seen.append(analyze(root, leaf_dtypes))
            return seen[-1]

        monkeypatch.setattr(jit, "analyze", recording)
        depth = 3000
        xs, expr = TestLazyGraphBuild._right_nested(rt, depth)
        expr.eval()
        (kernel,) = seen
        assert kernel.signature == (
            "".join(f"add[float64](in{i}:float64" for i in range(depth))
            + f"in{depth}:float64" + ")" * depth
        )
        assert (kernel.node_count, kernel.leaf_count) == (depth, depth + 1)
        want = sum(np.arange(4.0) + i for i in range(depth + 1))
        assert np.array_equal(expr.peek(), want)


class TestJitCache:
    def test_first_eval_compiles(self, rt, device):
        a = rt.array(np.arange(10, dtype=np.float32))
        (a * 2.0).eval()
        assert rt.jit_cache.misses == 1
        assert device.profiler.summary().compile_time > 0.0

    def test_same_shape_hits_cache(self, rt, device):
        a = rt.array(np.arange(10, dtype=np.float32))
        b = rt.array(np.arange(10, dtype=np.float32))
        (a * 2.0).eval()
        compile_time = device.profiler.summary().compile_time
        (b * 5.0).eval()  # same tree shape, different scalar/buffer
        assert rt.jit_cache.hits == 1
        assert device.profiler.summary().compile_time == compile_time

    def test_different_shape_recompiles(self, rt):
        a = rt.array(np.arange(10, dtype=np.float32))
        (a * 2.0).eval()
        (a + 2.0).eval()
        assert rt.jit_cache.misses == 2

    def test_bigger_trees_cost_more_to_compile(self, rt):
        from repro.libs.arrayfire.jit import FusedKernel, JitKernelCache

        cache = JitKernelCache()
        small = FusedKernel("sig-a", node_count=1, flops_per_element=1.0,
                            leaf_count=1)
        large = FusedKernel("sig-b", node_count=20, flops_per_element=20.0,
                            leaf_count=4)
        assert cache.compile_cost(large) > cache.compile_cost(small)

    def test_invalidate(self, rt):
        a = rt.array(np.arange(4, dtype=np.float32))
        (a * 2.0).eval()
        rt.jit_cache.invalidate()
        b = rt.array(np.arange(4, dtype=np.float32))
        (b * 2.0).eval()
        assert rt.jit_cache.misses == 2

    def test_fusion_disabled_evaluates_eagerly(self, device):
        rt = af.ArrayFireRuntime(device, fusion_enabled=False)
        a = rt.array(np.arange(10, dtype=np.float32))
        cursor = device.profiler.mark()
        expr = a * 2.0 + 1.0
        assert not expr.is_lazy
        # Two ops -> two kernels (one per op), like an eager library.
        assert device.profiler.summary(since=cursor).kernel_count == 2


class TestAlgorithms:
    def test_where(self, rt):
        a = rt.array(np.array([0, 3, 0, 7], dtype=np.int32))
        ids = af.where(a > 0)
        assert ids.dtype == np.dtype(np.uint32)
        assert np.array_equal(ids.peek(), [1, 3])

    def test_where_on_fused_predicate_total_two_extra_kernels(self, rt, device):
        a = rt.array(np.arange(100, dtype=np.float64))
        b = rt.array(np.arange(100, dtype=np.float64))
        mask = (a > 10.0) & (b < 90.0)
        cursor = device.profiler.mark()
        af.where(mask)
        # 1 fused predicate kernel + scan + compact.
        assert device.profiler.summary(since=cursor).kernel_count == 3

    def test_count(self, rt):
        a = rt.array(np.array([1, 0, 2], dtype=np.int32))
        assert af.count(a) == 2

    def test_reductions(self, rt):
        a = rt.array(np.array([1.0, 2.0, 3.0]))
        assert af.sum(a) == pytest.approx(6.0)
        assert af.product(a) == pytest.approx(6.0)
        assert af.min(a) == pytest.approx(1.0)
        assert af.max(a) == pytest.approx(3.0)

    def test_reduction_of_empty_minmax_raises(self, rt):
        empty = rt.array(np.empty(0, dtype=np.float64))
        with pytest.raises(LibraryError):
            af.min(empty)

    def test_sum_by_key_and_count_by_key(self, rt):
        keys = rt.array(np.array([1, 1, 2], dtype=np.int32))
        values = rt.array(np.array([1.0, 2.0, 5.0]))
        out_keys, sums = af.sum_by_key(keys, values)
        assert np.array_equal(out_keys.peek(), [1, 2])
        assert np.allclose(sums.peek(), [3.0, 5.0])
        ones = rt.constant(1, 3, np.int64)
        _keys, counts = af.count_by_key(keys, ones)
        assert np.array_equal(counts.peek(), [2, 1])

    def test_minmax_by_key(self, rt):
        keys = rt.array(np.array([1, 1, 2], dtype=np.int32))
        values = rt.array(np.array([4.0, 9.0, 5.0]))
        _k, mx = af.max_by_key(keys, values)
        _k, mn = af.min_by_key(keys, values)
        assert np.allclose(mx.peek(), [9.0, 5.0])
        assert np.allclose(mn.peek(), [4.0, 5.0])

    def test_by_key_length_mismatch(self, rt):
        keys = rt.array(np.array([1], dtype=np.int32))
        values = rt.array(np.array([1.0, 2.0]))
        with pytest.raises(LibraryError):
            af.sum_by_key(keys, values)

    def test_sort_out_of_place(self, rt, rng):
        data = rng.integers(0, 50, 32).astype(np.int32)
        a = rt.array(data)
        sorted_a = af.sort(a)
        assert np.array_equal(sorted_a.peek(), np.sort(data))
        assert np.array_equal(a.peek(), data)  # original untouched

    def test_sort_descending(self, rt):
        a = rt.array(np.array([2, 9, 4], dtype=np.int32))
        assert np.array_equal(af.sort(a, ascending=False).peek(), [9, 4, 2])

    def test_sort_by_key(self, rt):
        keys = rt.array(np.array([3, 1], dtype=np.int32))
        values = rt.array(np.array([30, 10], dtype=np.int32))
        out_keys, out_values = af.sort_by_key(keys, values)
        assert np.array_equal(out_keys.peek(), [1, 3])
        assert np.array_equal(out_values.peek(), [10, 30])

    def test_scan_and_accum(self, rt):
        a = rt.array(np.array([1, 2, 3], dtype=np.int32))
        assert np.array_equal(af.scan(a).peek(), [0, 1, 3])
        assert np.array_equal(af.accum(a).peek(), [1, 3, 6])

    def test_set_ops(self, rt):
        a = rt.array(np.array([1, 3, 5], dtype=np.uint32))
        b = rt.array(np.array([3, 5, 7], dtype=np.uint32))
        assert np.array_equal(af.set_intersect(a, b).peek(), [3, 5])
        assert np.array_equal(af.set_union(a, b).peek(), [1, 3, 5, 7])

    def test_set_unique(self, rt):
        a = rt.array(np.array([5, 1, 5, 3], dtype=np.int32))
        assert np.array_equal(af.set_unique(a).peek(), [1, 3, 5])

    def test_set_ops_with_non_unique_inputs(self, rt):
        a = rt.array(np.array([1, 1, 2], dtype=np.int32))
        b = rt.array(np.array([2, 2, 3], dtype=np.int32))
        assert np.array_equal(
            af.set_intersect(a, b, is_unique=False).peek(), [2]
        )

    def test_lookup(self, rt):
        a = rt.array(np.array([10, 20, 30], dtype=np.int32))
        idx = rt.array(np.array([2, 0], dtype=np.uint32))
        assert np.array_equal(af.lookup(a, idx).peek(), [30, 10])

    def test_lookup_out_of_range(self, rt):
        a = rt.array(np.array([10], dtype=np.int32))
        idx = rt.array(np.array([1], dtype=np.uint32))
        with pytest.raises(IndexError):
            af.lookup(a, idx)

    def test_assign_indexed(self, rt):
        destination = rt.constant(0, 4, np.int32)
        af.assign_indexed(
            destination,
            rt.array(np.array([3, 1], dtype=np.uint32)),
            rt.array(np.array([9, 5], dtype=np.int32)),
        )
        assert np.array_equal(destination.peek(), [0, 5, 0, 9])

    def test_join_concatenates(self, rt):
        a = rt.array(np.array([1, 2], dtype=np.int32))
        b = rt.array(np.array([3], dtype=np.int32))
        assert np.array_equal(af.join(a, b).peek(), [1, 2, 3])


class TestFusionAdvantage:
    def test_fused_selection_reads_less_than_eager(self):
        """The core ArrayFire claim: a k-predicate conjunction is one fused
        kernel, so adding predicates costs almost nothing vs. eager
        libraries' extra transform per predicate."""
        n = 1 << 20
        data = [np.arange(n, dtype=np.float64) for _ in range(3)]

        def af_time(k: int) -> float:
            device = Device()
            rt = af.ArrayFireRuntime(device)
            arrays = [rt.array(d) for d in data[:k]]
            mask = arrays[0] > 100.0
            for arr in arrays[1:]:
                mask = mask & (arr > 100.0)
            mask.eval()  # includes one JIT compile
            # measure warm
            mask2 = arrays[0] > 200.0
            for arr in arrays[1:]:
                mask2 = mask2 & (arr > 200.0)
            t0 = device.clock.now
            mask2.eval()
            return device.clock.now - t0

        one = af_time(1)
        three = af_time(3)
        # Three predicates read three columns instead of one, but still one
        # kernel: well under 3x the single-predicate time plus overheads.
        assert three < 3.2 * one
