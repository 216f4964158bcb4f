"""Property-based tests (hypothesis) on core invariants.

Each property runs across the GPU backends and asserts agreement with a
pure-NumPy model — the strongest guarantee that the paper's comparison
measures equal work on every library.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    ArrayFireBackend,
    BoostComputeBackend,
    HandwrittenBackend,
    ThrustBackend,
    col_lt,
)
from repro.core.backend import join_reference
from repro.gpu import Device
from repro.libs import arrayfire as af
from repro.libs import thrust
from repro.relational.hashjoin import join_sorted, key_dtype
from repro.relational.keys import stable_argsort

# Bounded int32 values keep sums exact in float64 accumulators.
int_arrays = arrays(
    np.int32,
    st.integers(min_value=0, max_value=200),
    elements=st.integers(min_value=-10_000, max_value=10_000),
)

nonempty_int_arrays = arrays(
    np.int32,
    st.integers(min_value=1, max_value=200),
    elements=st.integers(min_value=-10_000, max_value=10_000),
)

key_arrays = arrays(
    np.int32,
    st.integers(min_value=1, max_value=150),
    elements=st.integers(min_value=0, max_value=20),
)

BACKEND_FACTORIES = (ThrustBackend, ArrayFireBackend, HandwrittenBackend)

# Join keys: a small range so matches and duplicate runs are common.
_int_keys = st.integers(min_value=-20, max_value=20)
_float_keys = st.one_of(
    _int_keys.map(float), st.just(-0.0), st.just(float("nan"))
)
# ...and far-apart keys, so a side's range of values can be wider than
# both sides together: 0, +-70,000 and the int32 extremes, plus the int64
# extremes on an int64 side.
_INT32, _INT64 = np.iinfo(np.int32), np.iinfo(np.int64)
_WIDE_INT32 = [0, 70_000, -70_000, _INT32.min, _INT32.min + 1, _INT32.max - 1, _INT32.max]
_WIDE_INT64 = _WIDE_INT32 + [_INT64.min, _INT64.min + 1, _INT64.max - 1, _INT64.max]


def _int_side_keys(draw, dtype):
    """The small key range, or on some sides that range plus wide keys."""
    if not draw(st.booleans()):
        return _int_keys
    wide = _WIDE_INT64 if np.dtype(dtype) == np.int64 else _WIDE_INT32
    return st.one_of(_int_keys, st.sampled_from(wide))


@st.composite
def _dense_sides(draw):
    """A unique build side spanning exactly m + n or m + n + 1 values, the
    direct-address table's limit and one past it, anywhere in its dtype's
    range (the int64 ends too, where ``lo - 1`` or ``hi + 1`` overflow),
    probed by n keys from around that span.  uint64 keys must take the
    general path."""
    dtype = np.dtype(draw(st.sampled_from(
        [np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
    )))
    info = np.iinfo(dtype)
    n, m = draw(st.integers(0, 20)), draw(st.integers(2, 20))
    span = m + n + draw(st.integers(0, 1))
    lo = draw(st.one_of(
        st.sampled_from([info.min, info.min + 1, info.max - span, info.max - span + 1]),
        st.integers(info.min, info.max - span + 1),
    ))
    hi = lo + span - 1
    inner = draw(st.lists(
        st.integers(lo + 1, hi - 1), min_size=m - 2, max_size=m - 2, unique=True
    ) if m > 2 else st.just([]))
    right = np.array(draw(st.permutations([lo, hi] + inner)), dtype=dtype)
    probe_dtype = dtype if dtype == np.uint64 else draw(
        st.sampled_from([dtype, np.dtype(np.int64)])
    )
    left = draw(arrays(probe_dtype, n, elements=st.integers(
        max(lo - 2, info.min), min(hi + 2, info.max)
    )))
    return left, right


@st.composite
def _near_2_53_sides(draw):
    """float64/int64 or int64/uint64 sides, either way round, whose keys
    lie around 2**53: their common dtype is float64, in which neighbouring
    integers there become equal.  Against a float64 side they are equal,
    so a side sorted in its own dtype is not sorted in the common one;
    int64 against uint64 must compare exactly.  At most 7 keys a side: a
    float64 side has only 7 distinct values to draw a unique build side
    from."""
    dtypes = draw(st.permutations(draw(st.sampled_from(
        [(np.float64, np.int64), (np.int64, np.uint64)]
    ))))
    keys = st.integers(2**53 - 4, 2**53 + 4)
    left, right = (
        draw(arrays(
            dtype, st.integers(0, 7), unique=unique,
            elements=keys.map(float) if dtype == np.float64 else keys,
        ))
        for dtype, unique in zip(dtypes, (False, draw(st.booleans())))
    )
    return left, right


@st.composite
def join_sides(draw):
    """(left keys, right keys): int32, int64, float64 or mixed int sides,
    either side possibly empty, the right (build) side unique or not.
    An int side may also hold wide keys, so ``join_reference`` runs both
    its NumPy path and its lookup table, with probes outside the build
    side's range.  Dense unique build sides (:func:`_dense_sides`) draw
    the guards of the direct-address path, and keys around 2**53
    (:func:`_near_2_53_sides`) sides that are equal only once cast."""
    kind = draw(st.sampled_from(
        ["int32", "int64", "float64", "mixed", "dense", "near-2**53"]
    ))
    if kind == "dense":
        return draw(_dense_sides())
    if kind == "near-2**53":
        return draw(_near_2_53_sides())
    if kind == "mixed":
        dtypes = draw(st.permutations([np.int32, np.int64]))
    else:
        dtypes = [np.dtype(kind)] * 2
    if kind == "float64":
        left_keys = right_keys = _float_keys
    else:
        left_keys, right_keys = (_int_side_keys(draw, dtype) for dtype in dtypes)
    left = draw(arrays(dtypes[0], st.integers(0, 30), elements=left_keys))
    right = draw(arrays(
        dtypes[1], st.integers(0, 30), elements=right_keys,
        unique=draw(st.booleans()),
    ))
    return left, right


def _brute_force_join(left, right):
    """Every (left id, right id) pair whose keys are equal, NaN == NaN.
    Two integer sides compare exactly, as NumPy's ``==`` compares them
    (int64 with uint64 included); a float side compares in the common
    dtype of both sides."""
    floats = "f" in (left.dtype.kind, right.dtype.kind)
    if floats:
        dtype = np.result_type(left.dtype, right.dtype)
        left, right = left.astype(dtype), right.astype(dtype)
    equal = left[:, None] == right[None, :]
    if floats:
        equal |= np.isnan(left)[:, None] & np.isnan(right)[None, :]
    left_ids, right_ids = np.nonzero(equal)
    return left_ids.astype(np.int64), right_ids.astype(np.int64)


def _backends():
    return [factory(Device()) for factory in BACKEND_FACTORIES]


class TestScanProperties:
    @given(data=int_arrays)
    @settings(max_examples=40, deadline=None)
    def test_exclusive_scan_matches_cumsum(self, data):
        rt = thrust.ThrustRuntime(Device())
        v = rt.device_vector(data)
        out = thrust.exclusive_scan(v).peek()
        expected = np.concatenate([[0], np.cumsum(data[:-1], dtype=np.int64)])
        if len(data) == 0:
            assert len(out) == 0
        else:
            assert np.array_equal(out.astype(np.int64), expected)

    @given(data=nonempty_int_arrays)
    @settings(max_examples=40, deadline=None)
    def test_scan_last_plus_last_element_equals_sum(self, data):
        """The stream-compaction sizing identity the selection chain uses."""
        rt = thrust.ThrustRuntime(Device())
        flags = (data > 0).astype(np.int32)
        v = rt.device_vector(flags)
        scanned = thrust.exclusive_scan(v).peek()
        assert scanned[-1] + flags[-1] == flags.sum()


class TestSortProperties:
    @given(data=nonempty_int_arrays)
    @settings(max_examples=30, deadline=None)
    def test_sort_is_permutation_and_ordered(self, data):
        for backend in _backends():
            out = backend.download(backend.sort(backend.upload(data)))
            assert np.array_equal(np.sort(data), out), backend.name

    @given(keys=key_arrays)
    @settings(max_examples=30, deadline=None)
    def test_sort_by_key_preserves_pairs(self, keys):
        values = np.arange(len(keys), dtype=np.int64)
        for backend in _backends():
            out_keys, out_values = backend.sort_by_key(
                backend.upload(keys), backend.upload(values)
            )
            got_keys = backend.download(out_keys)
            got_values = backend.download(out_values)
            # Keys sorted; the (key, value) multiset is preserved.
            assert np.all(got_keys[:-1] <= got_keys[1:])
            original = sorted(zip(keys.tolist(), values.tolist()))
            recovered = sorted(zip(got_keys.tolist(), got_values.tolist()))
            assert original == recovered, backend.name


class TestSelectionProperties:
    @given(data=nonempty_int_arrays,
           threshold=st.integers(min_value=-10_001, max_value=10_001))
    @settings(max_examples=30, deadline=None)
    def test_selection_matches_numpy_mask(self, data, threshold):
        expected = np.flatnonzero(data < threshold)
        for backend in _backends():
            ids = backend.selection(
                {"x": backend.upload(data)}, col_lt("x", threshold)
            )
            got = np.sort(backend.download(ids).astype(np.int64))
            assert np.array_equal(got, expected), backend.name

    @given(data=nonempty_int_arrays,
           low=st.integers(min_value=-100, max_value=100),
           span=st.integers(min_value=0, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_conjunction_equals_mask_intersection(self, data, low, span):
        from repro.core import col_ge, col_le

        predicate = col_ge("x", low) & col_le("x", low + span)
        expected = np.flatnonzero((data >= low) & (data <= low + span))
        for backend in _backends():
            ids = backend.selection(
                {"x": backend.upload(data)}, predicate
            )
            got = np.sort(backend.download(ids).astype(np.int64))
            assert np.array_equal(got, expected), backend.name


class TestGroupByProperties:
    @given(keys=key_arrays)
    @settings(max_examples=25, deadline=None)
    def test_group_sums_total_to_column_sum(self, keys):
        values = np.ones(len(keys), dtype=np.float64)
        for backend in _backends():
            _group_keys, group_values = backend.grouped_aggregation(
                backend.upload(keys), backend.upload(values), "sum"
            )
            total = backend.download(group_values).sum()
            assert total == pytest.approx(len(keys)), backend.name

    @given(keys=key_arrays)
    @settings(max_examples=25, deadline=None)
    def test_group_keys_are_unique_and_sorted(self, keys):
        values = np.zeros(len(keys), dtype=np.float64)
        for backend in _backends():
            group_keys, _values = backend.grouped_aggregation(
                backend.upload(keys), backend.upload(values), "count"
            )
            got = backend.download(group_keys).astype(np.int64)
            assert np.array_equal(got, np.unique(keys)), backend.name


class TestJoinProperties:
    @given(
        left=arrays(np.int32, st.integers(min_value=0, max_value=60),
                    elements=st.integers(min_value=0, max_value=10)),
        right=arrays(np.int32, st.integers(min_value=0, max_value=60),
                     elements=st.integers(min_value=0, max_value=10)),
    )
    @settings(max_examples=25, deadline=None)
    def test_join_cardinality_equals_key_histogram_product(self, left, right):
        """|L ⋈ R| = Σ_k count_L(k) · count_R(k)."""
        left_ids, right_ids = join_reference(left, right)
        expected = 0
        for key in np.unique(left):
            expected += (left == key).sum() * (right == key).sum()
        assert len(left_ids) == expected
        # Every emitted pair actually matches.
        assert np.array_equal(left[left_ids], right[right_ids])

    @given(
        left=arrays(np.int32, st.integers(min_value=1, max_value=50),
                    elements=st.integers(min_value=0, max_value=8)),
        right=arrays(np.int32, st.integers(min_value=1, max_value=50),
                     elements=st.integers(min_value=0, max_value=8)),
    )
    @settings(max_examples=20, deadline=None)
    def test_all_join_algorithms_agree(self, left, right):
        reference = join_reference(left, right)
        backend = HandwrittenBackend(Device())
        lh, rh = backend.upload(left), backend.upload(right)
        for method in ("nested_loop_join", "merge_join", "hash_join"):
            got_l, got_r = getattr(backend, method)(lh, rh)
            dl = backend.download(got_l).astype(np.int64)
            dr = backend.download(got_r).astype(np.int64)
            order = np.lexsort((dr, dl))
            assert np.array_equal(dl[order], reference[0]), method
            assert np.array_equal(dr[order], reference[1]), method

    @given(sides=join_sides())
    @example(sides=(
        np.array([2**53 + 1], dtype=np.int64),
        np.array([2**53], dtype=np.uint64),
    ))
    @example(sides=(
        np.array([2**64 - 1, 2**63 - 1, 7, 7], dtype=np.uint64),
        np.array([-1, 7, 2**63 - 1, -1], dtype=np.int64),
    ))
    @settings(max_examples=150, deadline=None)
    def test_join_reference_matches_brute_force(self, sides):
        """Same pairs, same canonical order, both arrays int64, from
        join_reference and from the pair kernel on a build side sorted
        elsewhere, in the dtype join_sorted requires.  The examples are
        int64 against uint64 keys that are equal only in float64, and a
        uint64 key above int64's maximum that wraps to a negative key
        when cast."""
        left, right = sides
        want_l, want_r = _brute_force_join(left, right)
        order = stable_argsort(right.astype(key_dtype(left.dtype, right.dtype)))
        for got_l, got_r in (
            join_reference(left, right),
            join_sorted(left, right[order], order),
        ):
            assert got_l.dtype == np.int64 and got_r.dtype == np.int64
            assert np.array_equal(got_l, want_l)
            assert np.array_equal(got_r, want_r)

    @pytest.mark.parametrize("factory", [ThrustBackend, BoostComputeBackend])
    @given(sides=join_sides())
    @example(sides=(
        np.array([2.0**53]), np.array([2**53 + 1, 2**53], dtype=np.int64)
    ))
    @settings(max_examples=40, deadline=None)
    def test_stl_merge_join_emits_canonical_order(self, factory, sides):
        """The composed merge join returns join_reference's arrays as they
        are (no caller re-sorts its pairs), and its expansion kernel is
        charged one element per pair.  The explicit example's right keys
        sort as [2**53, 2**53 + 1] in int64 but are one run in float64,
        where the pairs must list right id 0 before 1."""
        left, right = sides
        backend = factory(Device())
        got_l, got_r = backend.merge_join(
            backend.upload(left), backend.upload(right)
        )
        want_l, want_r = join_reference(left, right)
        assert np.array_equal(backend.download(got_l), want_l)
        assert np.array_equal(backend.download(got_r), want_r)
        (expand,) = [
            event for event in backend.device.profiler.iter_kind("kernel")
            if event.name.endswith("merge_join_expand")
        ]
        assert expand.payload["elements"] == len(want_l)


class TestJitProperties:
    @given(
        data=arrays(np.float64, st.integers(min_value=1, max_value=100),
                    elements=st.floats(min_value=-1e6, max_value=1e6,
                                       allow_nan=False)),
        a=st.floats(min_value=-100, max_value=100, allow_nan=False),
        b=st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_fused_evaluation_matches_numpy(self, data, a, b):
        rt = af.ArrayFireRuntime(Device())
        array = rt.array(data)
        fused = (array * a + b).peek()
        assert np.allclose(fused, data * a + b)

    @given(
        data=arrays(np.float64, st.integers(min_value=1, max_value=100),
                    elements=st.floats(min_value=-1e6, max_value=1e6,
                                       allow_nan=False)),
    )
    @settings(max_examples=30, deadline=None)
    def test_fusion_on_off_agree(self, data):
        """JIT fusion is a pure optimisation: results are identical."""
        fused_rt = af.ArrayFireRuntime(Device(), fusion_enabled=True)
        eager_rt = af.ArrayFireRuntime(Device(), fusion_enabled=False)
        fused = ((fused_rt.array(data) * 2.0 + 1.0) > 0.0).peek()
        eager = ((eager_rt.array(data) * 2.0 + 1.0) > 0.0).peek()
        assert np.array_equal(fused, eager)


class TestPrefixSumProperties:
    @given(data=nonempty_int_arrays)
    @settings(max_examples=25, deadline=None)
    def test_prefix_sum_differences_recover_input(self, data):
        for backend in _backends():
            scanned = backend.download(
                backend.prefix_sum(backend.upload(data))
            ).astype(np.int64)
            recovered = np.diff(
                np.concatenate([scanned, [scanned[-1] + data[-1]]])
            )
            assert np.array_equal(recovered, data), backend.name


class TestScatterGatherProperties:
    @given(n=st.integers(min_value=1, max_value=300),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_scatter_then_gather_is_identity_on_permutations(self, n, seed):
        rng = np.random.default_rng(seed)
        data = rng.random(n)
        perm = rng.permutation(n).astype(np.int32)
        for backend in _backends():
            scattered = backend.scatter(
                backend.upload(data), backend.upload(perm), n
            )
            gathered = backend.download(
                backend.gather(scattered, backend.upload(perm))
            )
            assert np.allclose(gathered, data), backend.name
