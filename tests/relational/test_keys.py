"""The keys module returns exactly what NumPy's sort, search and unique do."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.keys import (
    exclusive_cumsum,
    searchsorted,
    stable_argsort,
    unique_inverse,
)

INT_DTYPES = [
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
]
#: Number of consecutive values the keys are drawn from: a few (so keys
#: repeat), the edges of the 16-bit radix sort, and wider (clamped to the
#: dtype).
SPANS = [1, 2, 300, 2**16 - 1, 2**16, 2**16 + 1, 2**40, 2**64]
#: Where the range sits: at the dtype's minimum, at its maximum, around 0.
PLACES = ["min", "max", "zero"]
SPECIALS = np.array(
    [np.nan, -0.0, 0.0, np.inf, -np.inf, 1.5, -2.0, np.nan, 0.0, -0.0]
)


def _keys(rng, dtype, n, span, place):
    """``n`` keys drawn from ``span`` consecutive values of ``dtype``; the
    first two are the range's ends, so the range is exactly ``span``."""
    info = np.iinfo(dtype)
    span = min(span, int(info.max) - int(info.min) + 1)
    top = int(info.max) - span + 1
    zero = max(int(info.min), min(-(span // 2), top))
    lo = {"min": int(info.min), "max": top, "zero": zero}[place]
    keys = rng.integers(lo, lo + span - 1, size=n, endpoint=True, dtype=dtype)
    keys[: min(n, 2)] = np.array([lo, lo + span - 1], dtype=dtype)[: min(n, 2)]
    return rng.permutation(keys)


def _assert_same(got, want):
    assert type(got) is type(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=got.dtype.kind == "f")


_FLOAT_SPANS = [1, 2, 300, 2**16 - 1, 2**16, 2**16 + 1, 2**40]
#: Where integer-valued float keys sit: around 0, far from it (where
#: ``1e15 + 1`` is still exact), past ``2**53`` (where it is not) and
#: near the float64 maximum.
_FLOAT_BASES = [0.0, -3.0, -60000.0, 1e15, -1e15, 2.0**53, 1e300]
#: Values that must send the keys to NumPy's sort, and ``-0.0``.
_FLOAT_SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.5, 2.0**-51, 1e-300]


@st.composite
def _float_keys(draw):
    """Integer-valued float32 or float64 keys from ``span`` consecutive
    values above ``base``; some keys then replaced by a special value or
    nudged to the next float up."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    span = draw(st.sampled_from(_FLOAT_SPANS))
    base = draw(st.sampled_from(_FLOAT_BASES))
    offsets = draw(st.lists(st.integers(0, span - 1), max_size=40))
    keys = np.array(offsets, dtype=np.float64) + base
    if len(keys):
        positions = st.integers(0, len(keys) - 1)
        for position, special in draw(
            st.lists(st.tuples(positions, st.sampled_from(_FLOAT_SPECIALS)), max_size=3)
        ):
            keys[position] = special
        for position in draw(st.lists(positions, max_size=2)):
            keys[position] = np.nextafter(keys[position], np.inf)
    with np.errstate(over="ignore"):  # 1e300 is infinite as float32
        return keys.astype(dtype)


def _any_floats():
    return st.sampled_from([np.float32, np.float64]).flatmap(
        lambda dtype: st.lists(
            st.floats(width=8 * np.dtype(dtype).itemsize), max_size=40
        ).map(lambda values: np.array(values, dtype=dtype))
    )


class TestStableArgsort:
    @pytest.mark.parametrize("dtype", INT_DTYPES)
    @pytest.mark.parametrize("span", SPANS)
    def test_matches_numpy(self, dtype, span):
        rng = np.random.default_rng(span % 1009)
        for place in PLACES:
            for n in (0, 1, 2, 3, 500):
                keys = _keys(rng, dtype, n, span, place)
                _assert_same(stable_argsort(keys), np.argsort(keys, kind="stable"))

    def test_floats_take_numpy_path(self):
        keys = np.tile(SPECIALS, 3)
        _assert_same(stable_argsort(keys), np.argsort(keys, kind="stable"))

    @settings(max_examples=300, deadline=None)
    @given(keys=st.one_of(_float_keys(), _any_floats()))
    def test_float_keys_match_numpy(self, keys):
        _assert_same(stable_argsort(keys), np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_distinct_keys_rounded_to_one_integer_stay_apart(self, dtype):
        """``fl(k - min)`` is the integer 60003 for both 3 and the next
        float above 3, so the cast alone would tie them."""
        three = dtype(3.0)
        keys = np.array([-60000.0, np.nextafter(three, dtype(4.0)), three], dtype=dtype)
        assert (keys[1:] - keys.min() == 60003).all()
        _assert_same(stable_argsort(keys), np.argsort(keys, kind="stable"))
        assert stable_argsort(keys).tolist() == [0, 2, 1]


class TestSearchsorted:
    @pytest.mark.parametrize("hay_dtype", INT_DTYPES)
    @pytest.mark.parametrize("needle_dtype", INT_DTYPES)
    def test_matches_numpy(self, hay_dtype, needle_dtype):
        rng = np.random.default_rng(17)
        info = np.iinfo(needle_dtype)
        for span in SPANS:
            for place in PLACES:
                for n in (0, 1, 200):
                    haystack = np.sort(_keys(rng, hay_dtype, n, span, place))
                    # Needles below, inside and above the haystack, the needle
                    # dtype's extremes, and every haystack key they can hold.
                    inside = [int(v) for v in haystack if info.min <= int(v) <= info.max]
                    needles = np.concatenate([
                        _keys(rng, needle_dtype, 150, span, place),
                        np.array([info.min, info.max, 0] + inside, dtype=needle_dtype),
                    ])
                    for side in ("left", "right"):
                        _assert_same(
                            searchsorted(haystack, needles, side),
                            np.searchsorted(haystack, needles, side),
                        )

    def test_empty_needles(self):
        haystack = np.arange(5, dtype=np.int32)
        needles = np.empty(0, dtype=np.int32)
        _assert_same(searchsorted(haystack, needles), np.searchsorted(haystack, needles))

    def test_floats_take_numpy_path(self):
        haystack = np.sort(SPECIALS)
        for side in ("left", "right"):
            _assert_same(
                searchsorted(haystack, SPECIALS, side),
                np.searchsorted(haystack, SPECIALS, side),
            )
        ints = np.arange(-3, 4, dtype=np.int32)
        _assert_same(searchsorted(ints, SPECIALS), np.searchsorted(ints, SPECIALS))


class TestUniqueInverse:
    @pytest.mark.parametrize("dtype", INT_DTYPES)
    @pytest.mark.parametrize("span", SPANS)
    def test_matches_numpy(self, dtype, span):
        rng = np.random.default_rng(span % 1013)
        for place in PLACES:
            for n in (0, 1, 2, 299, 300, 301, 600):
                keys = _keys(rng, dtype, n, span, place)
                got_keys, got_inverse = unique_inverse(keys)
                want_keys, want_inverse = np.unique(keys, return_inverse=True)
                _assert_same(got_keys, want_keys)
                _assert_same(got_inverse, want_inverse)

    def test_floats_take_numpy_path(self):
        keys = np.tile(SPECIALS, 2)
        got_keys, got_inverse = unique_inverse(keys)
        want_keys, want_inverse = np.unique(keys, return_inverse=True)
        _assert_same(got_keys, want_keys)
        _assert_same(got_inverse, want_inverse)


def _record_calls(monkeypatch, name):
    """The dtype of the first argument of every later call to ``np.<name>``."""
    seen = []
    numpy_function = getattr(np, name)

    def record(array, *args, **kwargs):
        seen.append(array.dtype)
        return numpy_function(array, *args, **kwargs)

    monkeypatch.setattr(np, name, record)
    return seen


def _at_the_guards(extra):
    """int32 inputs spanning as many values as each fast path admits, plus
    ``extra``: 2**16 values to sort, len(haystack) + len(needles) values to
    search (in long runs of duplicates), len(keys) values to group."""
    sort_keys = np.arange(2**16 + extra, dtype=np.int32)[::-1].copy()
    haystack = np.repeat(np.array([10, 11, 40], dtype=np.int32), [20, 5, 15])
    haystack[-1] = 10 + 40 + 30 - 1 + extra
    needles = np.arange(-5, 25, dtype=np.int32) * 3
    group_keys = np.array([3, 5, 3, 4, 7 + extra], dtype=np.int32)
    return sort_keys, haystack, needles, group_keys


def _assert_keys_match(inputs, want):
    """The keys functions on ``inputs`` return the NumPy results ``want``."""
    sort_keys, haystack, needles, group_keys = inputs
    want_order, want_left, want_right, want_groups = want
    _assert_same(stable_argsort(sort_keys), want_order)
    _assert_same(searchsorted(haystack, needles, "left"), want_left)
    _assert_same(searchsorted(haystack, needles, "right"), want_right)
    for got, wanted in zip(unique_inverse(group_keys), want_groups):
        _assert_same(got, wanted)


def _numpy_results(inputs):
    sort_keys, haystack, needles, group_keys = inputs
    return (
        np.argsort(sort_keys, kind="stable"),
        np.searchsorted(haystack, needles, "left"),
        np.searchsorted(haystack, needles, "right"),
        np.unique(group_keys, return_inverse=True),
    )


def _rolled_scan(data, acc_dtype, init):
    """The libraries' exclusive scan as it was written before
    ``exclusive_cumsum``: a full cumsum rolled right by one, its head set
    to zero, then ``init`` added."""
    out = np.cumsum(data, dtype=acc_dtype)
    if len(out):
        out = np.roll(out, 1)
        out[0] = 0
    out += acc_dtype.type(init)
    return out


def _scan_inputs(rng, dtype, n):
    """Arrays of ``n`` values of ``dtype``: for integers the dtype's full
    range (so the int64 sums of int64 and uint64 values wrap); for floats
    a plain array, one with a leading -0.0, and ones with NaN, +-inf and
    -0.0 at random places."""
    if dtype.kind == "b":
        return [rng.random(n) < 0.5]
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        return [rng.integers(info.min, info.max, size=n, endpoint=True, dtype=dtype)]
    plain = (rng.standard_normal(n) * 1e3).astype(dtype)
    leading_zero = plain.copy()
    leading_zero[:1] = -0.0
    special = plain.copy()
    places = rng.permutation(n)[: len(SPECIALS)]
    special[places] = SPECIALS[: len(places)]
    infinite = plain.copy()
    infinite[places[:3]] = np.array([np.inf, -np.inf, -0.0])[: len(places[:3])]
    return [plain, leading_zero, special, infinite]


class TestExclusiveCumsum:
    @pytest.mark.parametrize(
        "dtype", INT_DTYPES + [np.bool_, np.float32, np.float64]
    )
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 1000])
    def test_matches_the_rolled_cumsum(self, dtype, n):
        dtype = np.dtype(dtype)
        acc_dtype = np.dtype(np.float64 if dtype.kind == "f" else np.int64)
        rng = np.random.default_rng(n)
        for data in _scan_inputs(rng, dtype, n):
            for init in (0, 7, -2.5):
                with np.errstate(invalid="ignore"):  # inf + -inf
                    got = exclusive_cumsum(data, acc_dtype)
                    got += acc_dtype.type(init)
                    want = _rolled_scan(data, acc_dtype, init)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (data, init)


class TestFastPathsRun:
    """Narrow int32 keys never reach NumPy's comparison-based calls, and
    one value more than each fast path admits does."""

    def test_at_the_guards_numpy_never_runs(self, monkeypatch):
        inputs = _at_the_guards(0)
        want = _numpy_results(inputs)

        def refuse(*_args, **_kwargs):
            raise AssertionError("NumPy path taken")

        monkeypatch.setattr(np, "searchsorted", refuse)
        monkeypatch.setattr(np, "unique", refuse)
        sorted_as = _record_calls(monkeypatch, "argsort")
        _assert_keys_match(inputs, want)
        assert sorted_as == [np.dtype(np.uint16)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_integer_valued_floats_sort_as_uint16(self, monkeypatch, dtype):
        keys = (np.arange(2**16, dtype=np.float64)[::-1] - 7.0).astype(dtype)
        want = np.argsort(keys, kind="stable")
        sorted_as = _record_calls(monkeypatch, "argsort")
        _assert_same(stable_argsort(keys), want)
        assert sorted_as == [np.dtype(np.uint16)]

    @pytest.mark.parametrize("change", ["span", "fraction", "nan"])
    def test_other_floats_sort_as_themselves(self, monkeypatch, change):
        keys = np.arange(2**16, dtype=np.float64)[::-1] - 7.0
        keys[5] = {"span": 2.0**16, "fraction": 0.5, "nan": np.nan}[change]
        want = np.argsort(keys, kind="stable")
        sorted_as = _record_calls(monkeypatch, "argsort")
        _assert_same(stable_argsort(keys), want)
        assert sorted_as == [np.dtype(np.float64)]

    def test_one_value_past_the_guards_numpy_runs(self, monkeypatch):
        inputs = _at_the_guards(1)
        want = _numpy_results(inputs)
        sorted_as = _record_calls(monkeypatch, "argsort")
        searched = _record_calls(monkeypatch, "searchsorted")
        grouped = _record_calls(monkeypatch, "unique")
        _assert_keys_match(inputs, want)
        assert sorted_as == [np.dtype(np.int32)]
        assert len(searched) == 2 and len(grouped) == 1
