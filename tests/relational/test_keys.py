"""The keys module returns exactly what NumPy's sort, search and unique do."""

import numpy as np
import pytest

from repro.relational.keys import searchsorted, stable_argsort, unique_inverse

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

    def test_one_value_past_the_guards_numpy_runs(self, monkeypatch):
        inputs = _at_the_guards(1)
        want = _numpy_results(inputs)
        sorted_as = _record_calls(monkeypatch, "argsort")
        searched = _record_calls(monkeypatch, "searchsorted")
        grouped = _record_calls(monkeypatch, "unique")
        _assert_keys_match(inputs, want)
        assert sorted_as == [np.dtype(np.int32)]
        assert len(searched) == 2 and len(grouped) == 1
