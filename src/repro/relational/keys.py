"""Exact linear-time sorts and searches of narrow integer keys, and an
exclusive scan without a rolled copy.

Grouped aggregation, the libraries' ``sort_by_key``, ``lower_bound`` and
``upper_bound``, and :func:`~repro.relational.hashjoin.join_reference`
spend much of their host time in three NumPy calls.  NumPy sorts 32- and
64-bit keys with a comparison sort (timsort for ``kind="stable"``) and
searches with one binary search per needle.  The three functions here
return, value for value and dtype for dtype, what those calls return.
When the keys are integers over a narrow range of values, they compute
it in linear time; otherwise they call NumPy.

* :func:`stable_argsort` is ``np.argsort(keys, kind="stable")``.  When
  ``max - min < 2**16``, ``keys - min`` lies in ``[0, 2**16)``, so the
  subtraction cannot overflow and the cast to ``uint16`` loses nothing.
  Subtracting one constant keeps the order of every two keys and keeps
  equal keys equal, so a stable sort of the shifted keys yields the same
  permutation.  NumPy's stable sort of 16-bit keys is an LSD radix sort.
  Float keys (the libraries' composite group keys are ``float64``) take
  the same path when two checks hold for every key ``k``.  First, the
  ``uint16`` cast of ``s = fl(k - min)`` equals ``s``, which rejects NaN,
  infinities, fractions and spans of ``2**16`` or more.  Second,
  ``fl(s + min) == k``: a rounded subtraction can map two distinct keys
  to one integer (``3.0`` and ``3.0 + 2**-51`` both become ``60003.0``
  when the minimum is ``-60000.0``), and this round trip tells them apart
  again, so distinct keys keep distinct ``uint16`` values.  Rounding is
  monotone, so they also keep their order, and equal keys, ``-0.0`` and
  ``0.0`` among them, stay equal.
* :func:`searchsorted` is ``np.searchsorted(haystack, needles, side)``
  on an ascending haystack, which is NumPy's own precondition; on other
  haystacks the result is unspecified and the call may raise.  With
  ``lo = haystack[0]`` and ``hi = haystack[-1]``, ``table[k]`` counts the
  keys below ``lo - 1 + k`` for ``k`` in ``[0, span + 1]``.  A needle
  ``x`` has left position ``table[x - (lo - 1)]``, the number of keys
  below ``x``, and right position ``table[x - (lo - 2)]``, the number
  below ``x + 1``.  Every needle below ``lo`` has the counts of
  ``lo - 1`` and every needle above ``hi`` those of ``hi + 1``, so
  clipping the needles to ``[lo - 1, hi + 1]`` changes no answer; the
  right position of ``hi + 1`` is capped at ``table[span + 1]``, all
  keys.  Needles are compared as ``int64``, which holds every value of
  every integer dtype the guard admits.  :func:`table_span` is that
  guard; :func:`~repro.relational.hashjoin.join_sorted` sizes its
  direct-address table of unique build keys by it too.
* :func:`unique_inverse` is ``np.unique(keys, return_inverse=True)``.
  A presence table over ``[min, max]`` lists the distinct keys in
  ascending order, and its running count minus one is each distinct
  key's index among them.

Each table has at most as many entries as the inputs have elements (two
more for the search), so no fast path allocates more than its inputs.

:func:`exclusive_cumsum` is the exclusive prefix sum the libraries' scans
return: ``np.cumsum``, shifted right by one with a zero head.  It writes
the prefix sums of ``data[:-1]`` behind the zero instead of rolling a
full copy.  ``np.cumsum`` adds in order, so those are the first
``n - 1`` prefix sums of ``data``, float rounding included.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Keys whose values span fewer than this many integers sort as ``uint16``.
_RADIX_SPAN = 1 << 16
_INT64 = np.iinfo(np.int64)


def _fits_int64(dtype: np.dtype) -> bool:
    return dtype.kind in "iu" and np.can_cast(dtype, np.int64)


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``, in linear time when the keys
    are integers wider than 16 bits, or integer-valued floats, spanning
    fewer than ``2**16`` values."""
    if keys.size > 1:
        kind = keys.dtype.kind
        if kind in "iu" and keys.dtype.itemsize > 2:
            lo = keys.min()
            if int(keys.max()) - int(lo) < _RADIX_SPAN:
                return np.argsort((keys - lo).astype(np.uint16), kind="stable")
        elif kind == "f":
            lo = keys.min()
            # NaN, infinities and spans past uint16 cast to garbage here;
            # the checks below reject every such key.
            with np.errstate(invalid="ignore", over="ignore"):
                shifted = keys - lo
                radix = shifted.astype(np.uint16)
                exact = (radix == shifted).all() and (shifted + lo == keys).all()
            if exact:
                return np.argsort(radix, kind="stable")
    return np.argsort(keys, kind="stable")


def searchsorted(
    haystack: np.ndarray, needles: np.ndarray, side: str = "left"
) -> np.ndarray:
    """``np.searchsorted(haystack, needles, side)`` for an ascending
    haystack, by one table lookup per needle when both arrays are
    integers and the haystack spans no more values than the inputs hold."""
    span = table_span(haystack, needles)
    if span:
        lo, hi = int(haystack[0]), int(haystack[-1])
        table = np.zeros(span + 2, dtype=np.intp)
        np.cumsum(
            np.bincount(haystack.astype(np.intp) - lo, minlength=span),
            out=table[2:],
        )
        index = needles.astype(np.int64)
        np.clip(index, lo - 1, hi + 1, out=index)
        if side == "left":
            index -= lo - 1
        else:
            index -= lo - 2
            np.minimum(index, span + 1, out=index)
        return table[index]
    return np.searchsorted(haystack, needles, side=side)


def table_span(haystack: np.ndarray, needles: np.ndarray) -> int:
    """``haystack[-1] - haystack[0] + 1`` when an ascending haystack can be
    searched through a table of that many entries (plus two), else 0.

    Both arrays must be integers castable to ``int64``, the span at most
    the number of elements they hold together, and ``haystack[0] - 2``
    and ``haystack[-1] + 1`` within ``int64``, so no index computed from
    the clipped needles overflows.
    """
    if (
        haystack.ndim == 1
        and len(haystack)
        and _fits_int64(haystack.dtype)
        and _fits_int64(needles.dtype)
    ):
        lo, hi = int(haystack[0]), int(haystack[-1])
        span = hi - lo + 1
        if (
            0 < span <= len(haystack) + needles.size
            and lo - 2 >= _INT64.min
            and hi + 1 <= _INT64.max
        ):
            return span
    return 0


def unique_inverse(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)``, in linear time when the
    keys are integers spanning no more values than there are keys."""
    if keys.ndim == 1 and len(keys) and _fits_int64(keys.dtype):
        lo = int(keys.min())
        span = int(keys.max()) - lo + 1
        if span <= len(keys):
            offsets = keys.astype(np.intp) - lo
            present = np.zeros(span, dtype=bool)
            present[offsets] = True
            uniques = (np.flatnonzero(present) + lo).astype(keys.dtype)
            inverse = (np.cumsum(present, dtype=np.intp) - 1)[offsets]
            return uniques, inverse
    return np.unique(keys, return_inverse=True)


def exclusive_cumsum(data: np.ndarray, acc_dtype: np.dtype) -> np.ndarray:
    """``np.roll(np.cumsum(data, dtype=acc_dtype), 1)`` with the head set
    to zero: ``out[i]`` is the sum of ``data[:i]`` in ``acc_dtype``."""
    out = np.empty(len(data), dtype=acc_dtype)
    if len(data):
        out[0] = 0
        np.cumsum(data[:-1], dtype=acc_dtype, out=out[1:])
    return out
