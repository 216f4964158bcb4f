"""ArrayFire algorithm suite (the non-fusible, eager operations).

These are the calls Table II maps database operators onto: ``where`` for
selection, ``sumByKey``/``countByKey`` for grouped aggregation,
``setIntersect``/``setUnion`` for conjunction/disjunction of row-id lists,
``sum<T>`` for reduction, ``sort``/``sortByKey``, ``scan``, and ``lookup``
(gather).  Each forces evaluation of its lazy inputs first (exactly like
real ArrayFire), then launches its own kernels.
"""

from __future__ import annotations

import builtins
from typing import Tuple

import numpy as np

from repro.errors import LibraryError
from repro.libs.arrayfire.array import Array, ArrayFireRuntime
from repro.libs.base import index_out_of_range
from repro.relational.keys import exclusive_cumsum, stable_argsort


def _runtime(array: Array) -> ArrayFireRuntime:
    return array.runtime


def _accumulator_dtype(dtype: np.dtype) -> np.dtype:
    if np.issubdtype(dtype, np.integer) or dtype == np.dtype(bool):
        return np.dtype(np.int64)
    return np.dtype(np.float64)


# ---------------------------------------------------------------------------
# Selection support
# ---------------------------------------------------------------------------

def where(condition: Array) -> Array:
    """``af::where`` — indices of non-zero elements, as uint32.

    Table II: *selection* has **full** support in ArrayFire via this single
    call.  Internally it is a scan over the (already evaluated, often
    JIT-fused) condition plus a compacting scatter — two kernels, but no
    user-visible intermediates.
    """
    runtime = _runtime(condition)
    data = condition.storage().peek()
    indices = np.flatnonzero(data).astype(np.uint32)
    n = len(condition)
    runtime._charge(
        "where::scan",
        n,
        flops=2.0,
        read=2.0 * condition.dtype.itemsize,
        written=2.0 * 4.0,
        passes=3,
    )
    runtime._charge(
        "where::compact",
        n,
        flops=1.0,
        read=condition.dtype.itemsize + 4.0,
        written=float(indices.nbytes) / builtins.max(n, 1),
    )
    return runtime.from_result(indices, "af::where_out")


def count(condition: Array) -> int:
    """``af::count`` — number of non-zero elements."""
    runtime = _runtime(condition)
    data = condition.storage().peek()
    result = int(np.count_nonzero(data))
    runtime._charge(
        "count",
        len(condition),
        flops=1.0,
        read=condition.dtype.itemsize,
        fixed_bytes=4096.0,
        passes=2,
    )
    runtime._read_scalar(np.int64(result), "af::count_result")
    return result


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def sum(array: Array) -> np.generic:
    """``af::sum<T>`` — total of all elements (Table II: *reduction*)."""
    return _reduce(array, "sum")


def product(array: Array) -> np.generic:
    """``af::product<T>``."""
    return _reduce(array, "product")


def min(array: Array) -> np.generic:
    """``af::min<T>``."""
    return _reduce(array, "min")


def max(array: Array) -> np.generic:
    """``af::max<T>``."""
    return _reduce(array, "max")


def _reduce(array: Array, kind: str) -> np.generic:
    runtime = _runtime(array)
    data = array.storage().peek()
    if len(data) == 0 and kind in ("min", "max"):
        raise LibraryError(f"af::{kind} of an empty array")
    acc = _accumulator_dtype(array.dtype)
    if kind == "sum":
        result = data.sum(dtype=acc)
    elif kind == "product":
        result = np.multiply.reduce(data.astype(acc))
    elif kind == "min":
        result = data.min()
    else:
        result = data.max()
    runtime._charge(
        f"reduce<{kind}>",
        len(array),
        flops=1.0,
        read=array.dtype.itemsize,
        fixed_bytes=4096.0,
        passes=2,
    )
    scalar = np.asarray(result).ravel()[0]
    runtime._read_scalar(scalar, f"af::{kind}_result")
    return scalar


def mean(array: Array) -> np.generic:
    """``af::mean`` — arithmetic mean of all elements."""
    runtime = _runtime(array)
    data = array.storage().peek()
    if len(data) == 0:
        raise LibraryError("af::mean of an empty array")
    result = data.mean(dtype=np.float64)
    runtime._charge(
        "mean",
        len(array),
        flops=1.0,
        read=array.dtype.itemsize,
        fixed_bytes=4096.0,
        passes=2,
    )
    scalar = np.float64(result)
    runtime._read_scalar(scalar, "af::mean_result")
    return scalar


def histogram(array: Array, bins: int, minval: float, maxval: float) -> Array:
    """``af::histogram`` — bin counts over [minval, maxval).

    Useful for group-cardinality estimation before choosing an
    aggregation strategy.  One pass with atomic bin increments (mostly
    L2-resident for moderate bin counts).
    """
    runtime = _runtime(array)
    if bins <= 0:
        raise LibraryError(f"histogram needs a positive bin count: {bins}")
    if maxval <= minval:
        raise LibraryError(
            f"histogram range is empty: [{minval}, {maxval})"
        )
    data = array.storage().peek()
    counts, _edges = np.histogram(data, bins=bins, range=(minval, maxval))
    runtime._charge(
        "histogram",
        len(array),
        flops=3.0,  # scale + clamp + atomic add
        read=array.dtype.itemsize,
        written=0.5,  # atomics mostly coalesce in L2 for moderate bins
        fixed_bytes=4.0 * bins,
        passes=2,
    )
    return runtime.from_result(
        counts.astype(np.uint32), "af::histogram_out"
    )


# ---------------------------------------------------------------------------
# Grouped aggregation (Table II: full support via *ByKey functions)
# ---------------------------------------------------------------------------

def sum_by_key(keys: Array, values: Array) -> Tuple[Array, Array]:
    """``af::sumByKey`` — segmented sum over consecutive equal keys."""
    return _reduce_by_key(keys, values, "sum")


def count_by_key(keys: Array, values: Array) -> Tuple[Array, Array]:
    """``af::countByKey`` — segmented count of non-zero values."""
    return _reduce_by_key(keys, values, "count")


def max_by_key(keys: Array, values: Array) -> Tuple[Array, Array]:
    """``af::maxByKey``."""
    return _reduce_by_key(keys, values, "max")


def min_by_key(keys: Array, values: Array) -> Tuple[Array, Array]:
    """``af::minByKey``."""
    return _reduce_by_key(keys, values, "min")


def _reduce_by_key(keys: Array, values: Array, kind: str) -> Tuple[Array, Array]:
    runtime = _runtime(keys)
    if len(keys) != len(values):
        raise LibraryError(
            f"af::{kind}ByKey: keys ({len(keys)}) and values ({len(values)}) differ"
        )
    key_data = keys.storage().peek()
    value_data = values.storage().peek()
    if len(key_data) == 0:
        out_keys = np.empty(0, dtype=keys.dtype)
        out_values = np.empty(0, dtype=values.dtype)
    else:
        boundaries = np.empty(len(key_data), dtype=bool)
        boundaries[0] = True
        np.not_equal(key_data[1:], key_data[:-1], out=boundaries[1:])
        starts = np.flatnonzero(boundaries)
        out_keys = np.ascontiguousarray(key_data[starts])
        acc = _accumulator_dtype(values.dtype)
        if kind == "sum":
            aggregated = np.add.reduceat(value_data.astype(acc), starts)
            out_values = aggregated.astype(values.dtype, copy=False)
        elif kind == "count":
            nonzero = (value_data != 0).astype(np.int64)
            out_values = np.add.reduceat(nonzero, starts).astype(np.int64)
        elif kind == "max":
            out_values = np.maximum.reduceat(value_data, starts)
        else:
            out_values = np.minimum.reduceat(value_data, starts)
        out_values = np.ascontiguousarray(out_values)
    runtime._charge(
        f"reduce_by_key<{kind}>",
        len(keys),
        flops=4.0,
        read=keys.dtype.itemsize + values.dtype.itemsize,
        fixed_bytes=float(out_keys.nbytes + out_values.nbytes),
        passes=2,
    )
    return (
        runtime.from_result(out_keys, "af::rbk_keys"),
        runtime.from_result(out_values, "af::rbk_values"),
    )


# ---------------------------------------------------------------------------
# Sorting
# ---------------------------------------------------------------------------

_RADIX_BITS_PER_PASS = 8  # ArrayFire dispatches to CUB/Thrust-class radix.


def _radix_passes(dtype: np.dtype) -> int:
    return builtins.max(1, (dtype.itemsize * 8) // _RADIX_BITS_PER_PASS)


def sort(array: Array, ascending: bool = True) -> Array:
    """``af::sort`` — returns a sorted copy (ArrayFire is out-of-place)."""
    runtime = _runtime(array)
    data = array.storage().peek()
    result = np.sort(data, kind="stable")
    if not ascending:
        result = result[::-1].copy()
    digit_passes = _radix_passes(array.dtype)
    runtime._charge(
        "sort(radix)",
        len(array),
        flops=4.0 * digit_passes,
        # +1 read/write pass: af::sort is out-of-place, so the final
        # ping-pong buffer is copied out into the fresh result array.
        read=2.0 * array.dtype.itemsize * digit_passes + array.dtype.itemsize,
        written=1.0 * array.dtype.itemsize * digit_passes
        + array.dtype.itemsize,
        passes=2 * digit_passes + 1,
    )
    return runtime.from_result(np.ascontiguousarray(result), "af::sort_out")


def sort_by_key(keys: Array, values: Array, ascending: bool = True) -> Tuple[Array, Array]:
    """``af::sort`` (key/value overload) — sorted copies of both."""
    runtime = _runtime(keys)
    if len(keys) != len(values):
        raise LibraryError(
            f"af::sort_by_key: keys ({len(keys)}) and values ({len(values)}) differ"
        )
    key_data = keys.storage().peek()
    value_data = values.storage().peek()
    order = stable_argsort(key_data)
    if not ascending:
        order = order[::-1]
    digit_passes = _radix_passes(keys.dtype)
    payload = values.dtype.itemsize
    pair = keys.dtype.itemsize + payload
    runtime._charge(
        "sort_by_key(radix)",
        len(keys),
        flops=4.0 * digit_passes,
        # +1 pair read/write pass: out-of-place copy-out (see sort()).
        read=(2.0 * keys.dtype.itemsize + payload) * digit_passes + pair,
        written=(1.0 * keys.dtype.itemsize + payload) * digit_passes + pair,
        passes=2 * digit_passes + 1,
    )
    return (
        runtime.from_result(np.ascontiguousarray(key_data[order]), "af::sort_keys"),
        runtime.from_result(np.ascontiguousarray(value_data[order]), "af::sort_vals"),
    )


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------

def accum(array: Array) -> Array:
    """``af::accum`` — inclusive prefix sum."""
    return _scan(array, inclusive=True)


def scan(array: Array, inclusive: bool = False) -> Array:
    """``af::scan`` — prefix sum; exclusive by default (Table II maps the
    *prefix sum* primitive here)."""
    return _scan(array, inclusive=inclusive)


def _scan(array: Array, inclusive: bool) -> Array:
    runtime = _runtime(array)
    data = array.storage().peek()
    acc = _accumulator_dtype(array.dtype)
    if inclusive:
        summed = np.cumsum(data, dtype=acc)
    else:
        summed = exclusive_cumsum(data, acc)
    result = summed.astype(array.dtype, copy=False)
    runtime._charge(
        "scan" if not inclusive else "accum",
        len(array),
        flops=2.0,
        read=2.0 * array.dtype.itemsize,
        written=2.0 * array.dtype.itemsize,
        passes=3,
    )
    return runtime.from_result(np.ascontiguousarray(result), "af::scan_out")


# ---------------------------------------------------------------------------
# Set operations (Table II: conjunction/disjunction over row-id lists)
# ---------------------------------------------------------------------------

def set_intersect(left: Array, right: Array, is_unique: bool = True) -> Array:
    """``af::setIntersect`` — sorted intersection of two id sets.

    The paper realizes *conjunctive selection* by intersecting the row-id
    outputs of two ``where`` calls.  ArrayFire requires sorted unique
    inputs when ``is_unique`` (true for ``where`` outputs by construction).
    """
    return _set_op(left, right, "intersect", is_unique)


def set_union(left: Array, right: Array, is_unique: bool = True) -> Array:
    """``af::setUnion`` — sorted union of two id sets (disjunction)."""
    return _set_op(left, right, "union", is_unique)


def set_unique(array: Array) -> Array:
    """``af::setUnique`` — sorted deduplication."""
    runtime = _runtime(array)
    data = array.storage().peek()
    result = np.unique(data)
    digit_passes = _radix_passes(array.dtype)
    runtime._charge(
        "set_unique",
        len(array),
        flops=4.0 * digit_passes,
        read=2.0 * array.dtype.itemsize * digit_passes,
        written=1.0 * array.dtype.itemsize * digit_passes,
        passes=2 * digit_passes,
    )
    return runtime.from_result(np.ascontiguousarray(result), "af::unique_out")


def _set_op(left: Array, right: Array, kind: str, is_unique: bool) -> Array:
    runtime = _runtime(left)
    left_data = left.storage().peek()
    right_data = right.storage().peek()
    if not is_unique:
        left_data = np.unique(left_data)
        right_data = np.unique(right_data)
    if kind == "intersect":
        result = np.intersect1d(left_data, right_data, assume_unique=True)
    else:
        result = np.union1d(left_data, right_data)
    total = len(left_data) + len(right_data)
    # Merge-based set op: one linear pass over both sorted inputs plus a
    # compaction of the output.
    runtime._charge(
        f"set_{kind}",
        total,
        flops=2.0,
        read=left.dtype.itemsize,
        written=float(result.nbytes) / builtins.max(total, 1),
        passes=2,
    )
    return runtime.from_result(
        np.ascontiguousarray(result.astype(left.dtype, copy=False)),
        f"af::set_{kind}_out",
    )


# ---------------------------------------------------------------------------
# Gather / scatter equivalents
# ---------------------------------------------------------------------------

def lookup(array: Array, indices: Array) -> Array:
    """``af::lookup`` — gather: ``out[i] = array[indices[i]]``."""
    runtime = _runtime(array)
    data = array.storage().peek()
    index_data = indices.storage().peek().astype(np.int64, copy=False)
    if index_out_of_range(index_data, len(data)):
        raise IndexError(f"lookup: index out of range [0, {len(data)})")
    result = np.ascontiguousarray(data[index_data])
    runtime._charge(
        "lookup",
        len(indices),
        flops=1.0,
        read=indices.dtype.itemsize + 4.0 * array.dtype.itemsize,
        written=array.dtype.itemsize,
    )
    return runtime.from_result(result, "af::lookup_out")


def assign_indexed(destination: Array, indices: Array, source: Array) -> None:
    """``dest(af::index(idx)) = src`` — scatter via indexed assignment."""
    runtime = _runtime(destination)
    if len(indices) != len(source):
        raise LibraryError(
            f"assign: indices ({len(indices)}) and source ({len(source)}) differ"
        )
    dest_storage = destination.storage()
    index_data = indices.storage().peek().astype(np.int64, copy=False)
    source_data = source.storage().peek()
    if index_out_of_range(index_data, len(dest_storage)):
        raise IndexError(
            f"assign: index out of range [0, {len(dest_storage)})"
        )
    dest_storage.data[index_data] = source_data
    runtime._charge(
        "assign_indexed",
        len(source),
        flops=1.0,
        read=source.dtype.itemsize + indices.dtype.itemsize,
        written=4.0 * destination.dtype.itemsize,
    )


def join(left: Array, right: Array) -> Array:
    """``af::join`` — concatenation along the first dimension."""
    runtime = _runtime(left)
    left_data = left.storage().peek()
    right_data = right.storage().peek()
    result = np.concatenate([left_data, right_data])
    runtime._charge(
        "join",
        len(left) + len(right),
        flops=0.0,
        read=left.dtype.itemsize,
        written=left.dtype.itemsize,
    )
    return runtime.from_result(np.ascontiguousarray(result), "af::join_out")
