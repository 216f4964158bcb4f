"""Thrust algorithm suite.

Function names, argument shapes, and in-place/out-of-place behaviour mirror
the C++ API.  Each algorithm's cost annotation (kernel launches, DRAM
traffic, passes) models the documented structure of the real Thrust
implementation; the citation for each shape is inlined as a comment.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import LibraryError
from repro.libs.base import check_same_length, index_out_of_range
from repro.libs.thrust.functional import Functor
from repro.libs.thrust.vector import ThrustRuntime, device_vector
from repro.relational.keys import exclusive_cumsum, searchsorted, stable_argsort


def _runtime(vector: device_vector) -> ThrustRuntime:
    runtime = vector.runtime
    if not isinstance(runtime, ThrustRuntime):
        raise LibraryError(
            f"vector belongs to {type(runtime).__name__}, expected ThrustRuntime"
        )
    return runtime


# ---------------------------------------------------------------------------
# Elementwise transforms
# ---------------------------------------------------------------------------

def transform(
    first: device_vector,
    functor: Functor,
    second: Optional[device_vector] = None,
) -> device_vector:
    """``thrust::transform`` — unary or binary elementwise map.

    One kernel: reads each input once, writes the output once.
    """
    runtime = _runtime(first)
    if functor.arity == 1:
        if second is not None:
            raise TypeError(f"unary functor {functor.name!r} given two inputs")
        result = functor(first.data)
        read = first.itemsize
    elif functor.arity == 2:
        if second is None:
            raise TypeError(f"binary functor {functor.name!r} given one input")
        check_same_length(first, second, f"transform({functor.name})")
        result = functor(first.data, second.data)
        read = first.itemsize + second.itemsize
    else:
        raise TypeError(f"transform supports arity 1 or 2, got {functor.arity}")
    result = np.ascontiguousarray(result)
    runtime._charge(
        f"transform<{functor.name}>",
        len(first),
        flops=functor.flops,
        read=read,
        written=result.dtype.itemsize,
    )
    return runtime.from_result(result, "thrust::transform_out")


def for_each_n(
    vector: device_vector,
    n: int,
    functor: Functor,
) -> None:
    """``thrust::for_each_n`` — apply a side-effecting functor to the first
    ``n`` elements in place.

    Table II: the paper realizes the *nested-loops join* with
    ``for_each_n`` (each outer element's functor scans the inner relation);
    see :func:`nested_loop_join_via_for_each` for that composition.
    """
    runtime = _runtime(vector)
    if n < 0 or n > len(vector):
        raise IndexError(f"for_each_n: n={n} out of range for {len(vector)}")
    vector.data[:n] = functor(vector.data[:n])
    runtime._charge(
        f"for_each_n<{functor.name}>",
        n,
        flops=functor.flops,
        read=vector.itemsize,
        written=vector.itemsize,
    )


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def reduce(
    vector: device_vector,
    init: float = 0.0,
    functor: Optional[Functor] = None,
) -> np.generic:
    """``thrust::reduce`` — fold the vector into a scalar.

    Thrust's reduction runs a grid-wide partial-sum kernel followed by a
    tiny final pass over the per-block partials (two passes, one logical
    launch pair); the result is copied back to the host.
    """
    runtime = _runtime(vector)
    if functor is None:
        result = vector.data.sum(dtype=_accumulator_dtype(vector.dtype)) + init
    elif functor.name == "maximum":
        result = np.maximum.reduce(vector.data, initial=init)
    elif functor.name == "minimum":
        result = np.minimum.reduce(vector.data, initial=init)
    elif functor.name == "multiplies":
        product = np.multiply.reduce(
            vector.data.astype(_accumulator_dtype(vector.dtype))
        )
        result = product * init if init != 0.0 else product
    else:
        result = _fold(vector.data, functor, init)
    runtime._charge(
        f"reduce<{functor.name if functor else 'plus'}>",
        len(vector),
        flops=(functor.flops if functor else 1.0),
        read=vector.itemsize,
        # Per-block partials are negligible traffic; the final pass is the
        # fixed tail below.
        written=0.0,
        fixed_bytes=4096.0,
        passes=2,
    )
    scalar = np.asarray(result).ravel()[0]
    runtime._read_scalar(scalar, "thrust::reduce_result")
    return scalar


def count_if(vector: device_vector, predicate: Functor) -> int:
    """``thrust::count_if`` — number of elements satisfying ``predicate``.

    Same structure as :func:`reduce` with the predicate fused into the
    load.
    """
    runtime = _runtime(vector)
    mask = predicate(vector.data)
    count = int(np.count_nonzero(mask))
    runtime._charge(
        f"count_if<{predicate.name}>",
        len(vector),
        flops=predicate.flops + 1.0,
        read=vector.itemsize,
        fixed_bytes=4096.0,
        passes=2,
    )
    runtime._read_scalar(np.int64(count), "thrust::count_result")
    return count


def transform_reduce(
    vector: device_vector,
    transform_functor: Functor,
    init: float = 0.0,
) -> np.generic:
    """``thrust::transform_reduce`` — fused map + plus-fold, one pass.

    The fusion matters: ``sum(price * discount)`` via transform_reduce
    reads each input once, where ``transform`` + ``reduce`` materialises
    the product column.
    """
    runtime = _runtime(vector)
    if transform_functor.arity != 1:
        raise TypeError(
            f"transform_reduce expects a unary functor, got "
            f"{transform_functor.arity}"
        )
    mapped = transform_functor(vector.data)
    result = np.asarray(mapped).sum(dtype=np.float64) + init
    runtime._charge(
        f"transform_reduce<{transform_functor.name}>",
        len(vector),
        flops=transform_functor.flops + 1.0,
        read=vector.itemsize,
        fixed_bytes=4096.0,
        passes=2,
    )
    scalar = np.float64(result)
    runtime._read_scalar(scalar, "thrust::transform_reduce_result")
    return scalar


def inner_product(
    first: device_vector,
    second: device_vector,
    init: float = 0.0,
) -> np.generic:
    """``thrust::inner_product`` — fused dot product (Q6's
    ``sum(l_extendedprice * l_discount)`` in one library call)."""
    runtime = _runtime(first)
    check_same_length(first, second, "inner_product")
    result = np.dot(
        first.data.astype(np.float64), second.data.astype(np.float64)
    ) + init
    runtime._charge(
        "inner_product",
        len(first),
        flops=2.0,
        read=first.itemsize + second.itemsize,
        fixed_bytes=4096.0,
        passes=2,
    )
    scalar = np.float64(result)
    runtime._read_scalar(scalar, "thrust::inner_product_result")
    return scalar


def max_element(vector: device_vector) -> int:
    """``thrust::max_element`` — *position* of the maximum (first win)."""
    return _arg_extreme(vector, "max")


def min_element(vector: device_vector) -> int:
    """``thrust::min_element`` — position of the minimum (first win)."""
    return _arg_extreme(vector, "min")


def _arg_extreme(vector: device_vector, kind: str) -> int:
    runtime = _runtime(vector)
    if len(vector) == 0:
        raise LibraryError(f"{kind}_element of an empty vector")
    position = int(
        np.argmax(vector.data) if kind == "max" else np.argmin(vector.data)
    )
    runtime._charge(
        f"{kind}_element",
        len(vector),
        flops=2.0,  # compare + index tracking
        read=vector.itemsize,
        fixed_bytes=4096.0,
        passes=2,
    )
    runtime._read_scalar(np.int64(position), f"thrust::{kind}_element_result")
    return position


def adjacent_difference(vector: device_vector) -> device_vector:
    """``thrust::adjacent_difference`` — ``out[0]=in[0]; out[i]=in[i]-in[i-1]``.

    The classic run-boundary detector (used to find group boundaries in
    sorted key columns)."""
    runtime = _runtime(vector)
    data = vector.data
    result = np.empty_like(data)
    if len(data):
        result[0] = data[0]
        np.subtract(data[1:], data[:-1], out=result[1:])
    runtime._charge(
        "adjacent_difference",
        len(vector),
        flops=1.0,
        read=vector.itemsize,
        written=vector.itemsize,
    )
    return runtime.from_result(result, "thrust::adjacent_difference_out")


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------

def exclusive_scan(
    vector: device_vector,
    init: float = 0.0,
) -> device_vector:
    """``thrust::exclusive_scan`` — exclusive prefix sum.

    Table II: *prefix sum* maps directly onto this call, and it is the
    middle step of the selection chain (flags → write positions).  Thrust
    implements scan with a three-phase chained-scan (scan blocks, scan the
    spine, add offsets): the data is read twice and written twice.
    """
    runtime = _runtime(vector)
    acc_dtype = _accumulator_dtype(vector.dtype)
    shifted = exclusive_cumsum(vector.data, acc_dtype)
    shifted += acc_dtype.type(init)
    result = shifted.astype(vector.dtype, copy=False)
    runtime._charge(
        "exclusive_scan",
        len(vector),
        flops=2.0,
        read=2.0 * vector.itemsize,
        written=2.0 * vector.itemsize,
        passes=3,
    )
    return runtime.from_result(np.ascontiguousarray(result), "thrust::scan_out")


def inclusive_scan(vector: device_vector) -> device_vector:
    """``thrust::inclusive_scan`` — inclusive prefix sum (same cost shape
    as :func:`exclusive_scan`)."""
    runtime = _runtime(vector)
    acc_dtype = _accumulator_dtype(vector.dtype)
    result = np.cumsum(vector.data, dtype=acc_dtype).astype(
        vector.dtype, copy=False
    )
    runtime._charge(
        "inclusive_scan",
        len(vector),
        flops=2.0,
        read=2.0 * vector.itemsize,
        written=2.0 * vector.itemsize,
        passes=3,
    )
    return runtime.from_result(np.ascontiguousarray(result), "thrust::scan_out")


# ---------------------------------------------------------------------------
# Sorting
# ---------------------------------------------------------------------------

#: Radix sort processes 8 bits per digit pass; a 32-bit key therefore takes
#: 4 digit passes, each with an upsweep (histogram) read and a downsweep
#: scatter (read + write) — i.e. per digit pass the keys cross DRAM ~3x.
_RADIX_BITS_PER_PASS = 8


def _radix_passes(dtype: np.dtype) -> int:
    return max(1, (dtype.itemsize * 8) // _RADIX_BITS_PER_PASS)


def sort(vector: device_vector, descending: bool = False) -> None:
    """``thrust::sort`` — in-place radix sort for primitive keys."""
    runtime = _runtime(vector)
    vector.data.sort(kind="stable")
    if descending:
        vector.data[:] = vector.data[::-1]
    digit_passes = _radix_passes(vector.dtype)
    runtime._charge(
        "sort(radix)",
        len(vector),
        flops=4.0 * digit_passes,
        # Histogram read + scatter read + scatter write per digit pass.
        read=2.0 * vector.itemsize * digit_passes,
        written=1.0 * vector.itemsize * digit_passes,
        passes=2 * digit_passes,
    )


def sort_by_key(keys: device_vector, values: device_vector,
                descending: bool = False) -> None:
    """``thrust::sort_by_key`` — in-place key/value radix sort.

    Table II: *sort by key* maps directly onto this call; it is also the
    mandatory pre-pass for grouped aggregation with ``reduce_by_key``.
    """
    runtime = _runtime(keys)
    check_same_length(keys, values, "sort_by_key")
    order = stable_argsort(keys.data)
    if descending:
        order = order[::-1]
    keys.data[:] = keys.data[order]
    values.data[:] = values.data[order]
    digit_passes = _radix_passes(keys.dtype)
    payload = values.itemsize
    runtime._charge(
        "sort_by_key(radix)",
        len(keys),
        flops=4.0 * digit_passes,
        # Keys as in sort(); values are additionally gathered+scattered on
        # every digit pass.
        read=(2.0 * keys.itemsize + payload) * digit_passes,
        written=(1.0 * keys.itemsize + payload) * digit_passes,
        passes=2 * digit_passes,
    )


def is_sorted(vector: device_vector) -> bool:
    """``thrust::is_sorted`` — single streaming pass."""
    runtime = _runtime(vector)
    result = bool(np.all(vector.data[:-1] <= vector.data[1:]))
    runtime._charge(
        "is_sorted",
        len(vector),
        flops=1.0,
        read=vector.itemsize,
        fixed_bytes=4096.0,
        passes=2,
    )
    runtime._read_scalar(np.bool_(result), "thrust::is_sorted_result")
    return result


# ---------------------------------------------------------------------------
# Key-grouped reduction (Table II: grouped aggregation)
# ---------------------------------------------------------------------------

def reduce_by_key(
    keys: device_vector,
    values: device_vector,
    functor: Optional[Functor] = None,
) -> Tuple[device_vector, device_vector]:
    """``thrust::reduce_by_key`` — segmented reduction over *consecutive*
    equal keys.

    Matches the C++ contract exactly: keys must be pre-sorted (or at least
    pre-grouped) for a SQL GROUP BY; unsorted keys yield one output run per
    consecutive segment.  Implemented in Thrust as a single load pass with
    a decoupled-lookback segmented scan plus a compaction of segment
    results.
    """
    runtime = _runtime(keys)
    check_same_length(keys, values, "reduce_by_key")
    key_data, value_data = keys.data, values.data
    if len(key_data) == 0:
        empty_k = np.empty(0, dtype=keys.dtype)
        empty_v = np.empty(0, dtype=values.dtype)
        runtime._charge("reduce_by_key", 0, read=0.0, written=0.0)
        return (
            runtime.from_result(empty_k, "thrust::rbk_keys"),
            runtime.from_result(empty_v, "thrust::rbk_values"),
        )
    boundaries = np.empty(len(key_data), dtype=bool)
    boundaries[0] = True
    np.not_equal(key_data[1:], key_data[:-1], out=boundaries[1:])
    starts = np.flatnonzero(boundaries)
    out_keys = key_data[starts]
    acc_dtype = _accumulator_dtype(values.dtype)
    if functor is None or functor.name == "plus":
        sums = np.add.reduceat(value_data.astype(acc_dtype), starts)
    elif functor.name == "maximum":
        sums = np.maximum.reduceat(value_data, starts)
    elif functor.name == "minimum":
        sums = np.minimum.reduceat(value_data, starts)
    elif functor.name == "multiplies":
        sums = np.multiply.reduceat(value_data.astype(acc_dtype), starts)
    else:
        raise LibraryError(
            f"reduce_by_key: unsupported reduction functor {functor.name!r}"
        )
    out_values = np.ascontiguousarray(sums.astype(values.dtype, copy=False))
    runtime._charge(
        f"reduce_by_key<{functor.name if functor else 'plus'}>",
        len(keys),
        flops=4.0,
        read=keys.itemsize + values.itemsize,
        # Output is one entry per segment — usually far smaller than the
        # input; charge it via fixed bytes proportional to segments.
        written=0.0,
        fixed_bytes=float(
            out_keys.nbytes + out_values.nbytes
        ),
        passes=2,
    )
    return (
        runtime.from_result(np.ascontiguousarray(out_keys), "thrust::rbk_keys"),
        runtime.from_result(out_values, "thrust::rbk_values"),
    )


# ---------------------------------------------------------------------------
# Stream compaction, gather/scatter
# ---------------------------------------------------------------------------

def copy_if(
    vector: device_vector,
    predicate: Functor,
    stencil: Optional[device_vector] = None,
) -> device_vector:
    """``thrust::copy_if`` — stream compaction.

    Presented as one call, but internally Thrust runs the canonical
    three-step pipeline (predicate flags → scan → scatter); we charge the
    three kernels so the profiler shows the real launch count.
    """
    runtime = _runtime(vector)
    source = stencil.data if stencil is not None else vector.data
    if stencil is not None:
        check_same_length(vector, stencil, "copy_if")
    mask = predicate(source)
    selected = np.ascontiguousarray(vector.data[mask])
    n = len(vector)
    flag_bytes = 1.0  # thrust uses bool flags internally
    runtime._charge(
        f"copy_if::flags<{predicate.name}>",
        n,
        flops=predicate.flops,
        read=vector.itemsize if stencil is None else stencil.itemsize,
        written=flag_bytes,
    )
    runtime._charge(
        "copy_if::scan",
        n,
        flops=2.0,
        read=2.0 * flag_bytes,
        written=2.0 * 4.0,  # int32 positions
        passes=3,
    )
    runtime._charge(
        "copy_if::scatter",
        n,
        flops=1.0,
        read=vector.itemsize + 4.0,
        written=float(selected.nbytes) / max(n, 1),
    )
    return runtime.from_result(selected, "thrust::copy_if_out")


def gather(
    index_map: device_vector,
    source: device_vector,
) -> device_vector:
    """``thrust::gather`` — ``out[i] = source[map[i]]``.

    Random-access reads from ``source`` are uncoalesced: each 4/8-byte
    element touches a full 32-byte DRAM sector, modelled as a 4x read
    amplification on the source side.
    """
    runtime = _runtime(index_map)
    indices = index_map.data.astype(np.int64, copy=False)
    if index_out_of_range(indices, len(source)):
        raise IndexError(
            f"gather: index out of range [0, {len(source)}) "
            f"(min={indices.min()}, max={indices.max()})"
        )
    result = np.ascontiguousarray(source.data[indices])
    runtime._charge(
        "gather",
        len(index_map),
        flops=1.0,
        read=index_map.itemsize + 4.0 * source.itemsize,
        written=source.itemsize,
    )
    return runtime.from_result(result, "thrust::gather_out")


def scatter(
    source: device_vector,
    index_map: device_vector,
    destination: device_vector,
) -> None:
    """``thrust::scatter`` — ``destination[map[i]] = source[i]`` in place.

    Uncoalesced writes carry the same 4x sector amplification as gather's
    reads.
    """
    runtime = _runtime(source)
    check_same_length(source, index_map, "scatter")
    indices = index_map.data.astype(np.int64, copy=False)
    if index_out_of_range(indices, len(destination)):
        raise IndexError(
            f"scatter: index out of range [0, {len(destination)})"
        )
    destination.data[indices] = source.data
    runtime._charge(
        "scatter",
        len(source),
        flops=1.0,
        read=source.itemsize + index_map.itemsize,
        written=4.0 * destination.itemsize,
    )


def scatter_if(
    index_map: device_vector,
    stencil: device_vector,
    destination: device_vector,
    source: Optional[device_vector] = None,
) -> None:
    """``thrust::scatter_if`` — ``dest[map[i]] = src[i]`` where ``stencil[i]``.

    ``source=None`` models a ``thrust::counting_iterator`` source (the
    idiomatic stream-compaction pattern: scatter each selected row's own
    index) — counting iterators generate values in registers, so the source
    side costs no DRAM reads.
    """
    runtime = _runtime(index_map)
    check_same_length(index_map, stencil, "scatter_if")
    mask = stencil.data.astype(bool)
    indices = index_map.data.astype(np.int64, copy=False)[mask]
    if index_out_of_range(indices, len(destination)):
        raise IndexError(
            f"scatter_if: index out of range [0, {len(destination)})"
        )
    if source is None:
        destination.data[indices] = np.flatnonzero(mask).astype(
            destination.dtype
        )
        source_read = 0.0
    else:
        check_same_length(source, index_map, "scatter_if")
        destination.data[indices] = source.data[mask]
        source_read = float(source.itemsize)
    selected_fraction = float(mask.sum()) / max(len(mask), 1)
    runtime._charge(
        "scatter_if",
        len(index_map),
        flops=1.0,
        read=index_map.itemsize + stencil.itemsize + source_read,
        # Only selected rows are written, uncoalesced (4x amplification).
        written=4.0 * destination.itemsize * selected_fraction,
    )


# ---------------------------------------------------------------------------
# Generation / utility
# ---------------------------------------------------------------------------

def sequence(vector: device_vector, start: int = 0, step: int = 1) -> None:
    """``thrust::sequence`` — fill with ``start, start+step, ...`` in place."""
    runtime = _runtime(vector)
    n = len(vector)
    vector.data[:] = np.arange(
        start, start + step * n, step, dtype=vector.dtype
    )[:n]
    runtime._charge(
        "sequence", n, flops=1.0, read=0.0, written=vector.itemsize
    )


def fill(vector: device_vector, value: float) -> None:
    """``thrust::fill`` — set all elements to ``value`` in place."""
    runtime = _runtime(vector)
    vector.data[:] = value
    runtime._charge(
        "fill", len(vector), flops=0.0, read=0.0, written=vector.itemsize
    )


def copy(vector: device_vector) -> device_vector:
    """``thrust::copy`` into a fresh vector (device-to-device)."""
    runtime = _runtime(vector)
    runtime._charge(
        "copy",
        len(vector),
        flops=0.0,
        read=vector.itemsize,
        written=vector.itemsize,
    )
    return runtime.from_result(vector.data.copy(), "thrust::copy_out")


def unique(vector: device_vector) -> device_vector:
    """``thrust::unique`` — drop *consecutive* duplicates (C++ contract:
    only adjacent equal elements collapse; sort first for global dedup)."""
    runtime = _runtime(vector)
    data = vector.data
    if len(data) == 0:
        result = data.copy()
    else:
        keep = np.empty(len(data), dtype=bool)
        keep[0] = True
        np.not_equal(data[1:], data[:-1], out=keep[1:])
        result = np.ascontiguousarray(data[keep])
    runtime._charge(
        "unique",
        len(vector),
        flops=2.0,
        read=vector.itemsize,
        written=float(result.nbytes) / max(len(vector), 1),
        passes=2,
    )
    return runtime.from_result(result, "thrust::unique_out")


def lower_bound(
    haystack: device_vector,
    needles: device_vector,
) -> device_vector:
    """``thrust::lower_bound`` (vectorized binary search) — for each needle,
    the first position in the sorted haystack not less than it.

    Used by the merge-join realization; each lookup is log2(n) random
    reads.
    """
    runtime = _runtime(haystack)
    positions = searchsorted(haystack.data, needles.data, side="left").astype(np.int32)
    log_n = float(max(1, int(np.ceil(np.log2(max(len(haystack), 2))))))
    runtime._charge(
        "lower_bound",
        len(needles),
        flops=log_n,
        # Each binary-search step is one uncoalesced read of a key.
        read=needles.itemsize + log_n * 4.0 * haystack.itemsize,
        written=4.0,
    )
    return runtime.from_result(positions, "thrust::lower_bound_out")


def upper_bound(
    haystack: device_vector,
    needles: device_vector,
) -> device_vector:
    """``thrust::upper_bound`` — first position greater than each needle."""
    runtime = _runtime(haystack)
    positions = searchsorted(haystack.data, needles.data, side="right").astype(np.int32)
    log_n = float(max(1, int(np.ceil(np.log2(max(len(haystack), 2))))))
    runtime._charge(
        "upper_bound",
        len(needles),
        flops=log_n,
        read=needles.itemsize + log_n * 4.0 * haystack.itemsize,
        written=4.0,
    )
    return runtime.from_result(positions, "thrust::upper_bound_out")


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _accumulator_dtype(dtype: np.dtype) -> np.dtype:
    """Widened accumulator type (sums of int32 columns overflow int32)."""
    if np.issubdtype(dtype, np.integer):
        return np.dtype(np.int64)
    return np.dtype(np.float64)


def _fold(data: np.ndarray, functor: Functor, init: float) -> np.generic:
    """Generic sequential fold for uncommon reduction functors."""
    accumulator = np.asarray(init, dtype=data.dtype)
    for chunk_start in range(0, len(data), 65536):
        chunk = data[chunk_start:chunk_start + 65536]
        for value in chunk:
            accumulator = functor(
                np.asarray(accumulator)[None], np.asarray(value)[None]
            )[0]
    return np.asarray(accumulator).ravel()[0]
