"""Boost.Compute algorithm suite.

Identical semantic contracts to the Thrust suite (both follow the STL), but
every algorithm first goes through the OpenCL *program cache*: the first
launch of a given (algorithm, functor, type) combination compiles its
generated kernel source, later launches reuse it.  Steady-state kernels run
with the OpenCL-tier efficiency profile.

Functors may be given as shared :class:`~repro.libs.thrust.functional.Functor`
objects or as Boost.Compute-style lambda expressions (``_1 > 5``).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.errors import LibraryError
from repro.libs.base import check_same_length
from repro.libs.boost_compute.context import BoostComputeRuntime, vector
from repro.libs.boost_compute.lambda_ import LambdaExpr
from repro.libs.thrust.functional import Functor
from repro.relational.keys import searchsorted, stable_argsort

FunctorLike = Union[Functor, LambdaExpr]

#: Compile-complexity scores per algorithm family: multi-kernel algorithms
#: (sorts, scans) generate larger OpenCL programs and take longer to build.
_COMPLEXITY = {
    "transform": 1,
    "for_each": 1,
    "reduce": 2,
    "count_if": 2,
    "scan": 3,
    "sort": 6,
    "sort_by_key": 7,
    "reduce_by_key": 5,
    "copy_if": 4,
    "gather": 1,
    "scatter": 1,
    "iota": 1,
    "fill": 1,
    "copy": 1,
    "unique": 3,
    "search": 2,
}


def _runtime(v: vector) -> BoostComputeRuntime:
    runtime = v.runtime
    if not isinstance(runtime, BoostComputeRuntime):
        raise LibraryError(
            f"vector belongs to {type(runtime).__name__}, "
            "expected BoostComputeRuntime"
        )
    return runtime


def _functorize(op: FunctorLike) -> Functor:
    if isinstance(op, LambdaExpr):
        return op.to_functor()
    if isinstance(op, Functor):
        return op
    raise TypeError(f"expected a Functor or lambda expression, got {op!r}")


def _dtype_tag(*vectors: vector) -> str:
    return ",".join(str(v.dtype) for v in vectors)


# ---------------------------------------------------------------------------
# Elementwise
# ---------------------------------------------------------------------------

def transform(
    first: vector,
    op: FunctorLike,
    second: Optional[vector] = None,
) -> vector:
    """``boost::compute::transform`` — unary/binary elementwise map."""
    runtime = _runtime(first)
    functor = _functorize(op)
    if functor.arity == 1:
        if second is not None:
            raise TypeError(f"unary functor {functor.name!r} given two inputs")
        inputs = (first,)
        result = functor(first.data)
    elif functor.arity == 2:
        if second is None:
            raise TypeError(f"binary functor {functor.name!r} given one input")
        check_same_length(first, second, f"transform({functor.name})")
        inputs = (first, second)
        result = functor(first.data, second.data)
    else:
        raise TypeError(f"transform supports arity 1 or 2, got {functor.arity}")
    result = np.ascontiguousarray(result)
    runtime.ensure_program(
        f"transform<{functor.name}|{_dtype_tag(*inputs)}>",
        _COMPLEXITY["transform"],
    )
    runtime._charge(
        f"transform<{functor.name}>",
        len(first),
        flops=functor.flops,
        read=sum(v.itemsize for v in inputs),
        written=result.dtype.itemsize,
    )
    return runtime.from_result(result, "boost::transform_out")


def for_each(v: vector, op: FunctorLike) -> None:
    """``boost::compute::for_each`` — in-place side-effecting map."""
    runtime = _runtime(v)
    functor = _functorize(op)
    v.data[:] = functor(v.data)
    runtime.ensure_program(
        f"for_each<{functor.name}|{v.dtype}>", _COMPLEXITY["for_each"]
    )
    runtime._charge(
        f"for_each<{functor.name}>",
        len(v),
        flops=functor.flops,
        read=v.itemsize,
        written=v.itemsize,
    )


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def reduce(
    v: vector,
    init: float = 0.0,
    op: Optional[FunctorLike] = None,
) -> np.generic:
    """``boost::compute::reduce`` — fold to a scalar (two-pass tree)."""
    runtime = _runtime(v)
    functor = _functorize(op) if op is not None else None
    name = functor.name if functor else "plus"
    if functor is None or functor.name == "plus":
        result = v.data.sum(dtype=_accumulator_dtype(v.dtype)) + init
    elif functor.name == "maximum":
        result = np.maximum.reduce(v.data, initial=init)
    elif functor.name == "minimum":
        result = np.minimum.reduce(v.data, initial=init)
    elif functor.name == "multiplies":
        product = np.multiply.reduce(v.data.astype(_accumulator_dtype(v.dtype)))
        result = product * init if init != 0.0 else product
    else:
        raise LibraryError(f"reduce: unsupported reduction functor {name!r}")
    runtime.ensure_program(f"reduce<{name}|{v.dtype}>", _COMPLEXITY["reduce"])
    runtime._charge(
        f"reduce<{name}>",
        len(v),
        flops=(functor.flops if functor else 1.0),
        read=v.itemsize,
        fixed_bytes=4096.0,
        passes=2,
    )
    scalar = np.asarray(result).ravel()[0]
    runtime._read_scalar(scalar, "boost::reduce_result")
    return scalar


def accumulate(v: vector, init: float = 0.0) -> np.generic:
    """``boost::compute::accumulate`` — alias of plus-reduce (Boost.Compute
    specialises accumulate to reduce for commutative operators)."""
    return reduce(v, init=init)


def count_if(v: vector, predicate: FunctorLike) -> int:
    """``boost::compute::count_if``."""
    runtime = _runtime(v)
    functor = _functorize(predicate)
    mask = functor(v.data)
    count = int(np.count_nonzero(mask))
    runtime.ensure_program(
        f"count_if<{functor.name}|{v.dtype}>", _COMPLEXITY["count_if"]
    )
    runtime._charge(
        f"count_if<{functor.name}>",
        len(v),
        flops=functor.flops + 1.0,
        read=v.itemsize,
        fixed_bytes=4096.0,
        passes=2,
    )
    runtime._read_scalar(np.int64(count), "boost::count_result")
    return count


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------

def exclusive_scan(v: vector, init: float = 0.0) -> vector:
    """``boost::compute::exclusive_scan`` — exclusive prefix sum.

    Boost.Compute's scan is the classic three-kernel block-scan
    (scan blocks / scan block sums / add offsets).
    """
    runtime = _runtime(v)
    acc_dtype = _accumulator_dtype(v.dtype)
    if len(v):
        shifted = np.cumsum(v.data, dtype=acc_dtype)
        shifted = np.roll(shifted, 1)
        shifted[0] = 0
        shifted += acc_dtype.type(init)
    else:
        shifted = np.empty(0, dtype=acc_dtype)
    result = np.ascontiguousarray(shifted.astype(v.dtype, copy=False))
    runtime.ensure_program(f"exclusive_scan<{v.dtype}>", _COMPLEXITY["scan"])
    runtime._charge(
        "exclusive_scan",
        len(v),
        flops=2.0,
        read=2.0 * v.itemsize,
        written=2.0 * v.itemsize,
        passes=3,
    )
    return runtime.from_result(result, "boost::scan_out")


def inclusive_scan(v: vector) -> vector:
    """``boost::compute::inclusive_scan``."""
    runtime = _runtime(v)
    acc_dtype = _accumulator_dtype(v.dtype)
    result = np.ascontiguousarray(
        np.cumsum(v.data, dtype=acc_dtype).astype(v.dtype, copy=False)
    )
    runtime.ensure_program(f"inclusive_scan<{v.dtype}>", _COMPLEXITY["scan"])
    runtime._charge(
        "inclusive_scan",
        len(v),
        flops=2.0,
        read=2.0 * v.itemsize,
        written=2.0 * v.itemsize,
        passes=3,
    )
    return runtime.from_result(result, "boost::scan_out")


# ---------------------------------------------------------------------------
# Sorting
# ---------------------------------------------------------------------------

_RADIX_BITS_PER_PASS = 4  # Boost.Compute's radix sort uses 4-bit digits.


def _radix_passes(dtype: np.dtype) -> int:
    return max(1, (dtype.itemsize * 8) // _RADIX_BITS_PER_PASS)


def sort(v: vector, descending: bool = False) -> None:
    """``boost::compute::sort`` — in-place radix sort.

    Boost.Compute's radix sort processes 4 bits per pass (vs. Thrust's 8),
    doubling the number of device-wide passes for the same key width — a
    structural reason it trails Thrust on sort-heavy operators.
    """
    runtime = _runtime(v)
    v.data.sort(kind="stable")
    if descending:
        v.data[:] = v.data[::-1]
    digit_passes = _radix_passes(v.dtype)
    runtime.ensure_program(f"radix_sort<{v.dtype}>", _COMPLEXITY["sort"])
    runtime._charge(
        "sort(radix)",
        len(v),
        flops=4.0 * digit_passes,
        read=2.0 * v.itemsize * digit_passes,
        written=1.0 * v.itemsize * digit_passes,
        passes=2 * digit_passes,
    )


def sort_by_key(keys: vector, values: vector, descending: bool = False) -> None:
    """``boost::compute::sort_by_key`` — in-place key/value radix sort."""
    runtime = _runtime(keys)
    check_same_length(keys, values, "sort_by_key")
    order = stable_argsort(keys.data)
    if descending:
        order = order[::-1]
    keys.data[:] = keys.data[order]
    values.data[:] = values.data[order]
    digit_passes = _radix_passes(keys.dtype)
    payload = values.itemsize
    runtime.ensure_program(
        f"radix_sort_by_key<{keys.dtype},{values.dtype}>",
        _COMPLEXITY["sort_by_key"],
    )
    runtime._charge(
        "sort_by_key(radix)",
        len(keys),
        flops=4.0 * digit_passes,
        read=(2.0 * keys.itemsize + payload) * digit_passes,
        written=(1.0 * keys.itemsize + payload) * digit_passes,
        passes=2 * digit_passes,
    )


# ---------------------------------------------------------------------------
# Grouped reduction
# ---------------------------------------------------------------------------

def reduce_by_key(
    keys: vector,
    values: vector,
    op: Optional[FunctorLike] = None,
) -> Tuple[vector, vector]:
    """``boost::compute::reduce_by_key`` — segmented reduction over
    consecutive equal keys (pre-sort for SQL GROUP BY semantics)."""
    runtime = _runtime(keys)
    check_same_length(keys, values, "reduce_by_key")
    functor = _functorize(op) if op is not None else None
    name = functor.name if functor else "plus"
    key_data, value_data = keys.data, values.data
    if len(key_data) == 0:
        runtime._charge("reduce_by_key", 0)
        return (
            runtime.from_result(np.empty(0, dtype=keys.dtype), "boost::rbk_keys"),
            runtime.from_result(
                np.empty(0, dtype=values.dtype), "boost::rbk_values"
            ),
        )
    boundaries = np.empty(len(key_data), dtype=bool)
    boundaries[0] = True
    np.not_equal(key_data[1:], key_data[:-1], out=boundaries[1:])
    starts = np.flatnonzero(boundaries)
    out_keys = np.ascontiguousarray(key_data[starts])
    acc_dtype = _accumulator_dtype(values.dtype)
    if functor is None or functor.name == "plus":
        aggregated = np.add.reduceat(value_data.astype(acc_dtype), starts)
    elif functor.name == "maximum":
        aggregated = np.maximum.reduceat(value_data, starts)
    elif functor.name == "minimum":
        aggregated = np.minimum.reduceat(value_data, starts)
    elif functor.name == "multiplies":
        aggregated = np.multiply.reduceat(value_data.astype(acc_dtype), starts)
    else:
        raise LibraryError(f"reduce_by_key: unsupported functor {name!r}")
    out_values = np.ascontiguousarray(aggregated.astype(values.dtype, copy=False))
    runtime.ensure_program(
        f"reduce_by_key<{name}|{keys.dtype},{values.dtype}>",
        _COMPLEXITY["reduce_by_key"],
    )
    runtime._charge(
        f"reduce_by_key<{name}>",
        len(keys),
        flops=4.0,
        read=keys.itemsize + values.itemsize,
        fixed_bytes=float(out_keys.nbytes + out_values.nbytes),
        passes=3,  # Boost.Compute: flag boundaries, scan, final gather.
    )
    return (
        runtime.from_result(out_keys, "boost::rbk_keys"),
        runtime.from_result(out_values, "boost::rbk_values"),
    )


# ---------------------------------------------------------------------------
# Compaction, gather/scatter
# ---------------------------------------------------------------------------

def copy_if(v: vector, predicate: FunctorLike) -> vector:
    """``boost::compute::copy_if`` — stream compaction (flags/scan/scatter
    internally, like Thrust)."""
    runtime = _runtime(v)
    functor = _functorize(predicate)
    mask = functor(v.data)
    selected = np.ascontiguousarray(v.data[mask])
    n = len(v)
    runtime.ensure_program(
        f"copy_if<{functor.name}|{v.dtype}>", _COMPLEXITY["copy_if"]
    )
    runtime._charge(
        f"copy_if::flags<{functor.name}>",
        n,
        flops=functor.flops,
        read=v.itemsize,
        written=1.0,
    )
    runtime._charge("copy_if::scan", n, flops=2.0, read=2.0, written=8.0, passes=3)
    runtime._charge(
        "copy_if::scatter",
        n,
        flops=1.0,
        read=v.itemsize + 4.0,
        written=float(selected.nbytes) / max(n, 1),
    )
    return runtime.from_result(selected, "boost::copy_if_out")


def gather(index_map: vector, source: vector) -> vector:
    """``boost::compute::gather`` — ``out[i] = source[map[i]]``."""
    runtime = _runtime(index_map)
    indices = index_map.data.astype(np.int64, copy=False)
    if len(indices) and (indices.min() < 0 or indices.max() >= len(source)):
        raise IndexError(f"gather: index out of range [0, {len(source)})")
    result = np.ascontiguousarray(source.data[indices])
    runtime.ensure_program(
        f"gather<{source.dtype}>", _COMPLEXITY["gather"]
    )
    runtime._charge(
        "gather",
        len(index_map),
        flops=1.0,
        # 4x read amplification for uncoalesced source access.
        read=index_map.itemsize + 4.0 * source.itemsize,
        written=source.itemsize,
    )
    return runtime.from_result(result, "boost::gather_out")


def scatter(source: vector, index_map: vector, destination: vector) -> None:
    """``boost::compute::scatter`` — ``destination[map[i]] = source[i]``."""
    runtime = _runtime(source)
    check_same_length(source, index_map, "scatter")
    indices = index_map.data.astype(np.int64, copy=False)
    if len(indices) and (indices.min() < 0 or indices.max() >= len(destination)):
        raise IndexError(f"scatter: index out of range [0, {len(destination)})")
    destination.data[indices] = source.data
    runtime.ensure_program(
        f"scatter<{source.dtype}>", _COMPLEXITY["scatter"]
    )
    runtime._charge(
        "scatter",
        len(source),
        flops=1.0,
        read=source.itemsize + index_map.itemsize,
        written=4.0 * destination.itemsize,
    )


def scatter_if(
    index_map: vector,
    stencil: vector,
    destination: vector,
    source: Optional[vector] = None,
) -> None:
    """``boost::compute::scatter_if`` — conditional scatter.

    ``source=None`` models a ``boost::compute::counting_iterator`` source
    (values generated in registers, no DRAM reads on the source side).
    """
    runtime = _runtime(index_map)
    check_same_length(index_map, stencil, "scatter_if")
    mask = stencil.data.astype(bool)
    indices = index_map.data.astype(np.int64, copy=False)[mask]
    if len(indices) and (indices.min() < 0 or indices.max() >= len(destination)):
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
    runtime.ensure_program(
        f"scatter_if<{destination.dtype}>", _COMPLEXITY["scatter"]
    )
    runtime._charge(
        "scatter_if",
        len(index_map),
        flops=1.0,
        read=index_map.itemsize + stencil.itemsize + source_read,
        written=4.0 * destination.itemsize * selected_fraction,
    )


# ---------------------------------------------------------------------------
# Generation / utility
# ---------------------------------------------------------------------------

def iota(v: vector, start: int = 0) -> None:
    """``boost::compute::iota`` — fill with ``start, start+1, ...``."""
    runtime = _runtime(v)
    v.data[:] = np.arange(start, start + len(v), dtype=v.dtype)
    runtime.ensure_program(f"iota<{v.dtype}>", _COMPLEXITY["iota"])
    runtime._charge("iota", len(v), flops=1.0, written=v.itemsize)


def fill(v: vector, value: float) -> None:
    """``boost::compute::fill``."""
    runtime = _runtime(v)
    v.data[:] = value
    runtime.ensure_program(f"fill<{v.dtype}>", _COMPLEXITY["fill"])
    runtime._charge("fill", len(v), flops=0.0, written=v.itemsize)


def copy(v: vector) -> vector:
    """``boost::compute::copy`` into a fresh device vector."""
    runtime = _runtime(v)
    runtime.ensure_program(f"copy<{v.dtype}>", _COMPLEXITY["copy"])
    runtime._charge(
        "copy", len(v), flops=0.0, read=v.itemsize, written=v.itemsize
    )
    return runtime.from_result(v.data.copy(), "boost::copy_out")


def unique(v: vector) -> vector:
    """``boost::compute::unique`` — collapse consecutive duplicates."""
    runtime = _runtime(v)
    data = v.data
    if len(data) == 0:
        result = data.copy()
    else:
        keep = np.empty(len(data), dtype=bool)
        keep[0] = True
        np.not_equal(data[1:], data[:-1], out=keep[1:])
        result = np.ascontiguousarray(data[keep])
    runtime.ensure_program(f"unique<{v.dtype}>", _COMPLEXITY["unique"])
    runtime._charge(
        "unique",
        len(v),
        flops=2.0,
        read=v.itemsize,
        written=float(result.nbytes) / max(len(v), 1),
        passes=2,
    )
    return runtime.from_result(result, "boost::unique_out")


def lower_bound(haystack: vector, needles: vector) -> vector:
    """Vectorized ``boost::compute::lower_bound`` over a sorted haystack."""
    runtime = _runtime(haystack)
    positions = searchsorted(haystack.data, needles.data, side="left").astype(
        np.int32
    )
    log_n = float(max(1, int(np.ceil(np.log2(max(len(haystack), 2))))))
    runtime.ensure_program(
        f"lower_bound<{haystack.dtype}>", _COMPLEXITY["search"]
    )
    runtime._charge(
        "lower_bound",
        len(needles),
        flops=log_n,
        read=needles.itemsize + log_n * 4.0 * haystack.itemsize,
        written=4.0,
    )
    return runtime.from_result(positions, "boost::lower_bound_out")


def upper_bound(haystack: vector, needles: vector) -> vector:
    """Vectorized ``boost::compute::upper_bound`` over a sorted haystack."""
    runtime = _runtime(haystack)
    positions = searchsorted(haystack.data, needles.data, side="right").astype(
        np.int32
    )
    log_n = float(max(1, int(np.ceil(np.log2(max(len(haystack), 2))))))
    runtime.ensure_program(
        f"upper_bound<{haystack.dtype}>", _COMPLEXITY["search"]
    )
    runtime._charge(
        "upper_bound",
        len(needles),
        flops=log_n,
        read=needles.itemsize + log_n * 4.0 * haystack.itemsize,
        written=4.0,
    )
    return runtime.from_result(positions, "boost::upper_bound_out")


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _accumulator_dtype(dtype: np.dtype) -> np.dtype:
    """Widened accumulator type (sums of int32 columns overflow int32)."""
    if np.issubdtype(dtype, np.integer):
        return np.dtype(np.int64)
    return np.dtype(np.float64)
