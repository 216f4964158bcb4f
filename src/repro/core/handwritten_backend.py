"""Hand-written CUDA-kernel backend — the tuned baseline.

The paper's framing: expert-written, use-case-specific kernels are the
performance ceiling that generic libraries trade away for productivity,
and the libraries' missing hashing support ("one of the fundamental
database primitives") leaves "important tuning potential unused".  This
backend realizes each operator the way a CUDA expert would:

* selection — one fused kernel (predicate + decoupled-lookback compaction);
* hash join — build + probe over a device hash table (the operator no
  library offers);
* grouped aggregation — single-pass hash aggregation with atomics
  (no sort needed);
* prefix sum — single-pass decoupled-lookback scan;
* everything else — single tuned kernels at TUNED_PROFILE efficiency.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core.backend import (
    Handle,
    Operator,
    OperatorBackend,
    OperatorSupport,
    SupportLevel,
    join_reference,
)
from repro.core.expr import Expr
from repro.core.predicate import (
    And,
    Between,
    Compare,
    CompareCols,
    InSet,
    Not,
    Or,
    Predicate,
)
from repro.gpu.device import Device
from repro.gpu.kernel import TUNED_PROFILE
from repro.libs.base import (
    DeviceArray,
    LibraryRuntime,
    check_same_length,
    index_out_of_range,
)
from repro.relational.hashjoin import HashJoinConfig, SimulatedHashJoin
from repro.relational.keys import exclusive_cumsum, stable_argsort, unique_inverse


class HandwrittenRuntime(LibraryRuntime):
    """Runtime for custom kernels (TUNED_PROFILE efficiency)."""

    library_name = "handwritten"

    def __init__(self, device: Device) -> None:
        super().__init__(device, TUNED_PROFILE)


def predicate_cost(predicate: Predicate) -> Tuple[float, int]:
    """(flops per element, distinct columns read) for a fused predicate."""
    if isinstance(predicate, (Compare, Between, InSet)):
        return predicate.flops, 1
    if isinstance(predicate, CompareCols):
        return predicate.flops, 2
    if isinstance(predicate, (And, Or)):
        flops = 1.0 * (len(predicate.parts) - 1)
        for part in predicate.parts:
            part_flops, _cols = predicate_cost(part)
            flops += part_flops
        return flops, len(predicate.columns())
    if isinstance(predicate, Not):
        inner_flops, _cols = predicate_cost(predicate.part)
        return inner_flops + 1.0, len(predicate.columns())
    raise TypeError(f"unsupported predicate node {predicate!r}")


def grouped_aggregate_host(
    key_data: np.ndarray, value_data: np.ndarray, agg: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Host (NumPy-oracle) semantics of a keyed aggregation.

    Shared by the eager hash-aggregate kernel below and the compiled
    backend's fused group-by, so both produce bit-identical groups:
    keys ascending, as ``np.unique`` returns them, float64 accumulation,
    count as int64.
    """
    unique_keys, inverse = unique_inverse(key_data)
    groups = len(unique_keys)
    if agg == "sum":
        out = np.bincount(
            inverse, weights=value_data.astype(np.float64), minlength=groups
        )
    elif agg == "count":
        out = np.bincount(inverse, minlength=groups).astype(np.float64)
    elif agg == "avg":
        sums = np.bincount(
            inverse, weights=value_data.astype(np.float64), minlength=groups
        )
        counts = np.bincount(inverse, minlength=groups)
        out = sums / np.maximum(counts, 1)
    elif agg == "min":
        out = np.full(groups, np.inf)
        np.minimum.at(out, inverse, value_data.astype(np.float64))
    else:
        out = np.full(groups, -np.inf)
        np.maximum.at(out, inverse, value_data.astype(np.float64))
    out_values = out if agg == "avg" else out.astype(
        np.float64 if agg != "count" else np.int64, copy=False
    )
    return unique_keys, np.asarray(out_values)


def reduction_host(data: np.ndarray, agg: str) -> float:
    """Host (NumPy-oracle) semantics of a global reduction.

    Mirrors the eager ``reduction`` operator exactly: float64
    accumulation for sum/avg, empty sums are 0.0, empty min/max/avg
    raise.
    """
    if len(data) == 0:
        if agg == "sum":
            return 0.0
        raise ValueError(f"reduction {agg!r} of an empty column")
    if agg == "sum":
        return float(data.sum(dtype=np.float64))
    if agg == "avg":
        return float(data.mean(dtype=np.float64))
    if agg == "min":
        return float(data.min())
    return float(data.max())


class HandwrittenBackend(OperatorBackend):
    """Expert-tuned custom kernels for every operator."""

    name = "handwritten"

    #: Runtime class instantiated per device; the compiled backend swaps
    #: in its own subclass so its events carry a distinct library name.
    runtime_class = HandwrittenRuntime

    #: Open-addressing hash tables are sized at 2x the key count to keep
    #: probe chains short (load factor 0.5).
    HASH_TABLE_OVERALLOC = 2.0
    #: One hash-table slot: 4-byte key + 4-byte payload (row id).
    HASH_SLOT_BYTES = 8.0

    def __init__(self, device: Device) -> None:
        super().__init__(device)
        self.runtime = self.runtime_class(device)
        self._hash_joiner = SimulatedHashJoin(
            device,
            profile=self.runtime.profile,
            config=HashJoinConfig(
                load_factor=1.0 / self.HASH_TABLE_OVERALLOC,
                slot_bytes=self.HASH_SLOT_BYTES,
            ),
            name=self.runtime.library_name,
        )

    # -- data movement -----------------------------------------------------------

    def upload(self, array: np.ndarray, label: str = "column") -> Handle:
        return self.runtime._upload(np.ascontiguousarray(array), label)

    def download(self, handle: Handle) -> np.ndarray:
        return handle.to_host()

    def wrap(self, array: np.ndarray, label: str) -> DeviceArray:
        return self.runtime._materialize(np.ascontiguousarray(array), label)

    # -- selection -----------------------------------------------------------------

    def selection(
        self, columns: Dict[str, Handle], predicate: Predicate
    ) -> Handle:
        host_columns = {name: h.peek() for name, h in columns.items()}
        mask = predicate.evaluate(host_columns)
        ids = np.flatnonzero(mask).astype(np.int64)
        n = len(mask)
        flops, column_count = predicate_cost(predicate)
        itemsize = sum(
            columns[name].itemsize for name in predicate.columns()
        )
        # One fused kernel: read each predicate column once, evaluate, and
        # compact matching row ids with a decoupled-lookback scan in the
        # same launch.
        self.runtime._charge(
            "fused_select",
            n,
            flops=flops + 2.0,
            read=float(itemsize),
            written=8.0 * (len(ids) / max(n, 1)),
            passes=2,
        )
        self.device.transfer_to_host(8, "selection_count")
        return self.wrap(ids, "hw::select_ids")

    # -- joins ------------------------------------------------------------------------

    def nested_loop_join(
        self, left_keys: Handle, right_keys: Handle
    ) -> Tuple[Handle, Handle]:
        """Tiled NLJ — written as a reference point; a CUDA expert would
        still reach for the hash join below."""
        left, right = left_keys.peek(), right_keys.peek()
        left_ids, right_ids = join_reference(left, right)
        n, m = len(left), len(right)
        self.runtime._charge(
            "tiled_nlj",
            n,
            flops=6.0 * m,  # tighter inner loop than the library functor
            read=left_keys.itemsize + (m * float(right_keys.itemsize)) / 512.0,
            written=16.0 * (len(left_ids) / max(n, 1)),
        )
        return (
            self.wrap(left_ids, "hw::nlj_left"),
            self.wrap(right_ids, "hw::nlj_right"),
        )

    def merge_join(
        self, left_keys: Handle, right_keys: Handle
    ) -> Tuple[Handle, Handle]:
        left, right = left_keys.peek(), right_keys.peek()
        left_ids, right_ids = join_reference(left, right)
        n, m = len(left), len(right)
        key_bytes = float(left_keys.itemsize)
        # Tuned radix sorts on both sides (8-bit digits) ...
        for side, size in (("left", n), ("right", m)):
            digit_passes = max(1, left_keys.itemsize)
            self.runtime._charge(
                f"radix_sort_{side}",
                size,
                flops=4.0 * digit_passes,
                read=(2.0 * key_bytes + 8.0) * digit_passes,
                written=(key_bytes + 8.0) * digit_passes,
                passes=2 * digit_passes,
            )
        # ... then a single merge-path pass.
        self.runtime._charge(
            "merge_path",
            n + m,
            flops=3.0,
            read=key_bytes + 8.0,
            written=16.0 * (len(left_ids) / max(n + m, 1)),
            passes=2,
        )
        return (
            self.wrap(left_ids, "hw::mj_left"),
            self.wrap(right_ids, "hw::mj_right"),
        )

    def hash_join(
        self, left_keys: Handle, right_keys: Handle
    ) -> Tuple[Handle, Handle]:
        """Build a hash table on the smaller side, probe with the other —
        the operator the paper finds missing from every library.  Costing
        and profiler events come from the shared simulated hash-join
        subsystem (:mod:`repro.relational.hashjoin`)."""
        result = self._hash_joiner.join(left_keys.peek(), right_keys.peek())
        return (
            self.wrap(result.left_ids, "hw::hj_left"),
            self.wrap(result.right_ids, "hw::hj_right"),
        )

    # -- aggregation ---------------------------------------------------------------------

    def grouped_aggregation(
        self,
        keys: Handle,
        values: Handle,
        agg: str = "sum",
    ) -> Tuple[Handle, Handle]:
        """Single-pass hash aggregation with atomics — no sort required,
        the classic advantage of custom kernels over the libraries'
        sort-then-reduce composition."""
        self._check_agg(agg)
        if len(keys) != len(values):
            raise ValueError(
                f"grouped_aggregation: {len(keys)} keys vs {len(values)} values"
            )
        key_data, value_data = keys.peek(), values.peek()
        unique_keys, out_values = grouped_aggregate_host(
            key_data, value_data, agg
        )
        groups = len(unique_keys)
        n = len(key_data)
        table_bytes = self.HASH_SLOT_BYTES * self.HASH_TABLE_OVERALLOC * max(
            groups, 1
        )
        self.runtime._charge(
            "hash_aggregate",
            n,
            flops=10.0,  # hash + atomic aggregate
            read=keys.itemsize + values.itemsize,
            # Atomic updates mostly hit L2 when the group count is small;
            # charge one uncoalesced slot write per element scaled down by
            # the expected L2 hit rate for <=64k groups.
            written=4.0 * self.HASH_SLOT_BYTES * min(1.0, groups / 65536.0)
            + 0.5,
            fixed_bytes=2.0 * table_bytes,  # init + final compaction
            passes=2,
        )
        return (
            self.wrap(unique_keys, "hw::group_keys"),
            self.wrap(out_values, "hw::group_values"),
        )

    def reduction(self, values: Handle, agg: str = "sum") -> float:
        self._check_agg(agg)
        if agg == "count":
            return float(len(values))
        data = values.peek()
        if len(data) == 0:
            if agg == "sum":
                return 0.0
            raise ValueError(f"reduction {agg!r} of an empty column")
        self.runtime._charge(
            f"tuned_reduce<{agg}>",
            len(values),
            flops=1.0,
            read=values.itemsize,
            fixed_bytes=2048.0,
            passes=2,
        )
        self.device.transfer_to_host(8, "reduce_result")
        return reduction_host(data, agg)

    # -- sorts / primitives --------------------------------------------------------------

    def sort(self, values: Handle, descending: bool = False) -> Handle:
        data = np.sort(values.peek(), kind="stable")
        if descending:
            data = data[::-1].copy()
        digit_passes = max(1, values.itemsize)
        self.runtime._charge(
            "tuned_radix_sort",
            len(values),
            flops=4.0 * digit_passes,
            read=2.0 * values.itemsize * digit_passes,
            written=1.0 * values.itemsize * digit_passes,
            passes=2 * digit_passes,
        )
        return self.wrap(data, "hw::sort_out")

    def sort_by_key(
        self, keys: Handle, values: Handle, descending: bool = False
    ) -> Tuple[Handle, Handle]:
        check_same_length(keys, values, "sort_by_key")
        order = stable_argsort(keys.peek())
        if descending:
            order = order[::-1]
        digit_passes = max(1, keys.itemsize)
        payload = float(values.itemsize)
        self.runtime._charge(
            "tuned_radix_sort_by_key",
            len(keys),
            flops=4.0 * digit_passes,
            read=(2.0 * keys.itemsize + payload) * digit_passes,
            written=(keys.itemsize + payload) * digit_passes,
            passes=2 * digit_passes,
        )
        return (
            self.wrap(keys.peek()[order], "hw::sbk_keys"),
            self.wrap(values.peek()[order], "hw::sbk_values"),
        )

    def prefix_sum(self, values: Handle) -> Handle:
        data = values.peek()
        acc_dtype = np.int64 if np.issubdtype(data.dtype, np.integer) else np.float64
        result = exclusive_cumsum(data, acc_dtype).astype(data.dtype, copy=False)
        # Decoupled-lookback scan: the data crosses DRAM exactly once each
        # way — the structural advantage over the libraries' 3-phase scans.
        self.runtime._charge(
            "lookback_scan",
            len(values),
            flops=2.0,
            read=float(values.itemsize),
            written=float(values.itemsize),
        )
        return self.wrap(result, "hw::scan_out")

    def gather(self, source: Handle, indices: Handle) -> Handle:
        index_data = indices.peek().astype(np.int64, copy=False)
        if index_out_of_range(index_data, len(source)):
            raise IndexError(f"gather: index out of range [0, {len(source)})")
        result = source.peek()[index_data]
        self.runtime._charge(
            "tuned_gather",
            len(indices),
            flops=1.0,
            read=indices.itemsize + 4.0 * source.itemsize,
            written=source.itemsize,
        )
        return self.wrap(result, "hw::gather_out")

    def scatter(self, source: Handle, indices: Handle, length: int) -> Handle:
        index_data = indices.peek().astype(np.int64, copy=False)
        if index_out_of_range(index_data, length):
            raise IndexError(f"scatter: index out of range [0, {length})")
        out = np.zeros(length, dtype=source.peek().dtype)
        out[index_data] = source.peek()
        self.runtime._charge(
            "tuned_scatter",
            len(source),
            flops=1.0,
            read=source.itemsize + indices.itemsize,
            written=4.0 * source.itemsize,
            fixed_bytes=float(out.nbytes),  # zero-fill pass
        )
        return self.wrap(out, "hw::scatter_out")

    def product(self, left: Handle, right: Handle) -> Handle:
        if len(left) != len(right):
            raise ValueError(f"product: {len(left)} vs {len(right)} elements")
        result = left.peek() * right.peek()
        self.runtime._charge(
            "tuned_product",
            len(left),
            flops=1.0,
            read=left.itemsize + right.itemsize,
            written=result.dtype.itemsize,
        )
        return self.wrap(result, "hw::product_out")

    def compute(self, columns: Dict[str, Handle], expr: Expr) -> Handle:
        """One fused kernel for the whole expression tree."""
        names = sorted(expr.columns())
        if not names:
            raise ValueError(f"expression {expr!r} references no column")
        host_columns = {name: columns[name].peek() for name in names}
        result = np.asarray(expr.evaluate(host_columns))
        read = float(sum(columns[name].itemsize for name in names))
        self.runtime._charge(
            f"fused_expr[{expr.node_count}]",
            len(result),
            flops=expr.flops,
            read=read,
            written=float(result.dtype.itemsize),
        )
        return self.wrap(result, "hw::expr_out")

    def iota(self, n: int) -> Handle:
        self.runtime._charge("iota", n, flops=1.0, written=8.0)
        return self.wrap(np.arange(n, dtype=np.int64), "hw::iota")

    # -- metadata -----------------------------------------------------------------------

    def support(self) -> Dict[Operator, OperatorSupport]:
        return {
            operator: OperatorSupport(SupportLevel.FULL, "custom CUDA kernel")
            for operator in Operator
        }
