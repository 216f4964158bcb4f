"""ArrayFire plug-in backend (Table II's ArrayFire column).

Selections exploit the library's defining feature: the predicate tree is
built as a lazy JIT expression and evaluated with a single fused kernel,
then ``where()`` yields the row ids directly (full support in Table II).
Two conjunction strategies are provided:

* ``"fused"`` (default) — AND/OR fold into the JIT tree: one fused kernel
  for the whole compound predicate;
* ``"set_ops"`` — Table II's literal realization: per-leaf ``where()``
  followed by ``setIntersect()``/``setUnion()`` on row-id lists.

The fusion-ablation benchmark compares the two.
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
from repro.core.expr import (
    ARITH_OPS,
    BinOp,
    CaseWhen,
    ColRef,
    Expr,
    ExtractYear,
    Lit,
)
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
from repro.errors import UnsupportedOperatorError
from repro.gpu.device import Device
from repro.libs import arrayfire as af

#: Outer-relation batch width for the gfor-style nested-loops join: each
#: batch materialises a (batch × inner) boolean matrix — the reason the
#: paper rates ArrayFire's NLJ support as only partial.
GFOR_BATCH = 1024


class ArrayFireBackend(OperatorBackend):
    """Database operators realized over the ArrayFire emulation."""

    name = "arrayfire"

    def __init__(
        self,
        device: Device,
        conjunction_strategy: str = "fused",
        fusion_enabled: bool = True,
    ) -> None:
        super().__init__(device)
        if conjunction_strategy not in ("fused", "set_ops"):
            raise ValueError(
                "conjunction_strategy must be 'fused' or 'set_ops', "
                f"got {conjunction_strategy!r}"
            )
        self.runtime = af.ArrayFireRuntime(device, fusion_enabled=fusion_enabled)
        self.conjunction_strategy = conjunction_strategy

    # -- data movement ---------------------------------------------------------

    def upload(self, array: np.ndarray, label: str = "column") -> Handle:
        return self.runtime.array(np.ascontiguousarray(array), label=label)

    def download(self, handle: Handle) -> np.ndarray:
        return handle.to_host()

    def wrap(self, array: np.ndarray, label: str) -> Handle:
        return self.runtime.from_result(array, label)

    # -- selection -----------------------------------------------------------------

    def selection(
        self, columns: Dict[str, Handle], predicate: Predicate
    ) -> Handle:
        if self.conjunction_strategy == "set_ops" and isinstance(
            predicate, (And, Or)
        ):
            return self._selection_set_ops(columns, predicate)
        mask = self._mask(columns, predicate)
        return af.where(mask)

    def _mask(self, columns: Dict[str, Handle], predicate: Predicate) -> af.Array:
        """Lazy boolean mask for a predicate tree (fusion builds one tree)."""
        if isinstance(predicate, Compare):
            column = columns[predicate.column]
            op = {"lt": "__lt__", "le": "__le__", "gt": "__gt__",
                  "ge": "__ge__", "eq": "__eq__", "ne": "__ne__"}[predicate.op]
            return getattr(column, op)(predicate.value)
        if isinstance(predicate, Between):
            column = columns[predicate.column]
            return (column >= predicate.low) & (column <= predicate.high)
        if isinstance(predicate, CompareCols):
            left = columns[predicate.left]
            right = columns[predicate.right]
            op = {"lt": "__lt__", "le": "__le__", "gt": "__gt__",
                  "ge": "__ge__", "eq": "__eq__", "ne": "__ne__"}[predicate.op]
            return getattr(left, op)(right)
        if isinstance(predicate, And):
            mask = self._mask(columns, predicate.parts[0])
            for part in predicate.parts[1:]:
                mask = mask & self._mask(columns, part)
            return mask
        if isinstance(predicate, Or):
            mask = self._mask(columns, predicate.parts[0])
            for part in predicate.parts[1:]:
                mask = mask | self._mask(columns, part)
            return mask
        if isinstance(predicate, InSet):
            # No native isin: a chain of == comparisons OR-ed together,
            # all of it one lazy tree the JIT fuses into a single kernel.
            column = columns[predicate.column]
            mask = column == predicate.values[0]
            for value in predicate.values[1:]:
                mask = mask | (column == value)
            return mask
        if isinstance(predicate, Not):
            return ~self._mask(columns, predicate.part)
        raise TypeError(f"unsupported predicate node {predicate!r}")

    def _selection_set_ops(
        self, columns: Dict[str, Handle], predicate: Predicate
    ) -> Handle:
        """Table II's literal realization: per-part ``where`` + set ops."""
        if isinstance(predicate, And):
            ids = [self._selection_set_ops(columns, p) for p in predicate.parts]
            result = ids[0]
            for other in ids[1:]:
                result = af.set_intersect(result, other)
            return result
        if isinstance(predicate, Or):
            ids = [self._selection_set_ops(columns, p) for p in predicate.parts]
            result = ids[0]
            for other in ids[1:]:
                result = af.set_union(result, other)
            return result
        return af.where(self._mask(columns, predicate))

    # -- joins -------------------------------------------------------------------------

    def nested_loop_join(
        self, left_keys: Handle, right_keys: Handle
    ) -> Tuple[Handle, Handle]:
        """gfor-style batched broadcast comparison (partial support).

        Each outer batch broadcasts against the full inner relation,
        materialising a (batch × m) boolean matrix and compacting it — far
        more DRAM traffic than the STL libraries' ``for_each_n`` loop,
        which is why ArrayFire loses the NLJ comparison.
        """
        left = left_keys.storage().peek()
        right = right_keys.storage().peek()
        left_ids, right_ids = join_reference(left, right)
        n, m = len(left), len(right)
        batches = max(1, (n + GFOR_BATCH - 1) // GFOR_BATCH)
        bool_bytes = 1.0
        for _batch in range(batches):
            batch_rows = min(GFOR_BATCH, n)
            elements = batch_rows * m
            # Broadcast compare: read inner keys once, write the full
            # boolean match matrix.
            self.runtime._charge(
                "gfor_nlj_compare",
                elements,
                flops=1.0,
                read=right_keys.dtype.itemsize / max(batch_rows, 1)
                + left_keys.dtype.itemsize / max(m, 1),
                written=bool_bytes,
            )
            # Compact the matrix into (row, col) pairs: scan + gather.
            self.runtime._charge(
                "gfor_nlj_where",
                elements,
                flops=2.0,
                read=2.0 * bool_bytes,
                written=2.0 * 4.0 * (len(left_ids) / max(n * m, 1)),
                passes=3,
            )
        return (
            self.runtime.from_result(left_ids, "af::nlj_left"),
            self.runtime.from_result(right_ids, "af::nlj_right"),
        )

    def merge_join(
        self, left_keys: Handle, right_keys: Handle
    ) -> Tuple[Handle, Handle]:
        raise UnsupportedOperatorError(
            self.name, Operator.MERGE_JOIN.value,
            "ArrayFire offers no binary-search/merge primitives (Table II)",
        )

    # -- aggregation -------------------------------------------------------------------

    def grouped_aggregation(
        self,
        keys: Handle,
        values: Handle,
        agg: str = "sum",
    ) -> Tuple[Handle, Handle]:
        self._check_agg(agg)
        if len(keys) != len(values):
            raise ValueError(
                f"grouped_aggregation: {len(keys)} keys vs {len(values)} values"
            )
        if len(keys) == 0:
            return (
                self.runtime.from_result(
                    np.empty(0, keys.dtype), "af::group_keys"
                ),
                self.runtime.from_result(
                    np.empty(0, np.float64), "af::group_values"
                ),
            )
        sorted_keys, sorted_values = af.sort_by_key(keys, values)
        if agg == "sum":
            return af.sum_by_key(sorted_keys, sorted_values)
        if agg == "count":
            ones = self.runtime.constant(1, len(sorted_keys), np.int64)
            return af.count_by_key(sorted_keys, ones)
        if agg == "min":
            return af.min_by_key(sorted_keys, sorted_values)
        if agg == "max":
            return af.max_by_key(sorted_keys, sorted_values)
        # avg: sumByKey / countByKey, divided lazily and evaluated once.
        out_keys, sums = af.sum_by_key(sorted_keys, sorted_values)
        ones = self.runtime.constant(1, len(sorted_keys), np.int64)
        _keys2, counts = af.count_by_key(sorted_keys, ones)
        averages = (sums.cast(np.float64) / counts.cast(np.float64)).eval()
        return out_keys, averages

    def reduction(self, values: Handle, agg: str = "sum") -> float:
        self._check_agg(agg)
        if agg == "count":
            return float(len(values))
        if len(values) == 0:
            if agg == "sum":
                return 0.0
            raise ValueError(f"reduction {agg!r} of an empty column")
        if agg == "sum":
            return float(af.sum(values))
        if agg == "avg":
            return float(af.sum(values)) / len(values)
        if agg == "min":
            return float(af.min(values))
        return float(af.max(values))

    # -- sorts / primitives ---------------------------------------------------------

    def sort(self, values: Handle, descending: bool = False) -> Handle:
        return af.sort(values, ascending=not descending)

    def sort_by_key(
        self, keys: Handle, values: Handle, descending: bool = False
    ) -> Tuple[Handle, Handle]:
        return af.sort_by_key(keys, values, ascending=not descending)

    def prefix_sum(self, values: Handle) -> Handle:
        return af.scan(values, inclusive=False)

    def gather(self, source: Handle, indices: Handle) -> Handle:
        return af.lookup(source, indices)

    def scatter(self, source: Handle, indices: Handle, length: int) -> Handle:
        destination = self.runtime.constant(0, length, source.dtype)
        af.assign_indexed(destination, indices, source)
        return destination

    def product(self, left: Handle, right: Handle) -> Handle:
        return (left * right).eval()

    def compute(self, columns: Dict[str, Handle], expr: Expr) -> Handle:
        """Lazy evaluation: the whole tree fuses into one JIT kernel."""
        lazy = self._lazy_expr(columns, expr)
        if not isinstance(lazy, af.Array):
            raise ValueError(f"expression {expr!r} references no column")
        return lazy.eval()

    def _lazy_expr(self, columns: Dict[str, Handle], expr: Expr):
        if isinstance(expr, ColRef):
            return columns[expr.name]
        if isinstance(expr, Lit):
            return float(expr.value)
        if isinstance(expr, BinOp):
            left = self._lazy_expr(columns, expr.left)
            right = self._lazy_expr(columns, expr.right)
            if isinstance(left, float) and isinstance(right, float):
                return float(ARITH_OPS[expr.op][0](left, right))
            operator = {"add": "__add__", "sub": "__sub__",
                        "mul": "__mul__", "div": "__truediv__"}[expr.op]
            if isinstance(left, float):
                reflected = {"add": "__radd__", "sub": "__rsub__",
                             "mul": "__rmul__", "div": "__rtruediv__"}[expr.op]
                return getattr(right, reflected)(left)
            return getattr(left, operator)(right)
        if isinstance(expr, ExtractYear):
            child = self._lazy_expr(columns, expr.child)
            if isinstance(child, float):
                return 1992.0 + float(np.floor_divide(4 * int(child), 1461))
            # No native floordiv: (q - q mod 1461) / 1461 is exact in
            # float64 (the numerator is a multiple of 1461) and stays one
            # lazy JIT tree.
            quad = child.cast(np.float64) * 4.0
            return ((quad - (quad % 1461.0)) / 1461.0) + 1992.0
        if isinstance(expr, CaseWhen):
            # Branch-free select: blend both arms with the 0/1 mask —
            # arms, mask, and blend all fuse into the same JIT kernel.
            keep = self._mask(columns, expr.condition).cast(np.float64)
            then = self._lazy_expr(columns, expr.then)
            otherwise = self._lazy_expr(columns, expr.otherwise)
            return keep * then + (1.0 - keep) * otherwise
        raise TypeError(f"unsupported expression node {expr!r}")

    def iota(self, n: int) -> Handle:
        return self.runtime.iota(n, np.int64)

    # -- metadata -------------------------------------------------------------------

    def support(self) -> Dict[Operator, OperatorSupport]:
        return {
            Operator.SELECTION: OperatorSupport(
                SupportLevel.FULL, "where(operator())"
            ),
            Operator.CONJUNCTION: OperatorSupport(
                SupportLevel.FULL, "setIntersect()"
            ),
            Operator.DISJUNCTION: OperatorSupport(
                SupportLevel.FULL, "setUnion()"
            ),
            Operator.NESTED_LOOP_JOIN: OperatorSupport(
                SupportLevel.PARTIAL, "gfor + batched compare"
            ),
            Operator.MERGE_JOIN: OperatorSupport(SupportLevel.NONE),
            Operator.HASH_JOIN: OperatorSupport(SupportLevel.NONE),
            Operator.GROUPED_AGGREGATION: OperatorSupport(
                SupportLevel.FULL, "sumByKey(), countByKey()"
            ),
            Operator.REDUCTION: OperatorSupport(SupportLevel.FULL, "sum<T>()"),
            Operator.SORT: OperatorSupport(SupportLevel.FULL, "sort()"),
            Operator.SORT_BY_KEY: OperatorSupport(SupportLevel.FULL, "sort()"),
            Operator.PREFIX_SUM: OperatorSupport(SupportLevel.FULL, "scan()"),
            Operator.SCATTER: OperatorSupport(
                SupportLevel.FULL, "operator()(af::index)"
            ),
            Operator.GATHER: OperatorSupport(SupportLevel.FULL, "lookup()"),
            Operator.PRODUCT: OperatorSupport(
                SupportLevel.FULL, "operator*()"
            ),
        }
