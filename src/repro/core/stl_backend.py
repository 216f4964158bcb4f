"""Shared realization of database operators over STL-style GPU libraries.

Thrust and Boost.Compute expose near-identical STL-like algorithm suites
(the paper's Table II maps both onto the *same* function chains), so one
implementation parameterised by the library module serves both backends.
The composition per operator follows Table II exactly:

* selection — ``transform()`` (predicate → flags) & ``exclusive_scan()``
  (flags → positions) & compaction (``scatter_if`` with a counting
  iterator; Table II prints the chain as transform/scan/gather);
* conjunction/disjunction — per-leaf ``transform()`` flags combined with
  ``bit_and<T>()`` / ``bit_or<T>()``;
* nested-loops join — ``for_each_n()`` with a user functor that scans the
  inner relation;
* grouped aggregation — ``sort_by_key()`` then ``reduce_by_key()``;
* reduction — ``reduce()``; sort family — ``sort()``/``sort_by_key()``;
* prefix sum — ``exclusive_scan()``; scatter & gather — direct calls;
* product — ``transform()`` with ``multiplies<T>()``.
"""

from __future__ import annotations

from types import ModuleType
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
from repro.gpu.device import Device
from repro.libs.base import LibraryRuntime
from repro.libs.thrust.functional import (
    Functor,
    bit_and,
    bit_or,
    maximum,
    minimum,
    multiplies,
)
from repro.relational.hashjoin import join_sorted

#: Shared-memory tile width for the nested-loops join functor: each thread
#: block stages TILE outer keys while streaming the inner relation, so the
#: inner relation crosses DRAM once per outer tile.
NLJ_TILE = 256


def _predicate_functor(predicate: Predicate) -> Functor:
    """Lower a leaf predicate to a flag-producing functor (int32 0/1)."""
    if isinstance(predicate, Compare):
        reference = predicate

        def apply(x: np.ndarray) -> np.ndarray:
            return reference.evaluate({reference.column: x}).astype(np.int32)

        return Functor(f"flags{predicate!r}", apply, arity=1,
                       flops=predicate.flops + 0.5)
    if isinstance(predicate, Between):
        reference_between = predicate

        def apply_between(x: np.ndarray) -> np.ndarray:
            return reference_between.evaluate(
                {reference_between.column: x}
            ).astype(np.int32)

        return Functor(
            f"flags{predicate!r}", apply_between, arity=1,
            flops=predicate.flops + 0.5,
        )
    if isinstance(predicate, InSet):
        reference_in = predicate

        def apply_in(x: np.ndarray) -> np.ndarray:
            return reference_in.evaluate(
                {reference_in.column: x}
            ).astype(np.int32)

        # One binary search per element into the device-resident sorted
        # value set (the set rides in constant memory, so no extra read).
        return Functor(
            f"flags{predicate!r}", apply_in, arity=1,
            flops=predicate.flops + 0.5,
        )
    raise TypeError(f"not a leaf predicate: {predicate!r}")


class StlStyleBackend(OperatorBackend):
    """Operators composed from an STL-style library module.

    Subclasses provide the runtime and the library module; the module must
    expose the shared algorithm names (transform, exclusive_scan,
    scatter_if, reduce, reduce_by_key, sort, sort_by_key, copy, gather,
    scatter, lower_bound, upper_bound, fill).
    """

    #: Table II prints "+" for the STL libraries' NLJ (for_each_n).
    _NLJ_SUPPORT = OperatorSupport(SupportLevel.FULL, "for_each_n()")

    def __init__(self, device: Device, runtime: LibraryRuntime,
                 lib: ModuleType) -> None:
        super().__init__(device)
        self.runtime = runtime
        self._lib = lib

    # -- construction hooks ----------------------------------------------------

    def _vector(self, array: np.ndarray, label: str) -> Handle:
        """Device vector from host data (charges H2D)."""
        raise NotImplementedError

    def _empty(self, n: int, dtype: np.dtype) -> Handle:
        """Uninitialised device vector."""
        raise NotImplementedError

    def wrap(self, array: np.ndarray, label: str) -> Handle:
        """Wrap a device-side result without a transfer."""
        return self.runtime._materialize(np.ascontiguousarray(array), label)

    # -- data movement -------------------------------------------------------------

    def upload(self, array: np.ndarray, label: str = "column") -> Handle:
        return self._vector(np.ascontiguousarray(array), label)

    def download(self, handle: Handle) -> np.ndarray:
        return handle.to_host()

    # -- selection ---------------------------------------------------------------------

    def selection(
        self, columns: Dict[str, Handle], predicate: Predicate
    ) -> Handle:
        flags = self._flags(columns, predicate)
        positions = self._lib.exclusive_scan(flags)
        # The host needs the match count to size the output: read back the
        # last scan element and the last flag (two 4-byte D2H transfers).
        total = int(positions.peek()[-1] + flags.peek()[-1]) if len(flags) else 0
        self.device.transfer_to_host(8, "selection_count")
        output = self._empty(total, np.int64)
        if len(flags):
            self._lib.scatter_if(positions, flags, output)
        return output

    def _flags(self, columns: Dict[str, Handle], predicate: Predicate) -> Handle:
        """Flag vector (int32 0/1) for an arbitrary predicate tree."""
        if isinstance(predicate, (Compare, Between, InSet)):
            column = columns[next(iter(predicate.columns()))]
            return self._lib.transform(column, _predicate_functor(predicate))
        if isinstance(predicate, CompareCols):
            comparator = predicate

            def apply_cols(x: np.ndarray, y: np.ndarray) -> np.ndarray:
                return comparator.evaluate(
                    {comparator.left: x, comparator.right: y}
                ).astype(np.int32)

            functor = Functor(
                f"flags{predicate!r}", apply_cols, arity=2,
                flops=predicate.flops + 0.5,
            )
            return self._lib.transform(
                columns[predicate.left], functor, columns[predicate.right]
            )
        if isinstance(predicate, And):
            flags = [self._flags(columns, part) for part in predicate.parts]
            combined = flags[0]
            for part_flags in flags[1:]:
                combined = self._lib.transform(combined, bit_and(), part_flags)
            return combined
        if isinstance(predicate, Or):
            flags = [self._flags(columns, part) for part in predicate.parts]
            combined = flags[0]
            for part_flags in flags[1:]:
                combined = self._lib.transform(combined, bit_or(), part_flags)
            return combined
        if isinstance(predicate, Not):
            inner = self._flags(columns, predicate.part)
            invert = Functor(
                "flip_flags", lambda x: (1 - x).astype(np.int32),
                arity=1, flops=1.0,
            )
            return self._lib.transform(inner, invert)
        raise TypeError(f"unsupported predicate node {predicate!r}")

    # -- joins -------------------------------------------------------------------------

    def nested_loop_join(
        self, left_keys: Handle, right_keys: Handle
    ) -> Tuple[Handle, Handle]:
        """``for_each_n`` over the outer relation; the user functor scans
        the inner relation from a shared-memory tile."""
        left = left_keys.peek()
        right = right_keys.peek()
        left_ids, right_ids = join_reference(left, right)
        n, m = len(left), len(right)
        inner_bytes = float(right_keys.itemsize)
        # One kernel: every outer element compares against all m inner keys
        # in a per-thread loop (~8 instructions per iteration: load, compare,
        # branch, counter); the inner relation is re-read from DRAM once per
        # outer tile.
        self.runtime._charge(
            "for_each_n<nlj_probe>",
            n,
            flops=8.0 * m,
            read=left_keys.itemsize + (m * inner_bytes) / NLJ_TILE,
            written=8.0 * (len(left_ids) / max(n, 1)),
        )
        # Match count readback, then a second pass materialises pairs.
        self.device.transfer_to_host(8, "nlj_count")
        self.runtime._charge(
            "for_each_n<nlj_materialize>",
            n,
            flops=8.0 * m,
            read=left_keys.itemsize + (m * inner_bytes) / NLJ_TILE,
            written=16.0 * (len(left_ids) / max(n, 1)),
        )
        return (
            self.wrap(left_ids, "nlj_left_ids"),
            self.wrap(right_ids, "nlj_right_ids"),
        )

    def merge_join(
        self, left_keys: Handle, right_keys: Handle
    ) -> Tuple[Handle, Handle]:
        """Sort-merge composed from library primitives.

        Table II marks merge join "–" (no direct function); this is the
        closest composition — sort both sides with row-id payloads, then
        vectorized ``lower_bound``/``upper_bound`` and a pair-expansion
        kernel — and it is what the join benchmark labels
        "merge join (composed)".
        """
        left = left_keys.peek()
        n, m = len(left), len(right_keys)
        # Sort both sides, carrying original row ids as payloads.
        left_sorted = self._lib.copy(left_keys)
        left_rowids = self._iota_vector(n)
        self._lib.sort_by_key(left_sorted, left_rowids)
        right_sorted = self._lib.copy(right_keys)
        right_rowids = self._iota_vector(m)
        self._lib.sort_by_key(right_sorted, right_rowids)
        lo = self._lib.lower_bound(right_sorted, left_sorted)
        hi = self._lib.upper_bound(right_sorted, left_sorted)
        counts = self._lib.transform(
            hi, Functor("minus", np.subtract, arity=2, flops=1.0), lo
        )
        # The expansion kernel reads the offsets: they stay allocated
        # until the pairs are out.
        _offsets = self._lib.exclusive_scan(counts)
        self.device.transfer_to_host(8, "merge_join_count")
        # Expansion kernel: one thread per output pair gathers both row ids.
        # The pairs are the runs of the right side sort_by_key sorted; the
        # sort is stable, so join_sorted lists them in canonical order.
        # That holds only if the right keys were sorted in the common
        # dtype: cast to it (int64 to float64 above 2**53), keys that
        # sorted apart can become equal, and their run is out of row order.
        # The pairs are exact where the bounds are not (int64 against
        # uint64 compares in float64 there), so the kernel is charged one
        # element per pair it emits.
        right = right_sorted.peek()
        if right.dtype == np.result_type(left.dtype, right.dtype):
            left_ids, right_ids = join_sorted(left, right, right_rowids.peek())
        else:
            left_ids, right_ids = join_reference(left, right_keys.peek())
        self.runtime._charge(
            "merge_join_expand",
            len(left_ids),
            flops=2.0,
            read=4.0 + 4.0 * 8.0,  # offsets plus uncoalesced row-id gathers
            written=16.0,
        )
        return (
            self.wrap(left_ids, "mj_left_ids"),
            self.wrap(right_ids, "mj_right_ids"),
        )

    def _iota_vector(self, n: int) -> Handle:
        """Row-id vector 0..n-1 (one generation kernel)."""
        raise NotImplementedError

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
                self.wrap(np.empty(0, keys.dtype), "group_keys"),
                self.wrap(np.empty(0, np.float64), "group_values"),
            )
        sorted_keys = self._lib.copy(keys)
        sorted_values = self._lib.copy(values)
        self._lib.sort_by_key(sorted_keys, sorted_values)
        if agg == "sum":
            out_keys, out_values = self._lib.reduce_by_key(
                sorted_keys, sorted_values
            )
        elif agg == "count":
            ones = self._ones_like(sorted_keys)
            out_keys, out_values = self._lib.reduce_by_key(sorted_keys, ones)
        elif agg == "min":
            out_keys, out_values = self._lib.reduce_by_key(
                sorted_keys, sorted_values, minimum()
            )
        elif agg == "max":
            out_keys, out_values = self._lib.reduce_by_key(
                sorted_keys, sorted_values, maximum()
            )
        else:  # avg = sum / count, composed from three library calls
            out_keys, sums = self._lib.reduce_by_key(sorted_keys, sorted_values)
            ones = self._ones_like(sorted_keys)
            _keys2, counts = self._lib.reduce_by_key(sorted_keys, ones)
            divide = Functor(
                "divide_f64",
                lambda s, c: s.astype(np.float64) / c,
                arity=2,
                flops=4.0,
            )
            out_values = self._lib.transform(sums, divide, counts)
        return out_keys, out_values

    def _ones_like(self, handle: Handle) -> Handle:
        ones = self._empty(len(handle), np.int64)
        self._lib.fill(ones, 1)
        return ones

    def reduction(self, values: Handle, agg: str = "sum") -> float:
        self._check_agg(agg)
        if agg == "count":
            # The row count is host-side metadata; no kernel needed.
            return float(len(values))
        if len(values) == 0:
            if agg == "sum":
                return 0.0
            raise ValueError(f"reduction {agg!r} of an empty column")
        if agg == "sum":
            return float(self._lib.reduce(values))
        if agg == "avg":
            return float(self._lib.reduce(values)) / len(values)
        # Third argument is positional: Thrust spells it ``functor``,
        # Boost.Compute spells it ``op``.
        if agg == "min":
            first = float(values.peek()[0])
            return float(self._lib.reduce(values, first, minimum()))
        first = float(values.peek()[0])
        return float(self._lib.reduce(values, first, maximum()))

    # -- sorts / primitives -----------------------------------------------------------

    def sort(self, values: Handle, descending: bool = False) -> Handle:
        result = self._lib.copy(values)
        self._lib.sort(result, descending=descending)
        return result

    def sort_by_key(
        self, keys: Handle, values: Handle, descending: bool = False
    ) -> Tuple[Handle, Handle]:
        out_keys = self._lib.copy(keys)
        out_values = self._lib.copy(values)
        self._lib.sort_by_key(out_keys, out_values, descending=descending)
        return out_keys, out_values

    def prefix_sum(self, values: Handle) -> Handle:
        return self._lib.exclusive_scan(values)

    def gather(self, source: Handle, indices: Handle) -> Handle:
        return self._lib.gather(indices, source)

    def scatter(self, source: Handle, indices: Handle, length: int) -> Handle:
        destination = self._empty(length, source.dtype)
        self._lib.fill(destination, 0)
        self._lib.scatter(source, indices, destination)
        return destination

    def product(self, left: Handle, right: Handle) -> Handle:
        return self._lib.transform(left, multiplies(), right)

    def compute(self, columns: Dict[str, Handle], expr: Expr) -> Handle:
        """Eager evaluation: one ``transform`` per operator node, every
        intermediate materialised — the chaining overhead the paper
        attributes to library composition."""
        result = self._compute_node(columns, expr)
        if not isinstance(result, float):
            return result
        raise ValueError(f"expression {expr!r} references no column")

    def _compute_node(self, columns: Dict[str, Handle], expr: Expr):
        if isinstance(expr, ColRef):
            return columns[expr.name]
        if isinstance(expr, Lit):
            return float(expr.value)
        if isinstance(expr, BinOp):
            ufunc, flops = ARITH_OPS[expr.op]
            left = self._compute_node(columns, expr.left)
            right = self._compute_node(columns, expr.right)
            if isinstance(left, float) and isinstance(right, float):
                return float(ufunc(left, right))
            if isinstance(right, float):
                constant_r = right
                bound = Functor(
                    f"{expr.op}_const", lambda x: ufunc(x, constant_r),
                    arity=1, flops=flops,
                )
                return self._lib.transform(left, bound)
            if isinstance(left, float):
                constant_l = left
                bound = Functor(
                    f"const_{expr.op}", lambda x: ufunc(constant_l, x),
                    arity=1, flops=flops,
                )
                return self._lib.transform(right, bound)
            binary = Functor(expr.op, ufunc, arity=2, flops=flops)
            return self._lib.transform(left, binary, right)
        if isinstance(expr, ExtractYear):
            child = self._compute_node(columns, expr.child)
            if isinstance(child, float):
                return 1992.0 + float(np.floor_divide(4 * int(child), 1461))
            year = Functor(
                "extract_year",
                lambda x: (
                    1992 + np.floor_divide(4 * x.astype(np.int64), 1461)
                ).astype(np.float64),
                arity=1, flops=6.0,
            )
            return self._lib.transform(child, year)
        if isinstance(expr, CaseWhen):
            # Branch-free eager composition: flags, then blend the two
            # arms with multiply/add transforms (one launch per node —
            # the chaining the paper attributes to STL composition).
            flags = self._flags(columns, expr.condition)
            then_term = self._case_arm(columns, expr.then, flags, invert=False)
            other_term = self._case_arm(
                columns, expr.otherwise, flags, invert=True
            )
            blend = Functor("case_blend", np.add, arity=2, flops=1.0)
            return self._lib.transform(then_term, blend, other_term)
        raise TypeError(f"unsupported expression node {expr!r}")

    def _case_arm(self, columns: Dict[str, Handle], arm: Expr,
                  flags: Handle, invert: bool):
        """One CASE arm masked by the (possibly inverted) flag vector."""
        value = self._compute_node(columns, arm)
        if isinstance(value, float):
            constant = value

            def apply_const(f: np.ndarray) -> np.ndarray:
                keep = (1 - f) if invert else f
                return (constant * keep).astype(np.float64)

            name = "case_else_const" if invert else "case_then_const"
            return self._lib.transform(
                flags, Functor(name, apply_const, arity=1, flops=2.0)
            )

        def apply(v: np.ndarray, f: np.ndarray) -> np.ndarray:
            keep = (1 - f) if invert else f
            return (v * keep).astype(np.float64)

        name = "case_else_mask" if invert else "case_then_mask"
        return self._lib.transform(
            value, Functor(name, apply, arity=2, flops=2.0), flags
        )

    def iota(self, n: int) -> Handle:
        return self._iota_vector(n)

    # -- metadata -----------------------------------------------------------------------

    def support(self) -> Dict[Operator, OperatorSupport]:
        chain = "transform() & exclusive_scan() & gather()"
        return {
            Operator.SELECTION: OperatorSupport(SupportLevel.PARTIAL, chain),
            Operator.CONJUNCTION: OperatorSupport(
                SupportLevel.FULL, "bit_and<T>()"
            ),
            Operator.DISJUNCTION: OperatorSupport(
                SupportLevel.FULL, "bit_or<T>()"
            ),
            Operator.NESTED_LOOP_JOIN: self._NLJ_SUPPORT,
            Operator.MERGE_JOIN: OperatorSupport(SupportLevel.NONE),
            Operator.HASH_JOIN: OperatorSupport(SupportLevel.NONE),
            Operator.GROUPED_AGGREGATION: OperatorSupport(
                SupportLevel.FULL, "reduce_by_key()"
            ),
            Operator.REDUCTION: OperatorSupport(SupportLevel.FULL, "reduce()"),
            Operator.SORT: OperatorSupport(SupportLevel.FULL, "sort()"),
            Operator.SORT_BY_KEY: OperatorSupport(
                SupportLevel.FULL, "sort_by_key()"
            ),
            Operator.PREFIX_SUM: OperatorSupport(
                SupportLevel.FULL, "exclusive_scan()"
            ),
            Operator.SCATTER: OperatorSupport(SupportLevel.FULL, "scatter()"),
            Operator.GATHER: OperatorSupport(SupportLevel.FULL, "gather()"),
            Operator.PRODUCT: OperatorSupport(
                SupportLevel.FULL, "transform() & multiplies<T>()"
            ),
        }
