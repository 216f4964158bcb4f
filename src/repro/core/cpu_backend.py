"""NumPy reference backend — the correctness oracle.

Executes every operator with plain NumPy on the host and charges nothing
to any simulated device.  Tests compare every GPU backend against this
oracle; it also serves as the semantic definition of each operator.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.backend import (
    Operator,
    OperatorBackend,
    OperatorSupport,
    SupportLevel,
    join_reference,
)
from repro.core.expr import Expr
from repro.core.predicate import Predicate
from repro.gpu.device import Device
from repro.libs.base import check_same_length


class CpuReferenceBackend(OperatorBackend):
    """Plain-NumPy operator implementations (no device, no costs)."""

    name = "cpu-reference"

    def __init__(self, device: Optional[Device] = None) -> None:
        # The oracle does not price anything, but keeping a device slot
        # preserves the backend interface for the framework registry.
        super().__init__(device if device is not None else Device())

    # -- data movement -------------------------------------------------------

    def upload(self, array: np.ndarray, label: str = "column") -> np.ndarray:
        return np.ascontiguousarray(array)

    def download(self, handle: np.ndarray) -> np.ndarray:
        return np.asarray(handle).copy()

    def wrap(self, array: np.ndarray, label: str) -> np.ndarray:
        return np.ascontiguousarray(array)

    # -- operators -------------------------------------------------------------

    def selection(
        self, columns: Dict[str, np.ndarray], predicate: Predicate
    ) -> np.ndarray:
        mask = predicate.evaluate(columns)
        return np.flatnonzero(mask).astype(np.int64)

    def nested_loop_join(
        self, left_keys: np.ndarray, right_keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        return join_reference(left_keys, right_keys)

    def merge_join(
        self, left_keys: np.ndarray, right_keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        return join_reference(left_keys, right_keys)

    def hash_join(
        self, left_keys: np.ndarray, right_keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        return join_reference(left_keys, right_keys)

    def grouped_aggregation(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        agg: str = "sum",
    ) -> Tuple[np.ndarray, np.ndarray]:
        self._check_agg(agg)
        if len(keys) != len(values):
            raise ValueError(
                f"grouped_aggregation: {len(keys)} keys vs {len(values)} values"
            )
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        groups = len(unique_keys)
        if agg == "sum":
            out = np.bincount(
                inverse, weights=values.astype(np.float64), minlength=groups
            )
            out = out.astype(_sum_dtype(values.dtype), copy=False)
        elif agg == "count":
            out = np.bincount(inverse, minlength=groups).astype(np.int64)
        elif agg == "avg":
            sums = np.bincount(
                inverse, weights=values.astype(np.float64), minlength=groups
            )
            counts = np.bincount(inverse, minlength=groups)
            out = sums / counts
        elif agg == "min":
            out = np.full(groups, np.inf)
            np.minimum.at(out, inverse, values.astype(np.float64))
            out = out.astype(_minmax_dtype(values.dtype), copy=False)
        else:  # max
            out = np.full(groups, -np.inf)
            np.maximum.at(out, inverse, values.astype(np.float64))
            out = out.astype(_minmax_dtype(values.dtype), copy=False)
        return unique_keys, out

    def reduction(self, values: np.ndarray, agg: str = "sum") -> float:
        self._check_agg(agg)
        if agg == "count":
            return float(len(values))
        if len(values) == 0:
            if agg == "sum":
                return 0.0
            raise ValueError(f"reduction {agg!r} of an empty column")
        if agg == "sum":
            return float(values.sum(dtype=np.float64))
        if agg == "avg":
            return float(values.mean(dtype=np.float64))
        if agg == "min":
            return float(values.min())
        return float(values.max())

    def sort(self, values: np.ndarray, descending: bool = False) -> np.ndarray:
        result = np.sort(values, kind="stable")
        return result[::-1].copy() if descending else result

    def sort_by_key(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        descending: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        check_same_length(keys, values, "sort_by_key")
        order = np.argsort(keys, kind="stable")
        if descending:
            order = order[::-1]
        return keys[order].copy(), values[order].copy()

    def prefix_sum(self, values: np.ndarray) -> np.ndarray:
        acc = np.cumsum(values, dtype=_sum_dtype(values.dtype))
        if len(acc):
            acc = np.roll(acc, 1)
            acc[0] = 0
        return acc.astype(values.dtype, copy=False)

    def gather(self, source: np.ndarray, indices: np.ndarray) -> np.ndarray:
        return source[indices.astype(np.int64)].copy()

    def scatter(
        self, source: np.ndarray, indices: np.ndarray, length: int
    ) -> np.ndarray:
        out = np.zeros(length, dtype=source.dtype)
        out[indices.astype(np.int64)] = source
        return out

    def product(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        if len(left) != len(right):
            raise ValueError(f"product: {len(left)} vs {len(right)} elements")
        return left * right

    def compute(self, columns: Dict[str, np.ndarray], expr: Expr) -> np.ndarray:
        if not expr.columns():
            raise ValueError(f"expression {expr!r} references no column")
        return np.asarray(expr.evaluate(columns))

    def iota(self, n: int) -> np.ndarray:
        return np.arange(n, dtype=np.int64)

    # -- metadata -----------------------------------------------------------------

    def support(self) -> Dict[Operator, OperatorSupport]:
        full = OperatorSupport(SupportLevel.FULL, "numpy")
        return {operator: full for operator in Operator}


def _sum_dtype(dtype: np.dtype) -> np.dtype:
    if np.issubdtype(dtype, np.integer) or dtype == np.dtype(bool):
        return np.dtype(np.int64)
    return np.dtype(np.float64)


def _minmax_dtype(dtype: np.dtype) -> np.dtype:
    if np.issubdtype(dtype, np.integer):
        return np.dtype(np.int64)
    return np.dtype(np.float64)
