"""The operator-backend interface — the heart of the paper's framework.

The paper: *"we develop a framework to show the support of GPU libraries
for database operations that allows a user to plug-in new libraries and
custom-written code."*  An :class:`OperatorBackend` is one such plug-in: it
realizes the column-oriented database operators of Table II on top of one
GPU library (or hand-written kernels, or plain NumPy for the reference
oracle).

Data flows through opaque *handles* (each backend's native device array
type).  ``upload``/``download`` move columns across the PCIe boundary;
every operator takes and returns handles so multi-operator pipelines pay
transfers only at the edges — exactly the regime the paper benchmarks.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Tuple

import numpy as np

from repro.core.expr import Expr
from repro.core.predicate import Predicate
from repro.errors import UnsupportedOperatorError
from repro.gpu.device import Device
# Re-exported: every backend and oracle imports the join from here.
from repro.relational.hashjoin import join_reference as join_reference

#: A backend-native device array; kept deliberately untyped at this layer.
Handle = Any


class Operator(Enum):
    """The database operators of the paper's Table II."""

    SELECTION = "selection"
    CONJUNCTION = "conjunction"
    DISJUNCTION = "disjunction"
    NESTED_LOOP_JOIN = "nested_loop_join"
    MERGE_JOIN = "merge_join"
    HASH_JOIN = "hash_join"
    GROUPED_AGGREGATION = "grouped_aggregation"
    REDUCTION = "reduction"
    SORT = "sort"
    SORT_BY_KEY = "sort_by_key"
    PREFIX_SUM = "prefix_sum"
    SCATTER = "scatter"
    GATHER = "gather"
    PRODUCT = "product"


class SupportLevel(Enum):
    """Table II legend: ``+`` full, ``~`` partial, ``-`` none."""

    FULL = "+"
    PARTIAL = "~"
    NONE = "-"


@dataclass(frozen=True)
class OperatorSupport:
    """One Table II cell: support level and the library functions used."""

    level: SupportLevel
    functions: str = ""


#: Aggregation kinds accepted by grouped aggregation and reduction.
AGGREGATES = ("sum", "count", "min", "max", "avg")


class OperatorBackend(abc.ABC):
    """Database operators realized over one GPU library."""

    #: Backend identifier used in benchmarks and the support matrix.
    name: str = "abstract"

    def __init__(self, device: Device) -> None:
        self.device = device

    # -- data movement -------------------------------------------------------

    @abc.abstractmethod
    def upload(self, array: np.ndarray, label: str = "column") -> Handle:
        """Copy a host column to the device; returns a handle."""

    @abc.abstractmethod
    def download(self, handle: Handle) -> np.ndarray:
        """Copy a handle's contents back to the host."""

    @abc.abstractmethod
    def wrap(self, array: np.ndarray, label: str) -> Handle:
        """This backend's handle for bytes already on the device.

        Nothing is transferred or charged: the caller has produced the
        bytes on the device (a kernel result, a decoded store chunk) or
        priced their transfer itself (a batched staging copy).
        """

    # -- Table II operators -----------------------------------------------------

    @abc.abstractmethod
    def selection(
        self, columns: Dict[str, Handle], predicate: Predicate
    ) -> Handle:
        """Row-identifier list of rows satisfying ``predicate``.

        ``columns`` must cover ``predicate.columns()``.  Compound
        predicates exercise the backend's conjunction/disjunction
        realization (bitmap combine or id-set intersection).
        """

    @abc.abstractmethod
    def nested_loop_join(
        self, left_keys: Handle, right_keys: Handle
    ) -> Tuple[Handle, Handle]:
        """Inner equi-join by exhaustive comparison: returns matching
        (left row ids, right row ids)."""

    @abc.abstractmethod
    def merge_join(
        self, left_keys: Handle, right_keys: Handle
    ) -> Tuple[Handle, Handle]:
        """Inner equi-join via sort + merge: returns matching row ids."""

    def hash_join(
        self, left_keys: Handle, right_keys: Handle
    ) -> Tuple[Handle, Handle]:
        """Inner equi-join via a hash table.

        Default: unsupported.  The paper's headline finding is that **none**
        of the studied libraries exposes hashing, so only the handwritten
        backend overrides this.
        """
        raise UnsupportedOperatorError(
            self.name, Operator.HASH_JOIN.value,
            "no hashing primitives in this library (paper, Table II)",
        )

    @abc.abstractmethod
    def grouped_aggregation(
        self,
        keys: Handle,
        values: Handle,
        agg: str = "sum",
    ) -> Tuple[Handle, Handle]:
        """SQL GROUP BY: returns (unique keys, aggregate per key), ordered
        by key."""

    @abc.abstractmethod
    def reduction(self, values: Handle, agg: str = "sum") -> float:
        """Fold a column to one scalar."""

    @abc.abstractmethod
    def sort(self, values: Handle, descending: bool = False) -> Handle:
        """Sorted copy of a column."""

    @abc.abstractmethod
    def sort_by_key(
        self, keys: Handle, values: Handle, descending: bool = False
    ) -> Tuple[Handle, Handle]:
        """Key/value sorted copies."""

    @abc.abstractmethod
    def prefix_sum(self, values: Handle) -> Handle:
        """Exclusive prefix sum."""

    @abc.abstractmethod
    def gather(self, source: Handle, indices: Handle) -> Handle:
        """``out[i] = source[indices[i]]`` (column materialization)."""

    @abc.abstractmethod
    def scatter(
        self, source: Handle, indices: Handle, length: int
    ) -> Handle:
        """``out[indices[i]] = source[i]`` into a fresh zeroed column."""

    @abc.abstractmethod
    def product(self, left: Handle, right: Handle) -> Handle:
        """Elementwise multiplication of two columns (Table II *product*,
        e.g. ``l_extendedprice * (1 - l_discount)`` pipelines)."""

    @abc.abstractmethod
    def compute(self, columns: Dict[str, Handle], expr: "Expr") -> Handle:
        """Evaluate a scalar arithmetic expression over device columns.

        Eager libraries launch one kernel per operator node; ArrayFire
        fuses the tree; handwritten kernels are fused by construction.
        """

    @abc.abstractmethod
    def iota(self, n: int) -> Handle:
        """Device-generated row-id column 0..n-1 (int64)."""

    # -- metadata -----------------------------------------------------------------

    @abc.abstractmethod
    def support(self) -> Dict[Operator, OperatorSupport]:
        """This backend's Table II column."""

    # -- helpers shared by implementations -----------------------------------------

    @staticmethod
    def _check_agg(agg: str) -> str:
        if agg not in AGGREGATES:
            raise ValueError(
                f"unknown aggregate {agg!r}; known: {', '.join(AGGREGATES)}"
            )
        return agg

    def __repr__(self) -> str:
        return f"{type(self).__name__}(device={self.device.spec.name!r})"
