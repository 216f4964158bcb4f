"""Predicate AST for selections.

Backends lower this small language onto their library's constructs
(Table II): ArrayFire fuses comparisons into JIT trees evaluated by a
single ``where``; Thrust/Boost.Compute evaluate each comparison with
``transform`` and combine flag vectors with ``bit_and``/``bit_or``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Sequence, Tuple, Union

import numpy as np

from repro.errors import ExpressionError

#: Comparison operator spellings and their NumPy implementations.
_COMPARE_OPS = {
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
    "eq": np.equal,
    "ne": np.not_equal,
}


class Predicate:
    """Base class of the predicate AST."""

    def columns(self) -> FrozenSet[str]:
        """Names of all columns the predicate touches."""
        raise NotImplementedError

    def evaluate(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        """Reference evaluation: boolean mask over the given columns."""
        raise NotImplementedError

    def __and__(self, other: "Predicate") -> "And":
        return And((self, other))

    def __or__(self, other: "Predicate") -> "Or":
        return Or((self, other))

    def __invert__(self) -> "Not":
        return Not(self)


@dataclass(frozen=True)
class Compare(Predicate):
    """A single comparison ``column <op> value``."""

    column: str
    op: str
    value: float

    def __post_init__(self) -> None:
        if self.op not in _COMPARE_OPS:
            known = ", ".join(sorted(_COMPARE_OPS))
            raise ExpressionError(
                f"unknown comparison op {self.op!r}; known: {known}"
            )

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column})

    def evaluate(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        data = _column(columns, self.column)
        return _COMPARE_OPS[self.op](data, self.value)

    @property
    def flops(self) -> float:
        """Per-element cost of the comparison."""
        return 1.0

    def __repr__(self) -> str:
        symbol = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=",
                  "eq": "==", "ne": "!="}[self.op]
        return f"({self.column} {symbol} {self.value})"


@dataclass(frozen=True)
class CompareCols(Predicate):
    """Column-to-column comparison ``left <op> right`` (e.g. TPC-H Q4's
    ``l_commitdate < l_receiptdate``)."""

    left: str
    op: str
    right: str

    def __post_init__(self) -> None:
        if self.op not in _COMPARE_OPS:
            known = ", ".join(sorted(_COMPARE_OPS))
            raise ExpressionError(
                f"unknown comparison op {self.op!r}; known: {known}"
            )

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.left, self.right})

    def evaluate(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        return _COMPARE_OPS[self.op](
            _column(columns, self.left), _column(columns, self.right)
        )

    @property
    def flops(self) -> float:
        """Per-element cost of the comparison."""
        return 1.0

    def __repr__(self) -> str:
        symbol = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=",
                  "eq": "==", "ne": "!="}[self.op]
        return f"({self.left} {symbol} {self.right})"


@dataclass(frozen=True)
class Between(Predicate):
    """Closed-range predicate ``low <= column <= high`` (SQL BETWEEN)."""

    column: str
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ExpressionError(
                f"between: high ({self.high}) < low ({self.low})"
            )

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column})

    def evaluate(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        data = _column(columns, self.column)
        return (data >= self.low) & (data <= self.high)

    @property
    def flops(self) -> float:
        """Two comparisons and a combine."""
        return 3.0

    def __repr__(self) -> str:
        return f"({self.low} <= {self.column} <= {self.high})"


@dataclass(frozen=True)
class InSet(Predicate):
    """Membership test ``column IN (v0, v1, ...)`` (SQL IN-list).

    String IN-lists reach this node already lowered to dictionary codes,
    and resolved uncorrelated IN subqueries are spliced in as literal
    value tuples, so every backend only ever sees numeric membership.
    """

    column: str
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ExpressionError(f"IN-list for {self.column!r} is empty")

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column})

    def evaluate(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        data = _column(columns, self.column)
        return np.isin(data, np.asarray(self.values))

    @property
    def flops(self) -> float:
        """Binary-search probe into the sorted value set."""
        return 1.0 + float(np.log2(max(len(self.values), 2)))

    def __repr__(self) -> str:
        if len(self.values) <= 4:
            shown = ", ".join(repr(v) for v in self.values)
            return f"({self.column} IN ({shown}))"
        return f"({self.column} IN ({len(self.values)} values))"


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of two or more predicates."""

    parts: Tuple[Predicate, ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ExpressionError("And needs at least two parts")

    def columns(self) -> FrozenSet[str]:
        return frozenset().union(*(p.columns() for p in self.parts))

    def evaluate(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        result = self.parts[0].evaluate(columns)
        for part in self.parts[1:]:
            result = result & part.evaluate(columns)
        return result

    def __repr__(self) -> str:
        return "(" + " AND ".join(map(repr, self.parts)) + ")"


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of two or more predicates."""

    parts: Tuple[Predicate, ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ExpressionError("Or needs at least two parts")

    def columns(self) -> FrozenSet[str]:
        return frozenset().union(*(p.columns() for p in self.parts))

    def evaluate(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        result = self.parts[0].evaluate(columns)
        for part in self.parts[1:]:
            result = result | part.evaluate(columns)
        return result

    def __repr__(self) -> str:
        return "(" + " OR ".join(map(repr, self.parts)) + ")"


@dataclass(frozen=True)
class Not(Predicate):
    """Negation."""

    part: Predicate

    def columns(self) -> FrozenSet[str]:
        return self.part.columns()

    def evaluate(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        return ~self.part.evaluate(columns)

    def __repr__(self) -> str:
        return f"(NOT {self.part!r})"


# -- convenience constructors (read like SQL) ---------------------------------

def col_lt(column: str, value: float) -> Compare:
    """``column < value``."""
    return Compare(column, "lt", value)


def col_le(column: str, value: float) -> Compare:
    """``column <= value``."""
    return Compare(column, "le", value)


def col_gt(column: str, value: float) -> Compare:
    """``column > value``."""
    return Compare(column, "gt", value)


def col_ge(column: str, value: float) -> Compare:
    """``column >= value``."""
    return Compare(column, "ge", value)


def col_eq(column: str, value: float) -> Compare:
    """``column == value``."""
    return Compare(column, "eq", value)


def col_ne(column: str, value: float) -> Compare:
    """``column != value``."""
    return Compare(column, "ne", value)


def col_between(column: str, low: float, high: float) -> Between:
    """``low <= column <= high``."""
    return Between(column, low, high)


def col_cmp(left: str, op: str, right: str) -> CompareCols:
    """Column-to-column comparison, e.g. ``col_cmp("a", "lt", "b")``."""
    return CompareCols(left, op, right)


def conjunction(parts: Sequence[Predicate]) -> Predicate:
    """AND together a non-empty predicate list (single part passes through)."""
    if not parts:
        raise ExpressionError("conjunction of zero predicates")
    if len(parts) == 1:
        return parts[0]
    return And(tuple(parts))


def disjunction(parts: Sequence[Predicate]) -> Predicate:
    """OR together a non-empty predicate list (single part passes through)."""
    if not parts:
        raise ExpressionError("disjunction of zero predicates")
    if len(parts) == 1:
        return parts[0]
    return Or(tuple(parts))


def _column(columns: Dict[str, np.ndarray], name: str) -> np.ndarray:
    try:
        return columns[name]
    except KeyError:
        raise ExpressionError(
            f"predicate references missing column {name!r} "
            f"(have: {', '.join(columns)})"
        )


PredicateLike = Union[Predicate]
