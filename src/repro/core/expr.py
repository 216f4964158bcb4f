"""Scalar (per-row) arithmetic expressions for projections and aggregates.

TPC-H aggregates are built from column arithmetic —
``sum(l_extendedprice * (1 - l_discount))`` — so the executor needs
device-side expression evaluation.  How a backend evaluates an expression
tree is itself a library-differentiating behaviour: eager STL libraries
launch one ``transform`` per operator node (materialising every
intermediate), ArrayFire fuses the whole tree into one JIT kernel, and the
handwritten backend compiles one fused kernel by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple, Union

import numpy as np

from repro.errors import ExpressionError
from repro.core.predicate import Predicate

#: op -> (numpy ufunc, per-element flops)
ARITH_OPS = {
    "add": (np.add, 1.0),
    "sub": (np.subtract, 1.0),
    "mul": (np.multiply, 1.0),
    "div": (np.divide, 4.0),
}


class Expr:
    """Base class of scalar expressions."""

    def columns(self) -> FrozenSet[str]:
        """All column names the expression reads."""
        raise NotImplementedError

    def evaluate(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        """Reference (NumPy) evaluation."""
        raise NotImplementedError

    @property
    def node_count(self) -> int:
        """Number of operator nodes (for fused-kernel costing)."""
        return 0

    @property
    def flops(self) -> float:
        """Per-element arithmetic cost of the whole tree."""
        return 0.0

    # Operator sugar (Python precedence matches arithmetic precedence).
    def __add__(self, other: "ExprLike") -> "BinOp":
        return BinOp("add", self, as_expr(other))

    def __radd__(self, other: "ExprLike") -> "BinOp":
        return BinOp("add", as_expr(other), self)

    def __sub__(self, other: "ExprLike") -> "BinOp":
        return BinOp("sub", self, as_expr(other))

    def __rsub__(self, other: "ExprLike") -> "BinOp":
        return BinOp("sub", as_expr(other), self)

    def __mul__(self, other: "ExprLike") -> "BinOp":
        return BinOp("mul", self, as_expr(other))

    def __rmul__(self, other: "ExprLike") -> "BinOp":
        return BinOp("mul", as_expr(other), self)

    def __truediv__(self, other: "ExprLike") -> "BinOp":
        return BinOp("div", self, as_expr(other))

    def __rtruediv__(self, other: "ExprLike") -> "BinOp":
        return BinOp("div", as_expr(other), self)


@dataclass(frozen=True)
class ColRef(Expr):
    """A column reference."""

    name: str

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def evaluate(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        try:
            return columns[self.name]
        except KeyError:
            raise ExpressionError(
                f"expression references missing column {self.name!r}"
            )

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Lit(Expr):
    """A scalar literal."""

    value: float

    def columns(self) -> FrozenSet[str]:
        return frozenset()

    def evaluate(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        return np.asarray(self.value)

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary arithmetic node."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in ARITH_OPS:
            known = ", ".join(sorted(ARITH_OPS))
            raise ExpressionError(f"unknown arithmetic op {self.op!r}; known: {known}")

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def evaluate(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        ufunc, _flops = ARITH_OPS[self.op]
        return ufunc(self.left.evaluate(columns), self.right.evaluate(columns))

    @property
    def node_count(self) -> int:
        return 1 + self.left.node_count + self.right.node_count

    @property
    def flops(self) -> float:
        return ARITH_OPS[self.op][1] + self.left.flops + self.right.flops

    def __repr__(self) -> str:
        symbol = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[self.op]
        return f"({self.left!r} {symbol} {self.right!r})"


#: Civil-calendar anchor of the engine's day-number encoding.
EPOCH_YEAR = 1992

#: Days in the 4-year leap cycle starting at the epoch (1992 is a leap
#: year, so the cycle is 366+365+365+365).
_LEAP_CYCLE_DAYS = 1461


@dataclass(frozen=True)
class ExtractYear(Expr):
    """``EXTRACT(YEAR FROM column)`` over epoch-day date columns.

    Dates are stored as int32 days since 1992-01-01.  Because 1992 opens
    a 4-year leap cycle, ``year = 1992 + (4*days) // 1461`` is exact for
    every day in [1992-01-01, 2099-12-31] — a single multiply and an
    integer divide, which is also how a real kernel would price it.
    """

    child: Expr

    def columns(self) -> FrozenSet[str]:
        return self.child.columns()

    def evaluate(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        days = self.child.evaluate(columns)
        return EPOCH_YEAR + np.floor_divide(
            4 * days.astype(np.int64), _LEAP_CYCLE_DAYS
        ).astype(np.float64)

    @property
    def node_count(self) -> int:
        return 1 + self.child.node_count

    @property
    def flops(self) -> float:
        # one multiply + one integer divide (priced like div) + one add
        return 6.0 + self.child.flops

    def __repr__(self) -> str:
        return f"year({self.child!r})"


@dataclass(frozen=True)
class CaseWhen(Expr):
    """``CASE WHEN condition THEN then ELSE otherwise END``.

    The condition is a :class:`~repro.core.predicate.Predicate`; both
    branches are expressions.  Backends evaluate it as a predicated
    select (``np.where`` semantics): both arms are computed and blended
    by the mask, matching how a branch-free GPU kernel would run it.
    """

    condition: Predicate
    then: Expr
    otherwise: Expr

    def columns(self) -> FrozenSet[str]:
        return (
            self.condition.columns()
            | self.then.columns()
            | self.otherwise.columns()
        )

    def evaluate(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        mask = self.condition.evaluate(columns)
        return np.where(
            mask, self.then.evaluate(columns), self.otherwise.evaluate(columns)
        ).astype(np.float64)

    @property
    def node_count(self) -> int:
        # the select itself plus every arm node; the predicate's leaves
        # count as one node (backends evaluate it as one flag vector).
        return 2 + self.then.node_count + self.otherwise.node_count

    @property
    def flops(self) -> float:
        cond_flops = sum(
            getattr(leaf, "flops", 1.0) for leaf in _predicate_leaves(self.condition)
        )
        return 1.0 + cond_flops + self.then.flops + self.otherwise.flops

    def __repr__(self) -> str:
        return (
            f"case({self.condition!r} ? {self.then!r} : {self.otherwise!r})"
        )


def _predicate_leaves(predicate: Predicate) -> Tuple[Predicate, ...]:
    """Leaf comparisons of a predicate tree (for costing CASE conditions)."""
    parts = getattr(predicate, "parts", None)
    if parts is not None:
        out: Tuple[Predicate, ...] = ()
        for part in parts:
            out = out + _predicate_leaves(part)
        return out
    part = getattr(predicate, "part", None)
    if part is not None:
        return _predicate_leaves(part)
    return (predicate,)


ExprLike = Union[Expr, int, float, str]


def as_expr(value: ExprLike) -> Expr:
    """Coerce a column name, number, or Expr into an Expr."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, str):
        return ColRef(value)
    if isinstance(value, (int, float, np.integer, np.floating)):
        return Lit(float(value))
    raise ExpressionError(f"cannot treat {value!r} as a scalar expression")


def col(name: str) -> ColRef:
    """Shorthand column reference constructor."""
    return ColRef(name)


def lit(value: float) -> Lit:
    """Shorthand literal constructor."""
    return Lit(float(value))


def year_of(column: ExprLike) -> ExtractYear:
    """Shorthand ``EXTRACT(YEAR FROM column)`` constructor."""
    return ExtractYear(as_expr(column))


def flatten(expr: Expr) -> Tuple[Expr, ...]:
    """Post-order traversal of the tree's nodes (used by eager backends)."""
    if isinstance(expr, BinOp):
        return flatten(expr.left) + flatten(expr.right) + (expr,)
    if isinstance(expr, ExtractYear):
        return flatten(expr.child) + (expr,)
    if isinstance(expr, CaseWhen):
        return flatten(expr.then) + flatten(expr.otherwise) + (expr,)
    return (expr,)
