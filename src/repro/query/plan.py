"""Logical query plans.

A plan is a tree of dataclass nodes over named base tables.  The executor
lowers it onto one :class:`~repro.core.backend.OperatorBackend`; the same
plan therefore runs on every library — the framework property the paper's
query benchmarks rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.core.expr import Expr
from repro.core.predicate import Predicate
from repro.errors import PlanError

#: Join algorithms a Join node may request.  "auto" picks the backend's
#: best supported algorithm (hash > merge > nested loops); "cost" defers
#: to the optimizer's cost model over the actual input cardinalities (see
#: :func:`repro.query.optimizer.choose_join_algorithm`).
JOIN_ALGORITHMS = ("auto", "nested_loop", "merge", "hash", "cost")


class PlanNode:
    """Base class of logical plan nodes."""

    def children(self) -> Tuple["PlanNode", ...]:
        """Child plans (empty for leaves)."""
        return ()

    def required_columns(self) -> FrozenSet[str]:
        """Columns this node itself reads (not including children)."""
        return frozenset()


@dataclass(frozen=True)
class Scan(PlanNode):
    """Leaf: read a named base table from the catalog."""

    table: str

    def __post_init__(self) -> None:
        if not self.table:
            raise PlanError("Scan needs a table name")


@dataclass(frozen=True)
class Filter(PlanNode):
    """Row selection by predicate."""

    child: PlanNode
    predicate: Predicate

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def required_columns(self) -> FrozenSet[str]:
        return self.predicate.columns()


@dataclass(frozen=True)
class Project(PlanNode):
    """Column projection / derivation: (output name, expression) pairs."""

    child: PlanNode
    outputs: Tuple[Tuple[str, Expr], ...]

    def __post_init__(self) -> None:
        if not self.outputs:
            raise PlanError("Project needs at least one output")
        names = [name for name, _expr in self.outputs]
        if len(set(names)) != len(names):
            raise PlanError(f"duplicate projection names in {names}")

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def required_columns(self) -> FrozenSet[str]:
        needed: FrozenSet[str] = frozenset()
        for _name, expr in self.outputs:
            needed |= expr.columns()
        return needed


@dataclass(frozen=True)
class Join(PlanNode):
    """Inner equi-join of two child plans."""

    left: PlanNode
    right: PlanNode
    left_on: str
    right_on: str
    algorithm: str = "auto"

    def __post_init__(self) -> None:
        if self.algorithm not in JOIN_ALGORITHMS:
            raise PlanError(
                f"unknown join algorithm {self.algorithm!r}; "
                f"known: {', '.join(JOIN_ALGORITHMS)}"
            )

    @property
    def join_strategy(self) -> str:
        """Alias for :attr:`algorithm` (the executor-facing name)."""
        return self.algorithm

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)

    def required_columns(self) -> FrozenSet[str]:
        return frozenset({self.left_on, self.right_on})


@dataclass(frozen=True)
class SemiJoin(PlanNode):
    """Semi (``anti=False``) or anti (``anti=True``) equi-join.

    Keeps left rows with at least one (semi) or no (anti) key match on
    the right; right columns never appear in the output — the relational
    shape of SQL ``IN``/``EXISTS`` (and ``NOT IN``/``NOT EXISTS``)
    against another table.
    """

    left: PlanNode
    right: PlanNode
    left_on: str
    right_on: str
    anti: bool = False
    algorithm: str = "auto"

    def __post_init__(self) -> None:
        if self.algorithm not in JOIN_ALGORITHMS:
            raise PlanError(
                f"unknown join algorithm {self.algorithm!r}; "
                f"known: {', '.join(JOIN_ALGORITHMS)}"
            )

    @property
    def join_strategy(self) -> str:
        """Alias for :attr:`algorithm` (the executor-facing name)."""
        return self.algorithm

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)

    def required_columns(self) -> FrozenSet[str]:
        return frozenset({self.left_on, self.right_on})


@dataclass(frozen=True)
class Aggregate(PlanNode):
    """One output aggregate: name, kind, and the value expression."""

    name: str
    kind: str  # sum | count | min | max | avg
    expr: Optional[Expr] = None  # None allowed for count(*)

    def __post_init__(self) -> None:
        if self.kind not in ("sum", "count", "min", "max", "avg"):
            raise PlanError(f"unknown aggregate kind {self.kind!r}")
        if self.expr is None and self.kind != "count":
            raise PlanError(f"aggregate {self.kind!r} needs an expression")


@dataclass(frozen=True)
class GroupBy(PlanNode):
    """Grouped aggregation over zero or more key columns.

    Zero keys = global aggregation (Q6); one or more keys = SQL GROUP BY
    (multi-key groups are combined into one composite device key).
    """

    child: PlanNode
    keys: Tuple[str, ...]
    aggregates: Tuple[Aggregate, ...]

    def __post_init__(self) -> None:
        if not self.aggregates:
            raise PlanError("GroupBy needs at least one aggregate")
        names = [a.name for a in self.aggregates] + list(self.keys)
        if len(set(names)) != len(names):
            raise PlanError(f"duplicate output names in group-by: {names}")

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def required_columns(self) -> FrozenSet[str]:
        needed = frozenset(self.keys)
        for aggregate in self.aggregates:
            if aggregate.expr is not None:
                needed |= aggregate.expr.columns()
        return needed


@dataclass(frozen=True)
class OrderBy(PlanNode):
    """Sort rows by one column."""

    child: PlanNode
    key: str
    descending: bool = False

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def required_columns(self) -> FrozenSet[str]:
        return frozenset({self.key})


@dataclass(frozen=True)
class Limit(PlanNode):
    """Keep the first ``n`` rows."""

    child: PlanNode
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise PlanError(f"Limit must be non-negative, got {self.n}")

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)


@dataclass(frozen=True)
class TopK(PlanNode):
    """ORDER BY + LIMIT fused: the ``n`` extreme rows by one key.

    Produced by :func:`repro.query.optimizer.push_down_top_k`; the
    executor still sorts on the device but gathers only the head ``n``
    row ids per payload column, so the result is bit-identical to the
    OrderBy→Limit pair it replaces while materialising far fewer rows.
    """

    child: PlanNode
    key: str
    n: int
    descending: bool = False

    def __post_init__(self) -> None:
        if self.n < 0:
            raise PlanError(f"TopK must keep a non-negative count, got {self.n}")

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def required_columns(self) -> FrozenSet[str]:
        return frozenset({self.key})


@dataclass(frozen=True)
class InSubquery(Predicate):
    """``column IN (subplan)`` — an uncorrelated IN subquery.

    Carries the inner plan; the executor resolves it to a literal
    :class:`~repro.core.predicate.InSet` before any backend sees the
    predicate, so ``evaluate`` is deliberately unreachable.
    """

    column: str
    subplan: PlanNode
    output: str
    negated: bool = False

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column})

    def evaluate(self, columns) -> "np.ndarray":  # noqa: F821 - doc type
        raise PlanError(
            f"unresolved IN subquery on {self.column!r}: subqueries must "
            "be resolved by the executor before evaluation"
        )

    def __repr__(self) -> str:
        # The subplan is part of the repr: plan fingerprints hash it.
        word = "NOT IN" if self.negated else "IN"
        subquery = f"<subquery:{self.output} {self.subplan!r}>"
        return f"({self.column} {word} {subquery})"


@dataclass(frozen=True)
class ScalarCompare(Predicate):
    """``column <op> (subplan)`` — an uncorrelated scalar subquery.

    The inner plan must yield exactly one row; the executor splices the
    scalar into a literal :class:`~repro.core.predicate.Compare`.
    """

    column: str
    op: str
    subplan: PlanNode
    output: str

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column})

    def evaluate(self, columns) -> "np.ndarray":  # noqa: F821 - doc type
        raise PlanError(
            f"unresolved scalar subquery on {self.column!r}: subqueries "
            "must be resolved by the executor before evaluation"
        )

    def __repr__(self) -> str:
        # The subplan is part of the repr: plan fingerprints hash it.
        subquery = f"<subquery:{self.output} {self.subplan!r}>"
        return f"({self.column} {self.op} {subquery})"


def walk(plan: PlanNode):
    """Pre-order traversal of a plan tree."""
    yield plan
    for child in plan.children():
        yield from walk(child)


def explain(plan: PlanNode, indent: int = 0) -> str:
    """Indented textual rendering of the plan tree."""
    pad = "  " * indent
    if isinstance(plan, Scan):
        line = f"{pad}Scan({plan.table})"
    elif isinstance(plan, Filter):
        line = f"{pad}Filter({plan.predicate!r})"
    elif isinstance(plan, Project):
        cols = ", ".join(f"{n}={e!r}" for n, e in plan.outputs)
        line = f"{pad}Project({cols})"
    elif isinstance(plan, Join):
        line = (
            f"{pad}Join({plan.left_on} = {plan.right_on}, "
            f"algorithm={plan.algorithm})"
        )
    elif isinstance(plan, SemiJoin):
        kind = "AntiJoin" if plan.anti else "SemiJoin"
        line = (
            f"{pad}{kind}({plan.left_on} = {plan.right_on}, "
            f"algorithm={plan.algorithm})"
        )
    elif isinstance(plan, GroupBy):
        aggs = ", ".join(
            f"{a.name}={a.kind}({a.expr!r})" for a in plan.aggregates
        )
        keys = ", ".join(plan.keys) if plan.keys else "<global>"
        line = f"{pad}GroupBy(keys=[{keys}], {aggs})"
    elif isinstance(plan, OrderBy):
        direction = "desc" if plan.descending else "asc"
        line = f"{pad}OrderBy({plan.key} {direction})"
    elif isinstance(plan, Limit):
        line = f"{pad}Limit({plan.n})"
    elif isinstance(plan, TopK):
        direction = "desc" if plan.descending else "asc"
        line = f"{pad}TopK({plan.key} {direction}, n={plan.n})"
    else:
        line = f"{pad}{type(plan).__name__}"
    lines = [line]
    for child in plan.children():
        lines.append(explain(child, indent + 1))
    return "\n".join(lines)
