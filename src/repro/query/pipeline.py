"""Explicit pipeline IR: plans decomposed into fusable segments.

Hyper-style pipeline decomposition (Neumann; Eiger and the tile-based
model of Shanbhag et al. carry it to GPUs): a query plan splits at its
*pipeline breakers* — operators that must see every input row before any
output row exists.  Between breakers, rows flow through a chain of
row-local operators (scan → filter → project → probe) that a compiling
engine can execute as **one fused kernel over tiles**, touching DRAM once
instead of once per operator.

Breakers here are the executor's materialisation points:

* **Join build** — the build side of a join materialises before the
  probe streams through it; the build side becomes its own pipeline
  ending in a :class:`BuildSink`.
* **GroupBy merge** — per-tile partial aggregates exist inside the
  pipeline, but merging them into final groups breaks it
  (:class:`GroupBySink`).  Downstream operators start a new pipeline fed
  by the merged groups.
* **Sort** — an :class:`OrderBy` consumes everything before emitting
  (:class:`SortSink`).

The lowering pass (:func:`lower_plan`) also prunes columns top-down: each
source and stage records the columns its consumers still need, so a scan
uploads only referenced columns and every stage drops the rest as early
as possible.  Every plan of every backend runs through this IR: the
runner (:class:`repro.query.runner.PipelineRunner`) interprets it and
runs every stage, eager or fused, and
the fusion-boundary cost model
(:func:`repro.query.optimizer.fusion_decision`) chooses per pipeline
whether fusing actually wins on a backend that can fuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import PlanError
from repro.query.plan import (
    Filter,
    GroupBy,
    Join,
    Limit,
    OrderBy,
    PlanNode,
    Project,
    Scan,
    SemiJoin,
    TopK,
)

# -- sources ------------------------------------------------------------------


@dataclass(frozen=True)
class TableSource:
    """Pipeline input: a base-table scan.

    ``columns`` is the pruned column list the scan uploads (None = all).
    """

    table: str
    columns: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class PipelineSource:
    """Pipeline input: the materialised output of an earlier pipeline."""

    pid: int


Source = Union[TableSource, PipelineSource]


# -- stages (row-local operators, fusable) ------------------------------------


@dataclass(frozen=True)
class FilterStage:
    """Predicate selection.  ``keep`` is the pruned column list the
    surviving rows carry forward (None = all)."""

    plan: Filter
    keep: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class ProjectStage:
    """Column projection / expression derivation."""

    plan: Project


@dataclass(frozen=True)
class ProbeStage:
    """Probe side of a join: stream rows against ``build_pid``'s
    materialised build relation.  ``keep`` prunes the joined output."""

    plan: Join
    build_pid: int
    keep: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class SemiProbeStage:
    """Probe side of a semi/anti join: stream rows against
    ``build_pid``'s materialised key set, keeping (semi) or dropping
    (anti) matching rows.  Only left columns survive; ``keep`` prunes
    them."""

    plan: SemiJoin
    build_pid: int
    keep: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class LimitStage:
    """Row-limit annotation, applied at materialisation (so a limit may
    only feed projections and other limits on its way to the result)."""

    plan: Limit


Stage = Union[FilterStage, ProjectStage, ProbeStage, SemiProbeStage, LimitStage]


# -- sinks (pipeline breakers / terminals) ------------------------------------


@dataclass(frozen=True)
class BuildSink:
    """Materialise this pipeline's output as a join build side."""

    plan: Union[Join, SemiJoin]


@dataclass(frozen=True)
class GroupBySink:
    """Merge per-tile aggregation partials into final groups."""

    plan: GroupBy


@dataclass(frozen=True)
class SortSink:
    """Full sort of the pipeline's output."""

    plan: OrderBy


@dataclass(frozen=True)
class TopKSink:
    """Sort the pipeline's output and keep the head ``n`` rows."""

    plan: TopK


@dataclass(frozen=True)
class ResultSink:
    """Terminal sink: the query result."""


Sink = Union[BuildSink, GroupBySink, SortSink, TopKSink, ResultSink]


# -- pipelines ----------------------------------------------------------------


@dataclass(frozen=True)
class Pipeline:
    """One unbroken segment: source → row-local stages → sink."""

    pid: int
    source: Source
    stages: Tuple[Stage, ...]
    sink: Sink

    @property
    def fusable(self) -> bool:
        """Whether this segment is a *candidate* for whole-pipeline
        fusion: it scans a base table and contains work a fused kernel
        could absorb (at least one row-local stage, or an aggregation
        sink).  Segments fed by earlier pipelines stay eager — their
        inputs are small materialised breaker outputs, where per-operator
        launches are already cheap.  Whether a candidate actually fuses
        is the cost model's call.
        """
        if not isinstance(self.source, TableSource):
            return False
        has_work = any(
            isinstance(s, (FilterStage, ProjectStage, ProbeStage,
                           SemiProbeStage))
            for s in self.stages
        )
        return has_work or isinstance(self.sink, GroupBySink)

    @property
    def operator_count(self) -> int:
        """Stages plus a non-result sink: the fused kernel's op count."""
        return len(self.stages) + (
            0 if isinstance(self.sink, ResultSink) else 1
        )


@dataclass(frozen=True)
class PipelineProgram:
    """All pipelines of one plan, in dependency order.

    Every :class:`PipelineSource`/``build_pid`` reference points at an
    earlier pipeline, so executing ``pipelines`` front to back satisfies
    all dependencies; ``result_pid`` names the terminal pipeline.
    """

    pipelines: Tuple[Pipeline, ...]
    result_pid: int

    def __post_init__(self) -> None:
        for pipeline in self.pipelines:
            if isinstance(pipeline.source, PipelineSource):
                if pipeline.source.pid >= pipeline.pid:
                    raise PlanError(
                        f"pipeline {pipeline.pid} reads from a later "
                        f"pipeline {pipeline.source.pid}"
                    )
            for stage in pipeline.stages:
                if isinstance(stage, (ProbeStage, SemiProbeStage)) and (
                    stage.build_pid >= pipeline.pid
                ):
                    raise PlanError(
                        f"pipeline {pipeline.pid} probes a later build "
                        f"pipeline {stage.build_pid}"
                    )

    def __len__(self) -> int:
        return len(self.pipelines)


# -- lowering -----------------------------------------------------------------


def _joined(left: List[str], right: List[str]) -> List[str]:
    """A join's output columns; the two sides must not share a name."""
    overlap = set(left) & set(right)
    if overlap:
        raise PlanError(
            f"join sides share column names {sorted(overlap)}; "
            "project/rename before joining"
        )
    return left + right


def output_columns(plan: PlanNode, catalog: Dict[str, object]) -> List[str]:
    """Column names ``plan``'s output relation carries, in order.

    ``catalog`` maps table names to objects with ``column_names`` (host
    tables).  Raises :class:`PlanError` for an unknown table or a join
    whose sides share a column name.
    """
    if isinstance(plan, Scan):
        try:
            table = catalog[plan.table]
        except KeyError:
            known = ", ".join(sorted(catalog))
            raise PlanError(
                f"unknown table {plan.table!r}; catalog has: {known}"
            )
        return list(table.column_names)  # type: ignore[attr-defined]
    if isinstance(plan, Project):
        return [name for name, _expr in plan.outputs]
    if isinstance(plan, GroupBy):
        return list(plan.keys) + [a.name for a in plan.aggregates]
    if isinstance(plan, Join):
        return _joined(
            output_columns(plan.left, catalog),
            output_columns(plan.right, catalog),
        )
    if isinstance(plan, SemiJoin):
        # Right columns never escape a semi/anti join.
        return output_columns(plan.left, catalog)
    children = plan.children()
    if len(children) == 1:
        return output_columns(children[0], catalog)
    raise PlanError(f"cannot derive output columns of {plan!r}")


def _check_limits(plan: PlanNode, on_result_path: bool = True) -> None:
    """Reject a :class:`Limit` that feeds anything but projections and
    limits on its way to the result.

    A limit is a row-count annotation applied at materialisation; every
    other operator (filters, joins on either side, aggregations, sorts)
    would see the unlimited rows and give a wrong answer.
    """
    if isinstance(plan, Limit) and not on_result_path:
        raise PlanError(
            f"limit {plan.n} feeds an operator other than a projection or "
            "a limit; only the plan's result may be limited"
        )
    passes = on_result_path and isinstance(plan, (Project, Limit))
    for child in plan.children():
        _check_limits(child, passes)


@dataclass
class _Lowering:
    """Mutable state threaded through one lowering pass."""

    catalog: Dict[str, object]
    pipelines: List[Pipeline] = field(default_factory=list)

    def close(self, source: Source, stages: List[Stage], sink: Sink) -> int:
        pid = len(self.pipelines)
        self.pipelines.append(Pipeline(pid, source, tuple(stages), sink))
        return pid


def _merge_needed(
    state: _Lowering,
    needed: Optional[Sequence[str]],
    extra: frozenset,
    child: PlanNode,
) -> Optional[List[str]]:
    """Columns to request from ``child``: ``needed`` plus ``extra``,
    restricted to what ``child`` produces (None = all)."""
    if needed is None:
        return None
    merged = set(needed) | set(extra)
    available = set(output_columns(child, state.catalog))
    return sorted(merged & available)


def _side_needed(
    needed: Optional[Sequence[str]], available: List[str], key: str
) -> Optional[List[str]]:
    """Columns to request from one side of a join: the needed ones it
    produces, plus its join key (None = all)."""
    if needed is None:
        return None
    side = [n for n in needed if n in available]
    if key not in side:
        side.append(key)
    return side


def _lower(
    state: _Lowering, node: PlanNode, needed: Optional[Sequence[str]]
) -> Tuple[Source, List[Stage]]:
    """Lower ``node`` into the currently-open pipeline.

    Returns the open pipeline's (source, stages); breakers close the open
    pipeline and start a fresh one fed by its output.  ``needed`` is the
    column list the node's consumer reads (None = all).
    """
    if isinstance(node, Scan):
        columns = tuple(needed) if needed is not None else None
        return TableSource(node.table, columns), []
    if isinstance(node, Filter):
        child_needed = _merge_needed(
            state, needed, node.predicate.columns(), node.child
        )
        source, stages = _lower(state, node.child, child_needed)
        keep = tuple(needed) if needed is not None else None
        stages.append(FilterStage(node, keep))
        return source, stages
    if isinstance(node, Project):
        child_needed = sorted(node.required_columns())
        source, stages = _lower(state, node.child, child_needed)
        stages.append(ProjectStage(node))
        return source, stages
    if isinstance(node, Limit):
        source, stages = _lower(state, node.child, needed)
        stages.append(LimitStage(node))
        return source, stages
    if isinstance(node, Join):
        left_available = output_columns(node.left, state.catalog)
        right_available = output_columns(node.right, state.catalog)
        _joined(left_available, right_available)
        left_needed = _side_needed(needed, left_available, node.left_on)
        right_needed = _side_needed(needed, right_available, node.right_on)
        # The build side gets the lower pid; the runner still scans the
        # probe side first (see PipelineRunner).
        build_source, build_stages = _lower(state, node.right, right_needed)
        build_pid = state.close(build_source, build_stages, BuildSink(node))
        source, stages = _lower(state, node.left, left_needed)
        keep = tuple(needed) if needed is not None else None
        stages.append(ProbeStage(node, build_pid, keep))
        return source, stages
    if isinstance(node, SemiJoin):
        left_needed = _side_needed(
            needed, output_columns(node.left, state.catalog), node.left_on
        )
        # Only the key column of the right side is ever consulted.
        build_source, build_stages = _lower(
            state, node.right, [node.right_on]
        )
        build_pid = state.close(build_source, build_stages, BuildSink(node))
        source, stages = _lower(state, node.left, left_needed)
        keep = tuple(needed) if needed is not None else None
        stages.append(SemiProbeStage(node, build_pid, keep))
        return source, stages
    if isinstance(node, TopK):
        child_needed = _merge_needed(
            state, needed, frozenset({node.key}), node.child
        )
        source, stages = _lower(state, node.child, child_needed)
        pid = state.close(source, stages, TopKSink(node))
        return PipelineSource(pid), []
    if isinstance(node, GroupBy):
        child_needed = sorted(node.required_columns())
        source, stages = _lower(state, node.child, child_needed)
        pid = state.close(source, stages, GroupBySink(node))
        return PipelineSource(pid), []
    if isinstance(node, OrderBy):
        child_needed = _merge_needed(
            state, needed, frozenset({node.key}), node.child
        )
        source, stages = _lower(state, node.child, child_needed)
        pid = state.close(source, stages, SortSink(node))
        return PipelineSource(pid), []
    raise PlanError(f"cannot lower plan node {type(node).__name__}")


def lower_plan(
    plan: PlanNode,
    catalog: Dict[str, object],
    needed: Optional[Sequence[str]] = None,
) -> PipelineProgram:
    """Decompose ``plan`` into its pipeline program.

    Column pruning needs plan output schemas, which come from
    ``catalog`` (table name → object with ``column_names``).  ``needed``
    seeds the top-level pruning (None = materialise everything).  Raises
    :class:`PlanError` for a :class:`Limit` below anything but a
    projection or another limit.
    """
    _check_limits(plan)
    state = _Lowering(catalog=catalog)
    source, stages = _lower(state, plan, needed)
    result_pid = state.close(source, stages, ResultSink())
    return PipelineProgram(tuple(state.pipelines), result_pid)


# -- rendering ----------------------------------------------------------------


def _describe_source(source: Source) -> str:
    if isinstance(source, TableSource):
        columns = (
            "*" if source.columns is None else ", ".join(source.columns)
        )
        return f"scan {source.table}[{columns}]"
    return f"pipeline #{source.pid}"


def _describe_stage(stage: Stage) -> str:
    if isinstance(stage, FilterStage):
        return f"filter {stage.plan.predicate!r}"
    if isinstance(stage, ProjectStage):
        outs = ", ".join(name for name, _ in stage.plan.outputs)
        return f"project [{outs}]"
    if isinstance(stage, ProbeStage):
        return (
            f"probe #{stage.build_pid} on "
            f"{stage.plan.left_on} = {stage.plan.right_on}"
        )
    if isinstance(stage, SemiProbeStage):
        kind = "anti-probe" if stage.plan.anti else "semi-probe"
        return (
            f"{kind} #{stage.build_pid} on "
            f"{stage.plan.left_on} = {stage.plan.right_on}"
        )
    return f"limit {stage.plan.n}"


def _describe_sink(sink: Sink) -> str:
    if isinstance(sink, BuildSink):
        return f"build[{sink.plan.right_on}]"
    if isinstance(sink, GroupBySink):
        keys = ", ".join(sink.plan.keys) if sink.plan.keys else "<global>"
        return f"group-merge[{keys}]"
    if isinstance(sink, SortSink):
        direction = "desc" if sink.plan.descending else "asc"
        return f"sort[{sink.plan.key} {direction}]"
    if isinstance(sink, TopKSink):
        direction = "desc" if sink.plan.descending else "asc"
        return f"top-k[{sink.plan.key} {direction}, n={sink.plan.n}]"
    return "result"


def explain_pipelines(program: PipelineProgram) -> str:
    """Indented textual rendering of a pipeline program."""
    lines = []
    for pipeline in program.pipelines:
        marker = "*" if pipeline.pid == program.result_pid else " "
        fusable = "fusable" if pipeline.fusable else "eager"
        lines.append(
            f"{marker}#{pipeline.pid} [{fusable}] "
            f"{_describe_source(pipeline.source)}"
        )
        for stage in pipeline.stages:
            lines.append(f"    -> {_describe_stage(stage)}")
        lines.append(f"    => {_describe_sink(pipeline.sink)}")
    return "\n".join(lines)
