"""The pipeline-IR runner: how every backend executes a plan.

:class:`PipelineRunner` lowers a plan to the pipeline IR
(:mod:`repro.query.pipeline`) and runs its pipelines on one
:class:`~repro.core.backend.OperatorBackend`: it scans, runs every
operator and downloads the result.  Per pipeline it picks one of two
executions:

* **eager** — each operator maps onto the backend's operator set
  (Table II) through the relation transformations below, charging one
  backend kernel chain per operator, so a query costs exactly what its
  operator composition costs on the chosen library.  This is how the
  studied libraries and every non-fusing backend run, and how the
  compiled backend runs with fusion off.
* **fused** — on a backend that sets ``supports_fused_pipelines`` (the
  compiled backend), the whole segment (scan → filters → projects →
  probes → partial aggregation) becomes ONE simulated kernel priced as a
  single DRAM pass
  (:meth:`~repro.core.compiled_backend.CompiledBackend.launch_fused`, a
  ``FUSED[...]`` event), after a JIT-codegen charge on the first use of
  the segment's signature (cached thereafter).  The backend's ``fusion``
  mode picks: ``"on"``/``"off"`` force it, ``"auto"`` asks the
  optimizer's fusion-boundary cost model
  (:func:`~repro.query.optimizer.fusion_decision`) per segment.

**Scans.**  Columns are uploaded once per scan (only those the plan
references — column-store style) and every intermediate is a device
handle; the only downloads are scalar counts, the group-key round trip
and the final result.  :meth:`PipelineRunner.upload_scan_columns` is the
one place a scan chooses between a raw upload and a tiered store's
compressed fetch; a resident-column session
(:class:`~repro.query.session.GpuSession`) puts its cache in front of it.

**Order.**  A pipeline's output is computed when its one consumer needs
it and dropped after that use.  An eager pipeline scans and filters its
probe side first and runs a build pipeline at the probe stage that reads
it; a fused pipeline is one kernel, so it gets all its build inputs
first, in ascending pid order, and then scans.  Pooled allocators and
tiered stores make simulated time depend on this order and on how long
intermediates stay alive, so it is part of the cost model.

**Bit-identity.**  The fused path computes result values host-side with
the same NumPy semantics the eager operators use — ``predicate.evaluate``
+ ``flatnonzero`` for filters, ``expr.evaluate`` for projections,
:func:`~repro.core.backend.join_reference` for probes, the shared
:func:`~repro.core.handwritten_backend.grouped_aggregate_host` /
:func:`~repro.core.handwritten_backend.reduction_host` helpers for
aggregation — and the same group-key encoding, so every mode produces
byte-identical tables; only the cost events differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.core.backend import (
    Handle,
    Operator,
    OperatorBackend,
    SupportLevel,
    join_reference,
)
from repro.core.expr import ColRef, Expr, Lit
from repro.core.handwritten_backend import (
    grouped_aggregate_host,
    predicate_cost,
    reduction_host,
)
from repro.errors import PlanError, UnsupportedOperatorError
from repro.query.optimizer import (
    FusionDecision,
    choose_join_algorithm,
    fusion_decision,
)
from repro.query.pipeline import (
    FilterStage,
    GroupBySink,
    Pipeline,
    PipelineProgram,
    ProbeStage,
    ProjectStage,
    SemiProbeStage,
    Sink,
    SortSink,
    TableSource,
    TopKSink,
    lower_plan,
)
from repro.query.plan import (
    Aggregate,
    Filter,
    GroupBy,
    Join,
    OrderBy,
    PlanNode,
    Project,
    SemiJoin,
    TopK,
)
from repro.relational.column import Column
from repro.relational.table import Table
from repro.relational.types import ColumnType

_T = TypeVar("_T")


def _column(columns: Mapping[str, _T], name: str) -> _T:
    """``columns[name]``, or the PlanError for a column the plan lacks."""
    try:
        return columns[name]
    except KeyError:
        raise PlanError(
            f"column {name!r} not available (have: {', '.join(columns)})"
        )


@dataclass
class ColumnMeta:
    """Host-side metadata carried alongside a device column handle."""

    ctype: ColumnType
    dictionary: Optional[List[str]] = None
    #: The scanned table column's values; None for derived columns.
    values: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )

    @property
    def max_value(self) -> int:
        """Upper bound for composite-key strides: the largest value of the
        whole scanned table column, filters notwithstanding (0 when it is
        empty); -1 = unknown (derived columns), which blocks use as a
        non-first group-by key.  Only composite group keys read it, so it
        is computed here, not at every scan."""
        if self.values is None:
            return -1
        return int(self.values.max()) if len(self.values) else 0


@dataclass
class Relation:
    """Intermediate execution state: named device handles + metadata."""

    columns: Dict[str, Handle]
    meta: Dict[str, ColumnMeta]
    num_rows: int
    row_limit: Optional[int] = None

    def handle(self, name: str) -> Handle:
        """The named column's handle (PlanError when it is missing)."""
        return _column(self.columns, name)


class HostColumn:
    """A small host-resident result column (group keys, scalars)."""

    def __init__(self, data: np.ndarray) -> None:
        self.data = np.asarray(data)

    def __len__(self) -> int:
        return len(self.data)


def _aggregate_meta(kind: str) -> ColumnMeta:
    """An aggregate output's metadata: counts are int64, the rest float64."""
    return ColumnMeta(
        ctype=ColumnType.INT64 if kind == "count" else ColumnType.FLOAT64
    )


def _scalar_column(kind: str, scalar: float) -> HostColumn:
    """A global aggregate's one-row, host-resident result."""
    if kind == "count":
        return HostColumn(np.asarray([int(scalar)], dtype=np.int64))
    return HostColumn(np.asarray([scalar], dtype=np.float64))


def composite_key_expr(
    keys: Tuple[str, ...], meta: Dict[str, ColumnMeta]
) -> Tuple[Expr, List[int]]:
    """The expression combining group-by key columns into one integer
    key, plus the strides :func:`decompose_keys` splits it back with.

    Strides come from each column's value bound (host metadata), so
    ``(k0 * s1 + k1) * s2 + k2 ...`` is collision-free.  A single key
    is its own column.
    """
    if len(keys) == 1:
        return ColRef(keys[0]), [1]
    bounds = [meta[k].max_value for k in keys]
    for key, bound in zip(keys[1:], bounds[1:]):
        if bound < 0:
            raise PlanError(
                f"group-by key {key!r} has no known value bound (it is "
                "a derived column); place it first in the key list or "
                "group by the base columns it derives from"
            )
    strides = [bound + 1 for bound in bounds]
    expr: Expr = ColRef(keys[0])
    for key, stride in zip(keys[1:], strides[1:]):
        expr = expr * Lit(stride) + ColRef(key)
    return expr, strides


def decompose_keys(
    keys: Tuple[str, ...],
    composite: np.ndarray,
    strides: List[int],
    meta: Dict[str, ColumnMeta],
) -> Dict[str, Tuple[np.ndarray, ColumnMeta]]:
    """Split composite group keys back into per-column (data, meta)."""
    result: Dict[str, Tuple[np.ndarray, ColumnMeta]] = {}
    if len(keys) == 1:
        name = keys[0]
        key_meta = meta[name]
        result[name] = (
            composite.astype(key_meta.ctype.numpy_dtype), key_meta
        )
        return result
    remaining = composite.astype(np.int64)
    # Peel from the last key to the first: values were accumulated as
    # (((k0 * s1) + k1) * s2 + k2) ...
    parts: List[np.ndarray] = []
    for stride in reversed(strides[1:]):
        parts.append(remaining % stride)
        remaining = remaining // stride
    parts.append(remaining)
    parts.reverse()
    for name, data in zip(keys, parts):
        key_meta = meta[name]
        result[name] = (data.astype(key_meta.ctype.numpy_dtype), key_meta)
    return result


class _OnDemand:
    """A program's pipeline outputs as a ``pid -> relation`` mapping that
    runs each pipeline when its output is read and keeps nothing: in a
    plan tree every output has exactly one consumer."""

    def __init__(self, runner: "PipelineRunner", program: PipelineProgram) -> None:
        self.runner = runner
        self.program = program

    def __getitem__(self, pid: int) -> Relation:
        return self.runner.run_pipeline(self.program.pipelines[pid], self)


class PipelineRunner:
    """Runs plans through the pipeline IR on one backend.

    ``catalog`` maps table names to host tables.  ``join_strategy``
    overrides the algorithm of every join the plan left undecided
    (``auto``/``cost``); ``store`` is an optional tiered column store
    whose managed columns scans fetch instead of uploading (see
    :class:`~repro.query.executor.QueryExecutor` for both).
    """

    def __init__(
        self,
        backend: OperatorBackend,
        catalog: Dict[str, Table],
        join_strategy: Optional[str] = None,
        store=None,
    ) -> None:
        self.backend = backend
        self.catalog = catalog
        self.join_strategy = join_strategy
        self.store = store

    # -- driver -------------------------------------------------------------------

    def run(
        self, plan: PlanNode, needed: Optional[Sequence[str]] = None
    ) -> Relation:
        """Run ``plan`` and return its result relation.

        ``needed`` prunes the result to those columns (None = all).
        """
        program = lower_plan(plan, catalog=self.catalog, needed=needed)
        return _OnDemand(self, program)[program.result_pid]

    def run_pipeline(
        self, pipeline: Pipeline, inputs: Mapping[int, Relation]
    ) -> Relation:
        """Run one pipeline, fused or eager, and return its output.

        ``inputs`` maps the pid of every pipeline this one consumes (its
        source and the builds it probes) to that pipeline's output.
        """
        if self._should_fuse(pipeline):
            return self._run_fused(pipeline, inputs)
        return self._run_eager(pipeline, inputs)

    def materialise(self, relation: Relation, name: str) -> Table:
        """Download ``relation`` into a host table named ``name``,
        applying its row limit and decoding dictionary columns."""
        columns: List[Column] = []
        limit = relation.row_limit
        for column_name, handle in relation.columns.items():
            if isinstance(handle, HostColumn):
                data = handle.data
            else:
                data = self.backend.download(handle)
            if limit is not None:
                data = data[:limit]
            column_meta = relation.meta[column_name]
            columns.append(
                _decode_column(column_name, data, column_meta)
            )
        if not columns:
            raise PlanError("query produced no columns")
        return Table(name, columns)

    # -- fusion decision ----------------------------------------------------------

    def _should_fuse(self, pipeline: Pipeline) -> bool:
        if not (
            pipeline.fusable
            and getattr(self.backend, "supports_fused_pipelines", False)
        ):
            return False
        mode = getattr(self.backend, "fusion", "auto")
        if mode == "off":
            return False
        if mode == "on":
            return True
        return self.decide(pipeline).fuse

    def _signature(self, pipeline: Pipeline) -> str:
        """Program-cache key: the segment's full structure (operators,
        predicates, expressions, pruned column lists)."""
        return repr((pipeline.source, pipeline.stages, pipeline.sink))

    def decide(self, pipeline: Pipeline) -> FusionDecision:
        """The "auto"-mode call into the optimizer's fusion cost model."""
        assert isinstance(pipeline.source, TableSource)
        table = self.catalog.get(pipeline.source.table)
        if table is None:
            # Unknown table: stay eager so the scan raises its usual
            # PlanError.
            return FusionDecision(fuse=False, fused_seconds=0.0, eager_seconds=0.0)
        names = (
            list(pipeline.source.columns)
            if pipeline.source.columns is not None
            else list(table.column_names)
        )

        def width(columns) -> float:
            total = 0.0
            for name in columns:
                try:
                    total += table.column(name).data.dtype.itemsize
                except Exception:
                    total += 8.0  # derived / unknown: assume float64
            return total

        fused_read = width(names)
        stages = pipeline.stages
        if stages and isinstance(stages[0], FilterStage):
            eager_first = width(sorted(stages[0].plan.predicate.columns()))
        else:
            eager_first = fused_read
        num_filters = sum(isinstance(s, FilterStage) for s in stages)
        launches = 0
        for stage in stages:
            if isinstance(stage, FilterStage):
                kept = len(stage.keep) if stage.keep is not None else len(names)
                launches += 1 + kept  # selection + one gather per column
            elif isinstance(stage, ProjectStage):
                launches += sum(
                    0 if isinstance(expr, ColRef) else 1
                    for _name, expr in stage.plan.outputs
                )
            elif isinstance(stage, ProbeStage):
                kept = (
                    len(stage.keep) if stage.keep is not None else len(names) + 1
                )
                launches += 2 + kept  # build + probe + output gathers
            elif isinstance(stage, SemiProbeStage):
                kept = len(stage.keep) if stage.keep is not None else len(names)
                launches += 2 + kept  # build + membership + left gathers
        if isinstance(pipeline.sink, GroupBySink):
            aggregates = len(pipeline.sink.plan.aggregates)
            if pipeline.sink.plan.keys:
                launches += 2 * aggregates + 1  # per-agg hash pass + key math
            else:
                launches += aggregates  # one reduction each
        compile_share = 0.0
        if hasattr(self.backend, "amortized_compile_seconds"):
            compile_share = self.backend.amortized_compile_seconds(
                self._signature(pipeline), pipeline.operator_count
            )
        return fusion_decision(
            table.num_rows,
            fused_read,
            eager_first,
            fused_read,
            num_filters,
            max(launches, 1),
            compile_share,
        )

    # -- scan ---------------------------------------------------------------------

    def _scan(
        self, table_name: str, needed: Optional[Sequence[str]]
    ) -> Relation:
        try:
            table = self.catalog[table_name]
        except KeyError:
            known = ", ".join(sorted(self.catalog))
            raise PlanError(f"unknown table {table_name!r}; catalog has: {known}")
        names = list(needed) if needed is not None else table.column_names
        # A loop, not dict(...): when an upload fails, the handles so far
        # stay in this frame and are freed with the failed attempt's other
        # intermediates, in the same order.
        columns: Dict[str, Handle] = {}
        for name, handle in self.upload_scan_columns(table_name, names, table):
            columns[name] = handle
        meta: Dict[str, ColumnMeta] = {}
        for name in names:
            column = table.column(name)
            meta[name] = ColumnMeta(
                ctype=column.ctype,
                dictionary=column.dictionary,
                values=column.data,
            )
        return Relation(columns=columns, meta=meta, num_rows=table.num_rows)

    def upload_scan_columns(
        self, table_name: str, names: Sequence[str], table: Table
    ) -> Iterator[Tuple[str, Handle]]:
        """``(name, handle)`` for each of a scan's columns, as it arrives.

        Store-managed columns take the compressed tier path — promote
        compressed chunks, decompress on device — instead of a raw host
        upload.  Several of them are fetched through one batched store
        call, so the covering chunks promote in a single transfer and
        decode in a single launch: a multi-column scan pays the link
        latency and launch overhead once, not per column.
        """
        store = self.store
        batch: Dict[str, Handle] = {}
        if store is not None:
            managed = [n for n in names if store.manages(table_name, n)]
            if len(managed) > 1:
                batch = store.fetch_many(table_name, managed, self.backend)
                yield from batch.items()
        for name in names:
            if name in batch:
                continue
            if store is not None and store.manages(table_name, name):
                yield name, store.fetch(table_name, name, self.backend)
            else:
                yield name, self.backend.upload(
                    table.column(name).data, label=f"{table_name}.{name}"
                )

    # -- eager segment ------------------------------------------------------------

    def _run_eager(
        self, pipeline: Pipeline, inputs: Mapping[int, Relation]
    ) -> Relation:
        source = pipeline.source
        if isinstance(source, TableSource):
            relation = self._scan(source.table, source.columns)
        else:
            relation = inputs[source.pid]
        for stage in pipeline.stages:
            if isinstance(stage, FilterStage):
                relation = self._apply_filter(relation, stage.plan, stage.keep)
            elif isinstance(stage, ProjectStage):
                relation = self._apply_project(relation, stage.plan)
            elif isinstance(stage, ProbeStage):
                relation = self._apply_join(
                    relation, inputs[stage.build_pid], stage.plan, stage.keep
                )
            elif isinstance(stage, SemiProbeStage):
                relation = self._apply_semi_join(
                    relation, inputs[stage.build_pid], stage.plan, stage.keep
                )
            else:  # LimitStage
                n = stage.plan.n
                limit = relation.row_limit
                relation.row_limit = n if limit is None else min(n, limit)
        return self._apply_sink(relation, pipeline.sink)

    def _apply_sink(self, relation: Relation, sink: Sink) -> Relation:
        if isinstance(sink, GroupBySink):
            return self._apply_group_by(relation, sink.plan)
        if isinstance(sink, SortSink):
            return self._apply_order_by(relation, sink.plan)
        if isinstance(sink, TopKSink):
            return self._apply_top_k(relation, sink.plan)
        return relation  # Build/Result sinks: already materialised

    def _apply_filter(
        self,
        relation: Relation,
        plan: Filter,
        needed: Optional[Sequence[str]],
    ) -> Relation:
        predicate_columns = {
            name: relation.handle(name) for name in plan.predicate.columns()
        }
        ids = self.backend.selection(predicate_columns, plan.predicate)
        selected = len(ids)
        keep = list(needed) if needed is not None else list(relation.columns)
        new_columns = {
            name: self.backend.gather(relation.handle(name), ids)
            for name in keep
        }
        return Relation(
            columns=new_columns,
            meta={name: relation.meta[name] for name in keep},
            num_rows=selected,
            row_limit=relation.row_limit,
        )

    def _apply_project(self, relation: Relation, plan: Project) -> Relation:
        columns: Dict[str, Handle] = {}
        meta: Dict[str, ColumnMeta] = {}
        for name, expr in plan.outputs:
            if isinstance(expr, ColRef):
                columns[name] = relation.handle(expr.name)
                meta[name] = relation.meta[expr.name]
            elif any(
                isinstance(relation.columns[ref], HostColumn)
                for ref in expr.columns()
            ):
                # Aggregate outputs (e.g. global SUMs feeding a ratio
                # projection) are host-resident; evaluate on the host.
                host = {
                    ref: relation.columns[ref].data
                    if isinstance(relation.columns[ref], HostColumn)
                    else self.backend.download(relation.columns[ref])
                    for ref in expr.columns()
                }
                columns[name] = HostColumn(
                    np.asarray(expr.evaluate(host), dtype=np.float64)
                )
                meta[name] = ColumnMeta(ctype=ColumnType.FLOAT64)
            else:
                columns[name] = self.backend.compute(relation.columns, expr)
                meta[name] = ColumnMeta(ctype=ColumnType.FLOAT64)
        return Relation(
            columns=columns,
            meta=meta,
            num_rows=relation.num_rows,
            row_limit=relation.row_limit,
        )

    def _apply_join(
        self,
        left: Relation,
        right: Relation,
        plan: Join,
        needed: Optional[Sequence[str]],
    ) -> Relation:
        left_ids, right_ids = self._run_join(
            plan.algorithm,
            left.handle(plan.left_on),
            right.handle(plan.right_on),
        )
        matches = len(left_ids)
        columns: Dict[str, Handle] = {}
        meta: Dict[str, ColumnMeta] = {}
        for name, handle in left.columns.items():
            if needed is not None and name not in needed:
                continue
            columns[name] = self.backend.gather(handle, left_ids)
            meta[name] = left.meta[name]
        for name, handle in right.columns.items():
            if needed is not None and name not in needed:
                continue
            columns[name] = self.backend.gather(handle, right_ids)
            meta[name] = right.meta[name]
        return Relation(columns=columns, meta=meta, num_rows=matches)

    def _apply_semi_join(
        self,
        left: Relation,
        right: Relation,
        plan: SemiJoin,
        needed: Optional[Sequence[str]],
    ) -> Relation:
        """Join for the match ids, then keep (semi) or drop (anti) the
        matched left rows.

        The surviving-row-id set is deduplicated on the host (ascending
        row ids — the same order a flag-vector filter would produce) and
        re-uploaded, mirroring the group-by key round-trip: the studied
        libraries ship no distinct-by-key primitive either.
        """
        left_ids, _right_ids = self._run_join(
            plan.algorithm,
            left.handle(plan.left_on),
            right.handle(plan.right_on),
        )
        matched = np.unique(
            self.backend.download(left_ids).astype(np.int64)
        )
        if plan.anti:
            keep_ids = np.setdiff1d(
                np.arange(left.num_rows, dtype=np.int64), matched,
                assume_unique=True,
            )
        else:
            keep_ids = matched
        ids = self.backend.upload(keep_ids, label="semijoin.keep_ids")
        keep = [
            name for name in left.columns
            if needed is None or name in needed
        ]
        columns = {
            name: self.backend.gather(left.handle(name), ids)
            for name in keep
        }
        return Relation(
            columns=columns,
            meta={name: left.meta[name] for name in keep},
            num_rows=len(keep_ids),
        )

    def _run_join(
        self, algorithm: str, left_keys: Handle, right_keys: Handle
    ) -> Tuple[Handle, Handle]:
        if algorithm in ("auto", "cost") and self.join_strategy is not None:
            algorithm = self.join_strategy
        if algorithm == "cost":
            algorithm = choose_join_algorithm(
                len(left_keys),
                len(right_keys),
                supported=self._supported_join_algorithms(),
            )
        if algorithm == "nested_loop":
            return self.backend.nested_loop_join(left_keys, right_keys)
        if algorithm == "merge":
            return self.backend.merge_join(left_keys, right_keys)
        if algorithm == "hash":
            return self.backend.hash_join(left_keys, right_keys)
        # auto: best supported algorithm first, nested loops as last resort
        # (the only join every studied library can express).
        for runner in (self.backend.hash_join, self.backend.merge_join):
            try:
                return runner(left_keys, right_keys)
            except UnsupportedOperatorError:
                continue
        return self.backend.nested_loop_join(left_keys, right_keys)

    def _supported_join_algorithms(self) -> Tuple[str, ...]:
        """Join algorithms the backend's Table II column offers."""
        support = self.backend.support()
        levels = {
            "hash": support.get(Operator.HASH_JOIN),
            "merge": support.get(Operator.MERGE_JOIN),
            "nested_loop": support.get(Operator.NESTED_LOOP_JOIN),
        }
        return tuple(
            name
            for name, cell in levels.items()
            if cell is not None and cell.level is not SupportLevel.NONE
        )

    def _apply_group_by(self, relation: Relation, plan: GroupBy) -> Relation:
        if not plan.keys:
            return self._global_aggregation(plan, relation)
        key_expr, strides = composite_key_expr(plan.keys, relation.meta)
        key_handle = self._expr_handle(key_expr, relation)
        columns: Dict[str, Handle] = {}
        meta: Dict[str, ColumnMeta] = {}
        out_keys: Optional[Handle] = None
        for aggregate in plan.aggregates:
            values = self._aggregate_values(aggregate, relation, key_handle)
            group_keys, group_values = self.backend.grouped_aggregation(
                key_handle, values, aggregate.kind
            )
            if out_keys is None:
                out_keys = group_keys
            columns[aggregate.name] = group_values
            meta[aggregate.name] = _aggregate_meta(aggregate.kind)
        assert out_keys is not None
        group_count = len(out_keys)
        ordered, ordered_meta = self._group_key_columns(
            plan, out_keys, strides, relation.meta
        )
        ordered.update(columns)
        ordered_meta.update(meta)
        return Relation(
            columns=ordered, meta=ordered_meta, num_rows=group_count
        )

    def _group_key_columns(
        self,
        plan: GroupBy,
        out_keys: Handle,
        strides: List[int],
        meta: Dict[str, ColumnMeta],
    ) -> Tuple[Dict[str, Handle], Dict[str, ColumnMeta]]:
        """Decompose the composite group keys on the host (group outputs
        are small), then re-upload the per-column keys so downstream
        operators (joins, sorts) keep working on device handles."""
        composite = self.backend.download(out_keys).astype(np.int64)
        key_columns = decompose_keys(plan.keys, composite, strides, meta)
        columns: Dict[str, Handle] = {}
        key_meta: Dict[str, ColumnMeta] = {}
        for name, (data, column_meta) in key_columns.items():
            columns[name] = self.backend.upload(data, label=f"groupkey.{name}")
            key_meta[name] = column_meta
        return columns, key_meta

    def _global_aggregation(
        self, plan: GroupBy, relation: Relation
    ) -> Relation:
        columns: Dict[str, Handle] = {}
        meta: Dict[str, ColumnMeta] = {}
        for aggregate in plan.aggregates:
            if aggregate.kind == "count" and aggregate.expr is None:
                scalar = float(relation.num_rows)
            else:
                assert aggregate.expr is not None
                values = self._expr_handle(aggregate.expr, relation)
                scalar = self.backend.reduction(values, aggregate.kind)
            columns[aggregate.name] = _scalar_column(aggregate.kind, scalar)
            meta[aggregate.name] = _aggregate_meta(aggregate.kind)
        return Relation(columns=columns, meta=meta, num_rows=1)

    def _aggregate_values(
        self, aggregate: Aggregate, relation: Relation, key_handle: Handle
    ) -> Handle:
        if aggregate.kind == "count" and aggregate.expr is None:
            # Backends ignore values for counts; reuse the key handle.
            return key_handle
        assert aggregate.expr is not None
        return self._expr_handle(aggregate.expr, relation)

    def _expr_handle(self, expr: Expr, relation: Relation) -> Handle:
        if isinstance(expr, ColRef):
            return relation.handle(expr.name)
        return self.backend.compute(relation.columns, expr)

    def _apply_order_by(self, relation: Relation, plan: OrderBy) -> Relation:
        key_handle = relation.handle(plan.key)
        if isinstance(key_handle, HostColumn):
            # Group-by outputs are host-resident; sort them on the host.
            order = np.argsort(key_handle.data, kind="stable")
            if plan.descending:
                order = order[::-1]
            columns = {
                name: _reorder_host(handle, order, self.backend)
                for name, handle in relation.columns.items()
            }
            return Relation(
                columns=columns,
                meta=relation.meta,
                num_rows=relation.num_rows,
                row_limit=relation.row_limit,
            )
        rowids = self.backend.iota(relation.num_rows)
        _sorted_keys, sorted_ids = self.backend.sort_by_key(
            key_handle, rowids, descending=plan.descending
        )
        columns = {
            name: self.backend.gather(handle, sorted_ids)
            if not isinstance(handle, HostColumn)
            else HostColumn(
                handle.data[self.backend.download(sorted_ids).astype(np.int64)]
            )
            for name, handle in relation.columns.items()
        }
        return Relation(
            columns=columns,
            meta=relation.meta,
            num_rows=relation.num_rows,
            row_limit=relation.row_limit,
        )

    def _apply_top_k(self, relation: Relation, plan: TopK) -> Relation:
        """Full device sort, but only the head ``n`` row ids are gathered
        per payload column — bit-identical to OrderBy→Limit (same
        backend sort produces the same id order) with k-row gathers and
        a k-row download instead of full-width materialisation."""
        k = min(plan.n, relation.num_rows)
        key_handle = relation.handle(plan.key)
        if isinstance(key_handle, HostColumn):
            order = np.argsort(key_handle.data, kind="stable")
            if plan.descending:
                order = order[::-1]
            order = order[:k]
            columns = {
                name: _reorder_host(handle, order, self.backend)
                for name, handle in relation.columns.items()
            }
            return Relation(
                columns=columns, meta=relation.meta, num_rows=k
            )
        rowids = self.backend.iota(relation.num_rows)
        _sorted_keys, sorted_ids = self.backend.sort_by_key(
            key_handle, rowids, descending=plan.descending
        )
        head_ids = self.backend.gather(sorted_ids, self.backend.iota(k))
        columns = {
            name: self.backend.gather(handle, head_ids)
            if not isinstance(handle, HostColumn)
            else HostColumn(
                handle.data[self.backend.download(head_ids).astype(np.int64)]
            )
            for name, handle in relation.columns.items()
        }
        return Relation(columns=columns, meta=relation.meta, num_rows=k)

    # -- fused segment ------------------------------------------------------------

    def _run_fused(
        self, pipeline: Pipeline, inputs: Mapping[int, Relation]
    ) -> Relation:
        backend = self.backend
        assert isinstance(pipeline.source, TableSource)
        # One kernel: every build it probes must exist before it starts.
        builds = {
            pid: inputs[pid]
            for pid in sorted(
                stage.build_pid
                for stage in pipeline.stages
                if isinstance(stage, (ProbeStage, SemiProbeStage))
            )
        }
        scan = self._scan(pipeline.source.table, pipeline.source.columns)
        backend.ensure_program(
            self._signature(pipeline), pipeline.operator_count
        )

        host: Dict[str, np.ndarray] = {
            name: handle.peek() for name, handle in scan.columns.items()
        }
        meta: Dict[str, ColumnMeta] = dict(scan.meta)
        num_rows = scan.num_rows
        row_limit: Optional[int] = None
        n_input = scan.num_rows
        read_per_row = float(
            sum(handle.itemsize for handle in scan.columns.values())
        )
        flops = 0.0
        fixed_flops = 0.0
        fixed_bytes = 0.0
        ops: List[str] = [f"scan {pipeline.source.table}"]

        for stage in pipeline.stages:
            if isinstance(stage, FilterStage):
                predicate = stage.plan.predicate
                mask = predicate.evaluate(
                    {name: host[name] for name in predicate.columns()}
                )
                ids = np.flatnonzero(mask).astype(np.int64)
                keep = (
                    list(stage.keep) if stage.keep is not None else list(host)
                )
                host = {name: host[name][ids] for name in keep}
                meta = {name: meta[name] for name in keep}
                num_rows = len(ids)
                predicate_flops, _cols = predicate_cost(predicate)
                flops += predicate_flops + 1.0
                ops.append("filter")
            elif isinstance(stage, ProjectStage):
                new_host: Dict[str, np.ndarray] = {}
                new_meta: Dict[str, ColumnMeta] = {}
                for name, expr in stage.plan.outputs:
                    if isinstance(expr, ColRef):
                        new_host[name] = _column(host, expr.name)
                        new_meta[name] = meta[expr.name]
                    else:
                        new_host[name] = np.asarray(expr.evaluate(host))
                        new_meta[name] = ColumnMeta(ctype=ColumnType.FLOAT64)
                        flops += expr.flops
                host, meta = new_host, new_meta
                ops.append("project")
            elif isinstance(stage, ProbeStage):
                plan = stage.plan
                build = builds[stage.build_pid]
                left_ids, right_ids = join_reference(
                    host[plan.left_on], build.handle(plan.right_on).peek()
                )
                needed = stage.keep
                new_host, new_meta = {}, {}
                for name in host:
                    if needed is not None and name not in needed:
                        continue
                    new_host[name] = host[name][left_ids]
                    new_meta[name] = meta[name]
                for name, handle in build.columns.items():
                    if needed is not None and name not in needed:
                        continue
                    new_host[name] = handle.peek()[right_ids]
                    new_meta[name] = build.meta[name]
                host, meta = new_host, new_meta
                num_rows = len(left_ids)
                flops += 6.0  # hash + probe chain per streamed row
                build_flops, build_bytes = self._build_charge(build)
                fixed_flops += build_flops
                fixed_bytes += build_bytes
                ops.append(f"probe[{plan.left_on}={plan.right_on}]")
            elif isinstance(stage, SemiProbeStage):
                plan = stage.plan
                build = builds[stage.build_pid]
                key_handle = build.handle(plan.right_on)
                build_keys = (
                    key_handle.data
                    if isinstance(key_handle, HostColumn)
                    else key_handle.peek()
                )
                mask = np.isin(host[plan.left_on], build_keys)
                if plan.anti:
                    mask = ~mask
                # Ascending row ids: the same order the eager path's
                # unique/setdiff1d over matched ids produces.
                ids = np.flatnonzero(mask).astype(np.int64)
                needed = stage.keep
                new_host, new_meta = {}, {}
                for name in host:
                    if needed is not None and name not in needed:
                        continue
                    new_host[name] = host[name][ids]
                    new_meta[name] = meta[name]
                host, meta = new_host, new_meta
                num_rows = len(ids)
                flops += 6.0  # hash + membership chain per streamed row
                build_flops, build_bytes = self._build_charge(build)
                fixed_flops += build_flops
                fixed_bytes += build_bytes
                kind = "anti" if plan.anti else "semi"
                ops.append(f"{kind}[{plan.left_on}={plan.right_on}]")
            else:  # LimitStage
                n = stage.plan.n
                row_limit = n if row_limit is None else min(n, row_limit)
                ops.append(f"limit {n}")

        sink = pipeline.sink
        if isinstance(sink, GroupBySink):
            return self._fused_group_by(
                sink.plan,
                host,
                meta,
                num_rows,
                n_input,
                read_per_row,
                flops,
                fixed_flops,
                fixed_bytes,
                ops,
            )
        # Stream the surviving rows out: the kernel's only DRAM writes.
        out_bytes = float(sum(array.nbytes for array in host.values()))
        ops.append("stream-out")
        backend.launch_fused(
            "|".join(ops),
            n_input,
            flops=flops,
            read=read_per_row,
            written=out_bytes / max(n_input, 1),
            fixed_flops=fixed_flops,
            fixed_bytes=fixed_bytes,
        )
        columns = {
            name: backend.wrap(array, f"compiled::{name}")
            for name, array in host.items()
        }
        relation = Relation(
            columns=columns, meta=meta, num_rows=num_rows, row_limit=row_limit
        )
        return self._apply_sink(relation, sink)

    def _hash_table_bytes(self, rows: int) -> float:
        """Device bytes of a fused kernel's hash table over ``rows`` keys."""
        backend = self.backend
        return (
            backend.HASH_SLOT_BYTES
            * backend.HASH_TABLE_OVERALLOC
            * max(rows, 1)
        )

    def _build_charge(self, build: Relation) -> Tuple[float, float]:
        """Fixed (flops, bytes) a fused probe pays for its hash table:
        building it over ``build`` and reading the build columns."""
        read = float(
            sum(
                handle.itemsize * len(handle)
                for handle in build.columns.values()
            )
        )
        table_bytes = self._hash_table_bytes(build.num_rows)
        return 10.0 * build.num_rows, 2.0 * table_bytes + read

    # -- fused aggregation --------------------------------------------------------

    def _expr_values(
        self, expr: Optional[Expr], host: Dict[str, np.ndarray]
    ) -> np.ndarray:
        assert expr is not None
        if isinstance(expr, ColRef):
            return _column(host, expr.name)
        return np.asarray(expr.evaluate(host))

    def _fused_group_by(
        self,
        plan: GroupBy,
        host: Dict[str, np.ndarray],
        meta: Dict[str, ColumnMeta],
        num_rows: int,
        n_input: int,
        read_per_row: float,
        flops: float,
        fixed_flops: float,
        fixed_bytes: float,
        ops: List[str],
    ) -> Relation:
        backend = self.backend
        aggregates = plan.aggregates
        if not plan.keys:
            # Global aggregation: the reductions ride inside the fused
            # kernel; only the scalar results cross back to the host.
            columns: Dict[str, HostColumn] = {}
            out_meta: Dict[str, ColumnMeta] = {}
            for aggregate in aggregates:
                if aggregate.kind == "count" and aggregate.expr is None:
                    scalar = float(num_rows)
                else:
                    values = self._expr_values(aggregate.expr, host)
                    scalar = reduction_host(values, aggregate.kind)
                    flops += 1.0
                columns[aggregate.name] = _scalar_column(aggregate.kind, scalar)
                out_meta[aggregate.name] = _aggregate_meta(aggregate.kind)
            ops.append(f"agg[{len(aggregates)}]")
            backend.launch_fused(
                "|".join(ops),
                n_input,
                flops=flops,
                read=read_per_row,
                written=0.0,
                fixed_flops=fixed_flops,
                fixed_bytes=fixed_bytes + 8.0 * len(aggregates),
            )
            backend.device.transfer_to_host(
                8 * max(len(aggregates), 1), "fused_agg_result"
            )
            return Relation(columns=columns, meta=out_meta, num_rows=1)

        key_expr, strides = composite_key_expr(plan.keys, meta)
        key_data = self._expr_values(key_expr, host)
        agg_columns: Dict[str, np.ndarray] = {}
        agg_meta: Dict[str, ColumnMeta] = {}
        unique_keys: Optional[np.ndarray] = None
        for aggregate in aggregates:
            if aggregate.kind == "count" and aggregate.expr is None:
                values = key_data  # values are ignored for counts
            else:
                values = self._expr_values(aggregate.expr, host)
            group_keys, group_values = grouped_aggregate_host(
                key_data, values, aggregate.kind
            )
            if unique_keys is None:
                unique_keys = group_keys
            agg_columns[aggregate.name] = group_values
            agg_meta[aggregate.name] = _aggregate_meta(aggregate.kind)
        assert unique_keys is not None
        groups = len(unique_keys)
        # The partial aggregation is INSIDE the fused kernel (per-tile
        # hash tables); only the partial-merge breaks the pipeline.
        group_row_bytes = 8.0 + 8.0 * len(aggregates)
        ops.append(f"partial-agg[{len(aggregates)}]")
        backend.launch_fused(
            "|".join(ops),
            n_input,
            flops=flops + 10.0 + 2.0 * len(aggregates),
            read=read_per_row,
            written=groups * group_row_bytes / max(n_input, 1),
            fixed_flops=fixed_flops,
            fixed_bytes=fixed_bytes + 2.0 * self._hash_table_bytes(groups),
        )
        backend.merge_groups(groups, len(aggregates))
        # Same host round-trip as the eager group-by: composite keys come
        # down, decomposed per-column keys go back up.
        out_keys = backend.wrap(unique_keys, "compiled::group_keys")
        ordered, ordered_meta = self._group_key_columns(
            plan, out_keys, strides, meta
        )
        for name, values in agg_columns.items():
            ordered[name] = backend.wrap(values, "compiled::group_values")
        ordered_meta.update(agg_meta)
        return Relation(columns=ordered, meta=ordered_meta, num_rows=groups)


def _reorder_host(
    handle: Handle, order: np.ndarray, backend: OperatorBackend
) -> Handle:
    if isinstance(handle, HostColumn):
        return HostColumn(handle.data[order])
    data = backend.download(handle)
    return HostColumn(data[order])


def _decode_column(name: str, data: np.ndarray, meta: ColumnMeta) -> Column:
    """Turn downloaded physical data back into a typed column."""
    if meta.ctype.is_dictionary_encoded:
        return Column(
            name,
            meta.ctype,
            data.astype(np.int32, copy=False),
            meta.dictionary,
        )
    physical = meta.ctype.numpy_dtype
    if data.dtype != physical:
        data = data.astype(physical)
    return Column(name, meta.ctype, np.ascontiguousarray(data))
