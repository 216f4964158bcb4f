"""Physical execution of logical plans on an operator backend.

The executor is backend-agnostic: every plan is lowered to the pipeline
IR (:mod:`repro.query.pipeline`) and interpreted by the one
:class:`~repro.query.compiled.PipelineRunner`, whose eager stages map
each operator onto the :class:`~repro.core.backend.OperatorBackend`
operator set (Table II) through the relation transformations below, so
a query costs exactly what its operator composition costs on the chosen
library.  Columns are uploaded once per scan (only those the plan
references — column-store style) and every intermediate is a device
handle; the only downloads are scalar counts and the final result.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.backend import Handle, Operator, OperatorBackend, SupportLevel
from repro.core.expr import ColRef, Expr, Lit
from repro.core.predicate import (
    And,
    Compare,
    CompareCols,
    InSet,
    Not,
    Or,
    Predicate,
)
from repro.errors import DeviceMemoryError, PlanError, UnsupportedOperatorError
from repro.gpu.profiler import ProfileSummary
from repro.query.optimizer import choose_join_algorithm
from repro.query.plan import (
    JOIN_ALGORITHMS,
    Aggregate,
    Filter,
    GroupBy,
    InSubquery,
    Join,
    Limit,
    OrderBy,
    PlanNode,
    Project,
    ScalarCompare,
    SemiJoin,
    TopK,
)
from repro.relational.column import Column
from repro.relational.table import Table
from repro.relational.types import ColumnType


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
        try:
            return self.columns[name]
        except KeyError:
            raise PlanError(
                f"column {name!r} not available "
                f"(have: {', '.join(self.columns)})"
            )


@dataclass(frozen=True)
class ExecutionReport:
    """Cost accounting for one query execution."""

    backend: str
    simulated_seconds: float
    summary: ProfileSummary
    peak_device_bytes: int
    #: Chunk count the OOM-recovery retry settled on, or None when the
    #: query completed on its first (whole-table or configured) attempt.
    oom_recovery_chunks: Optional[int] = None

    @property
    def simulated_ms(self) -> float:
        """Total simulated wall-clock in milliseconds."""
        return self.simulated_seconds * 1e3

    def breakdown(self) -> Dict[str, float]:
        """Seconds by cost category (kernel / transfer / compile)."""
        return {
            "kernel": self.summary.kernel_time,
            "transfer": self.summary.transfer_time,
            "compile": self.summary.compile_time,
        }


@dataclass(frozen=True)
class ExecutionResult:
    """A materialised result table plus its cost report."""

    table: Table
    report: ExecutionReport


class QueryExecutor:
    """Runs logical plans against a catalog of host tables.

    ``join_strategy`` overrides the algorithm of every join the plan left
    undecided (``auto``/``cost``); per-node explicit algorithms always
    win.  ``"cost"`` resolves each undecided join at runtime with the
    optimizer's cost model over the *actual* key cardinalities, restricted
    to what the backend supports.

    ``scan_chunks`` turns on chunked, stream-pipelined scans (see
    :mod:`repro.query.chunked`): eligible plans run chunk-by-chunk on
    ``scan_streams`` rotating asynchronous streams so transfer and compute
    overlap; ineligible plans silently fall back to whole-table execution.

    ``store`` is an optional compressed tiered column store (duck-typed:
    anything with ``manages(table, column)`` and ``fetch(table, column,
    backend, lo, hi)``, e.g. :class:`repro.storage.TieredColumnStore`).
    Scans of store-managed columns fetch compressed chunks through the
    tier hierarchy and decompress on device instead of uploading raw host
    bytes.
    """

    def __init__(
        self,
        backend: OperatorBackend,
        catalog: Dict[str, Table],
        join_strategy: Optional[str] = None,
        scan_chunks: Optional[int] = None,
        scan_streams: int = 2,
        store=None,
    ) -> None:
        if join_strategy is not None and join_strategy not in JOIN_ALGORITHMS:
            raise PlanError(
                f"unknown join strategy {join_strategy!r}; "
                f"known: {', '.join(JOIN_ALGORITHMS)}"
            )
        if scan_chunks is not None and scan_chunks < 1:
            raise PlanError(f"scan_chunks must be >= 1: {scan_chunks}")
        if scan_streams < 1:
            raise PlanError(f"scan_streams must be >= 1: {scan_streams}")
        self.backend = backend
        self.catalog = dict(catalog)
        self.join_strategy = join_strategy
        self.scan_chunks = scan_chunks
        self.scan_streams = scan_streams
        self.store = store

    # -- public API --------------------------------------------------------------

    def execute(self, plan: PlanNode, result_name: str = "result") -> ExecutionResult:
        """Execute ``plan`` and return the result with its cost report.

        When the device runs out of memory mid-plan (including injected
        faults), chunk-eligible plans are retried through the chunked
        path with a chunk count sized from the remaining free bytes —
        graceful degradation instead of a hard failure.  The retry's
        report carries the chunk count in ``oom_recovery_chunks``.
        """
        plan = self.resolve_subqueries(plan)
        oom: Optional[DeviceMemoryError] = None
        if self.scan_chunks is not None:
            from repro.query.chunked import try_execute_chunked

            try:
                chunked = try_execute_chunked(self, plan, result_name)
            except DeviceMemoryError as exc:
                # Even the configured chunk count can OOM on a small
                # device; escalate through the recovery path.
                oom = exc.with_traceback(None)
                return self._retry_chunked(plan, result_name, oom)
            if chunked is not None:
                return chunked
        try:
            return self._execute_whole(plan, result_name)
        except DeviceMemoryError as exc:
            # Drop the traceback before leaving the handler: its frames
            # pin the failed attempt's intermediate device arrays, which
            # the retry needs the collector to release.
            oom = exc.with_traceback(None)
        return self._retry_chunked(plan, result_name, oom)

    def _execute_whole(self, plan: PlanNode, result_name: str) -> ExecutionResult:
        """One whole-table execution attempt with its cost report."""
        from repro.query.compiled import PipelineRunner

        device = self.backend.device
        cursor = device.profiler.mark()
        t0 = device.clock.now
        device.memory.reset_peak()
        relation = PipelineRunner(self).run(plan)
        table = self.materialise(relation, result_name)
        report = ExecutionReport(
            backend=self.backend.name,
            simulated_seconds=device.clock.elapsed_since(t0),
            summary=device.profiler.summary(since=cursor),
            peak_device_bytes=device.memory.peak_bytes,
        )
        return ExecutionResult(table=table, report=report)

    def _recovery_chunks(self, table_bytes: int, num_rows: int) -> int:
        """First chunk count to try after an OOM.

        Sized so one chunk's scan columns plus intermediates (roughly 4x
        the chunk's input bytes: filtered copies, derived columns, result
        buffers) fit in the device's current free bytes.
        """
        device = self.backend.device
        free = device.memory.free_bytes
        if device.pool is not None:
            # Freed blocks parked in the pool's freelists are reusable
            # capacity even though the manager still counts them as used.
            free += device.pool.cached_bytes
        if self.store is not None:
            tier_bytes = getattr(self.store, "tier_bytes", None)
            if tier_bytes is not None:
                # Store chunks resident on the device spill down-tier
                # under pressure, so they are reclaimable capacity too.
                free += tier_bytes().get("device", 0)
        chunks = math.ceil(4 * max(table_bytes, 1) / max(free, 1))
        return max(2, min(chunks, max(num_rows, 2)))

    def _retry_chunked(
        self,
        plan: PlanNode,
        result_name: str,
        oom: DeviceMemoryError,
    ) -> ExecutionResult:
        """Re-run an OOM'd plan through the chunked path, escalating the
        chunk count (doubling) while chunks themselves still OOM."""
        from repro.query.chunked import chunkable_table, try_execute_chunked

        table_name = chunkable_table(plan, probe_joins=True)
        if table_name is None or table_name not in self.catalog:
            raise oom
        gc.collect()  # release the failed attempt's intermediates
        table = self.catalog[table_name]
        table_bytes = table.nbytes
        max_chunks = max(table.num_rows, 2)
        chunks = self._recovery_chunks(table_bytes, table.num_rows)
        while True:
            retry_oom: Optional[DeviceMemoryError] = None
            try:
                result = try_execute_chunked(
                    self, plan, result_name, chunks=chunks, probe_joins=True
                )
            except DeviceMemoryError as exc:
                retry_oom = exc.with_traceback(None)
            if retry_oom is None:
                if result is None:
                    raise oom
                report = replace(result.report, oom_recovery_chunks=chunks)
                return ExecutionResult(table=result.table, report=report)
            gc.collect()
            if chunks >= max_chunks:
                raise retry_oom
            chunks = min(chunks * 2, max_chunks)

    # -- subquery resolution ---------------------------------------------------------

    def resolve_subqueries(self, plan: PlanNode) -> PlanNode:
        """Replace subquery predicates with literal predicates.

        Uncorrelated IN and scalar subqueries are executed bottom-up
        (each through a full ordinary execution, including upload and
        download charges) and spliced into the outer plan as
        :class:`~repro.core.predicate.InSet` / ``Compare`` literals, so
        every downstream layer — backends, the compiled pipeline, the
        chunked and distributed paths — only ever sees flattened plans.
        The inner executions happen before the outer report's
        measurement window opens; their cost is reported per subquery
        run, not folded into the outer query's report.
        """
        if isinstance(plan, Filter):
            return Filter(
                self.resolve_subqueries(plan.child),
                self._resolve_predicate(plan.predicate),
            )
        if isinstance(plan, (Join, SemiJoin)):
            return replace(
                plan,
                left=self.resolve_subqueries(plan.left),
                right=self.resolve_subqueries(plan.right),
            )
        if isinstance(plan, (Project, GroupBy, OrderBy, Limit, TopK)):
            return replace(plan, child=self.resolve_subqueries(plan.child))
        return plan

    def _resolve_predicate(self, predicate: Predicate) -> Predicate:
        if isinstance(predicate, (And, Or)):
            return type(predicate)(
                tuple(self._resolve_predicate(p) for p in predicate.parts)
            )
        if isinstance(predicate, Not):
            return Not(self._resolve_predicate(predicate.part))
        if isinstance(predicate, InSubquery):
            values = self._run_subquery(predicate.subplan, predicate.output)
            if len(values) == 0:
                # IN () is vacuously false, NOT IN () vacuously true.
                always_false = CompareCols(
                    predicate.column, "ne", predicate.column
                )
                return Not(always_false) if predicate.negated else always_false
            in_set = InSet(
                predicate.column,
                tuple(float(v) for v in np.unique(values)),
            )
            return Not(in_set) if predicate.negated else in_set
        if isinstance(predicate, ScalarCompare):
            values = self._run_subquery(predicate.subplan, predicate.output)
            if len(values) != 1:
                raise PlanError(
                    f"scalar subquery for {predicate.column!r} returned "
                    f"{len(values)} rows (expected exactly 1)"
                )
            return Compare(predicate.column, predicate.op, float(values[0]))
        return predicate

    def _run_subquery(self, subplan: PlanNode, output: str) -> np.ndarray:
        """Execute an inner plan and return its ``output`` column's
        physical values (dictionary columns yield their codes)."""
        resolved = self.resolve_subqueries(subplan)
        result = self._execute_whole(resolved, "subquery")
        try:
            column = result.table.column(output)
        except Exception:
            raise PlanError(
                f"subquery does not produce column {output!r} "
                f"(has: {', '.join(result.table.column_names)})"
            )
        return np.asarray(column.data)

    # -- relation transformations (the runner's eager stages) ----------------------

    def _apply_limit(self, relation: Relation, n: int) -> Relation:
        limit = n if relation.row_limit is None else min(n, relation.row_limit)
        relation.row_limit = limit
        return relation

    # -- scan ----------------------------------------------------------------------------

    def _scan(
        self, table_name: str, needed: Optional[Sequence[str]]
    ) -> Relation:
        try:
            table = self.catalog[table_name]
        except KeyError:
            known = ", ".join(sorted(self.catalog))
            raise PlanError(f"unknown table {table_name!r}; catalog has: {known}")
        names = list(needed) if needed is not None else table.column_names
        columns = self._upload_scan_columns(table_name, names, table)
        meta: Dict[str, ColumnMeta] = {}
        for name in names:
            column = table.column(name)
            meta[name] = ColumnMeta(
                ctype=column.ctype,
                dictionary=column.dictionary,
                values=column.data,
            )
        return Relation(columns=columns, meta=meta, num_rows=table.num_rows)

    def _upload_scan_columns(
        self, table_name: str, names: Sequence[str], table: Table
    ) -> Dict[str, Handle]:
        """Device handles for all of a scan's columns.

        Store-managed columns are fetched through one batched store call
        — the covering chunks promote in a single transfer and decode in
        a single launch — so a multi-column scan pays the link latency
        and launch overhead once, not per column.
        """
        handles: Dict[str, Handle] = {}
        if self.store is not None:
            managed = [n for n in names if self.store.manages(table_name, n)]
            if len(managed) > 1:
                handles = self.store.fetch_many(
                    table_name, managed, self.backend
                )
        for name in names:
            if name not in handles:
                handles[name] = self._upload_column(
                    table_name, name, table.column(name).data
                )
        return handles

    def _upload_column(
        self, table_name: str, column_name: str, data: np.ndarray
    ) -> Handle:
        """Scan upload hook (GpuSession overrides it with a resident-column
        cache).  Store-managed columns take the compressed tier path —
        promote compressed chunks, decompress on device — instead of a
        raw host upload."""
        if self.store is not None and self.store.manages(table_name, column_name):
            return self.store.fetch(table_name, column_name, self.backend)
        return self.backend.upload(
            data, label=f"{table_name}.{column_name}"
        )

    # -- filter --------------------------------------------------------------------------

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

    # -- project -------------------------------------------------------------------------

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

    # -- join ----------------------------------------------------------------------------

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

    # -- semi / anti join ---------------------------------------------------------------

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

    # -- group by -----------------------------------------------------------------------

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
            out_type = (
                ColumnType.INT64 if aggregate.kind == "count"
                else ColumnType.FLOAT64
            )
            meta[aggregate.name] = ColumnMeta(ctype=out_type)
        assert out_keys is not None
        group_count = len(out_keys)
        # Decompose the composite key on the host (group outputs are small),
        # then re-upload the per-column keys so downstream operators (joins,
        # sorts) keep working on device handles.
        composite = self.backend.download(out_keys).astype(np.int64)
        key_columns = decompose_keys(plan.keys, composite, strides, relation.meta)
        ordered: Dict[str, Handle] = {}
        ordered_meta: Dict[str, ColumnMeta] = {}
        for name, (data, key_meta) in key_columns.items():
            ordered[name] = self.backend.upload(data, label=f"groupkey.{name}")
            ordered_meta[name] = key_meta
        ordered.update(columns)
        ordered_meta.update(meta)
        return Relation(
            columns=ordered, meta=ordered_meta, num_rows=group_count
        )

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
            if aggregate.kind == "count":
                columns[aggregate.name] = HostColumn(
                    np.asarray([int(scalar)], dtype=np.int64)
                )
                meta[aggregate.name] = ColumnMeta(ctype=ColumnType.INT64)
            else:
                columns[aggregate.name] = HostColumn(
                    np.asarray([scalar], dtype=np.float64)
                )
                meta[aggregate.name] = ColumnMeta(ctype=ColumnType.FLOAT64)
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

    # -- order by ----------------------------------------------------------------------

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

    # -- top-k --------------------------------------------------------------------------

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

    # -- materialisation ----------------------------------------------------------------

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


class HostColumn:
    """A small host-resident result column (group keys, scalars)."""

    def __init__(self, data: np.ndarray) -> None:
        self.data = np.asarray(data)

    def __len__(self) -> int:
        return len(self.data)


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
