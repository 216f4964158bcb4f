"""Whole-query execution of logical plans on an operator backend.

:class:`QueryExecutor` wraps what concerns a query as a whole: its
options, the resolution of IN and scalar subqueries, the report's
measurement window and recovery from device OOM through chunked
execution.  Running the plan itself — the scan upload, every operator
stage and the download of the result — is the job of its
:class:`~repro.query.runner.PipelineRunner`, which maps each operator
onto the :class:`~repro.core.backend.OperatorBackend` operator set
(Table II), so a query costs exactly what its operator composition costs
on the chosen library.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from repro.core.backend import OperatorBackend
from repro.core.predicate import (
    And,
    Compare,
    CompareCols,
    InSet,
    Not,
    Or,
    Predicate,
)
from repro.errors import DeviceMemoryError, PlanError
from repro.gpu.profiler import ProfileSummary
from repro.query.chunked import chunkable_table, try_execute_chunked
from repro.query.plan import (
    JOIN_ALGORITHMS,
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
from repro.query.runner import PipelineRunner
from repro.relational.table import Table


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
        #: Runs every plan this executor executes (a session swaps in one
        #: that scans through its resident-column cache).
        self.runner = PipelineRunner(
            backend, self.catalog, join_strategy=join_strategy, store=store
        )

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
        device = self.backend.device
        cursor = device.profiler.mark()
        t0 = device.clock.now
        device.memory.reset_peak()
        relation = self.runner.run(plan)
        table = self.runner.materialise(relation, result_name)
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
