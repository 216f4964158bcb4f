"""The pipeline-IR runner: how every backend executes a plan.

:class:`PipelineRunner` lowers a plan to the pipeline IR
(:mod:`repro.query.pipeline`) and runs its pipelines.  Per pipeline it
picks one of two executions:

* **eager** — the segment runs the executor's per-operator relation
  transformations (``_apply_*``), charging one backend kernel chain per
  operator.  This is how the studied libraries and every non-fusing
  backend run, and how the compiled backend runs with fusion off.
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

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.backend import join_reference
from repro.core.expr import ColRef, Expr
from repro.core.handwritten_backend import (
    grouped_aggregate_host,
    predicate_cost,
    reduction_host,
)
from repro.errors import PlanError
from repro.query.executor import (
    ColumnMeta,
    HostColumn,
    QueryExecutor,
    Relation,
    composite_key_expr,
    decompose_keys,
)
from repro.query.optimizer import FusionDecision, fusion_decision
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
from repro.query.plan import GroupBy, PlanNode
from repro.relational.types import ColumnType


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
    """Runs plans through the pipeline IR on one executor's backend."""

    def __init__(self, executor: QueryExecutor) -> None:
        self.executor = executor
        self.backend = executor.backend

    # -- driver -------------------------------------------------------------------

    def run(
        self, plan: PlanNode, needed: Optional[Sequence[str]] = None
    ) -> Relation:
        """Run ``plan`` and return its result relation.

        ``needed`` prunes the result to those columns (None = all).
        """
        program = lower_plan(plan, catalog=self.executor.catalog, needed=needed)
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
        table = self.executor.catalog.get(pipeline.source.table)
        if table is None:
            # Unknown table: stay eager so the scan raises the executor's
            # usual PlanError.
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

    # -- eager segment ------------------------------------------------------------

    def _run_eager(
        self, pipeline: Pipeline, inputs: Mapping[int, Relation]
    ) -> Relation:
        ex = self.executor
        source = pipeline.source
        if isinstance(source, TableSource):
            relation = ex._scan(source.table, source.columns)
        else:
            relation = inputs[source.pid]
        for stage in pipeline.stages:
            if isinstance(stage, FilterStage):
                relation = ex._apply_filter(relation, stage.plan, stage.keep)
            elif isinstance(stage, ProjectStage):
                relation = ex._apply_project(relation, stage.plan)
            elif isinstance(stage, ProbeStage):
                relation = ex._apply_join(
                    relation, inputs[stage.build_pid], stage.plan, stage.keep
                )
            elif isinstance(stage, SemiProbeStage):
                relation = ex._apply_semi_join(
                    relation, inputs[stage.build_pid], stage.plan, stage.keep
                )
            else:
                relation = ex._apply_limit(relation, stage.plan.n)
        return self._apply_sink(relation, pipeline.sink)

    def _apply_sink(self, relation: Relation, sink: Sink) -> Relation:
        if isinstance(sink, GroupBySink):
            return self.executor._apply_group_by(relation, sink.plan)
        if isinstance(sink, SortSink):
            return self.executor._apply_order_by(relation, sink.plan)
        if isinstance(sink, TopKSink):
            return self.executor._apply_top_k(relation, sink.plan)
        return relation  # Build/Result sinks: already materialised

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
        scan = self.executor._scan(
            pipeline.source.table, pipeline.source.columns
        )
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
                        if expr.name not in host:
                            raise PlanError(
                                f"column {expr.name!r} not available "
                                f"(have: {', '.join(host)})"
                            )
                        new_host[name] = host[expr.name]
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
                table_bytes = (
                    backend.HASH_SLOT_BYTES
                    * backend.HASH_TABLE_OVERALLOC
                    * max(build.num_rows, 1)
                )
                flops += 6.0  # hash + probe chain per streamed row
                fixed_flops += 10.0 * build.num_rows  # table build
                fixed_bytes += 2.0 * table_bytes + float(
                    sum(
                        handle.itemsize * len(handle)
                        for handle in build.columns.values()
                    )
                )
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
                table_bytes = (
                    backend.HASH_SLOT_BYTES
                    * backend.HASH_TABLE_OVERALLOC
                    * max(build.num_rows, 1)
                )
                flops += 6.0  # hash + membership chain per streamed row
                fixed_flops += 10.0 * build.num_rows  # table build
                fixed_bytes += 2.0 * table_bytes + float(
                    sum(
                        handle.itemsize * len(handle)
                        for handle in build.columns.values()
                    )
                )
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
            name: backend._wrap(array, f"compiled::{name}")
            for name, array in host.items()
        }
        relation = Relation(
            columns=columns, meta=meta, num_rows=num_rows, row_limit=row_limit
        )
        return self._apply_sink(relation, sink)

    # -- fused aggregation --------------------------------------------------------

    def _expr_values(
        self, expr: Optional[Expr], host: Dict[str, np.ndarray]
    ) -> np.ndarray:
        assert expr is not None
        if isinstance(expr, ColRef):
            if expr.name not in host:
                raise PlanError(
                    f"column {expr.name!r} not available "
                    f"(have: {', '.join(host)})"
                )
            return host[expr.name]
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
                if aggregate.kind == "count":
                    columns[aggregate.name] = HostColumn(
                        np.asarray([int(scalar)], dtype=np.int64)
                    )
                    out_meta[aggregate.name] = ColumnMeta(ctype=ColumnType.INT64)
                else:
                    columns[aggregate.name] = HostColumn(
                        np.asarray([scalar], dtype=np.float64)
                    )
                    out_meta[aggregate.name] = ColumnMeta(
                        ctype=ColumnType.FLOAT64
                    )
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
            agg_meta[aggregate.name] = ColumnMeta(
                ctype=ColumnType.INT64
                if aggregate.kind == "count"
                else ColumnType.FLOAT64
            )
        assert unique_keys is not None
        groups = len(unique_keys)
        # The partial aggregation is INSIDE the fused kernel (per-tile
        # hash tables); only the partial-merge breaks the pipeline.
        group_row_bytes = 8.0 + 8.0 * len(aggregates)
        table_bytes = (
            backend.HASH_SLOT_BYTES
            * backend.HASH_TABLE_OVERALLOC
            * max(groups, 1)
        )
        ops.append(f"partial-agg[{len(aggregates)}]")
        backend.launch_fused(
            "|".join(ops),
            n_input,
            flops=flops + 10.0 + 2.0 * len(aggregates),
            read=read_per_row,
            written=groups * group_row_bytes / max(n_input, 1),
            fixed_flops=fixed_flops,
            fixed_bytes=fixed_bytes + 2.0 * table_bytes,
        )
        backend.runtime._charge(
            f"groupmerge[{len(aggregates)} aggs]",
            groups,
            flops=2.0 * len(aggregates),
            read=group_row_bytes,
            written=group_row_bytes,
            passes=2,
        )
        # Same host round-trip as the eager group-by: composite keys come
        # down, decomposed per-column keys go back up.
        out_keys = backend._wrap(unique_keys, "compiled::group_keys")
        composite = backend.download(out_keys).astype(np.int64)
        key_columns = decompose_keys(plan.keys, composite, strides, meta)
        ordered: Dict[str, object] = {}
        ordered_meta: Dict[str, ColumnMeta] = {}
        for name, (data, key_meta) in key_columns.items():
            ordered[name] = backend.upload(data, label=f"groupkey.{name}")
            ordered_meta[name] = key_meta
        for name, values in agg_columns.items():
            ordered[name] = backend._wrap(values, "compiled::group_values")
        ordered_meta.update(agg_meta)
        return Relation(columns=ordered, meta=ordered_meta, num_rows=groups)
