"""Mixed CPU+GPU plan execution with explicit staging transfers.

:class:`HeterogeneousExecutor` owns *two* ordinary
:class:`~repro.query.executor.QueryExecutor` instances over the same
catalog — one on a simulated GPU, one on a :class:`~repro.cpu.host.HostDevice`
— lowers each plan to the shared pipeline IR, asks the placement
optimizer (:mod:`repro.hetero.placement`) which side each pipeline runs
on, and runs each pipeline with that side's executor's
:class:`~repro.query.runner.PipelineRunner` (a session's executor brings
its resident-column cache along).  Fusion stays the
runner's per-pipeline policy, so only a GPU backend that supports fused
pipelines fuses; the host backend runs every pipeline eager, replaying
the per-operator kernels on the host roofline (there is no host JIT).
The pipelines run in pid order, which placement and staging need.

When a pipeline consumes a result produced on the other side, the
materialised relation is *staged* across: one download on the producer's
device, one upload on the consumer's.  On the GPU both legs are priced
PCIe transfers (visible in the profiler as ``hetero.stage.*`` events);
on the host both are free — so each boundary crossing costs exactly one
PCIe leg, which is precisely the transfer term the placement model
charged when it chose to cross.  The staged columns become the
consumer backend's own handles through its public
:meth:`~repro.core.backend.OperatorBackend.wrap`.

**Results.**  Both sides run the same pipeline runner and staging
copies column data and metadata verbatim, so every placement matches
the NumPy oracle.  Over the handwritten family (handwritten, compiled,
cudf), which shares the host's NumPy semantics, pure-CPU, pure-GPU and
any hybrid assignment produce byte-identical tables; only the cost
events differ.  The libraries keep their own arithmetic: Thrust and
Boost.Compute sum in their own order, so their tables can differ from
the host's in the last bits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional

from repro.gpu.profiler import merge_summaries, to_chrome_trace, track_metadata
from repro.query.executor import (
    ExecutionReport,
    ExecutionResult,
    QueryExecutor,
)
from repro.query.pipeline import (
    Pipeline,
    PipelineSource,
    ProbeStage,
    SemiProbeStage,
    lower_plan,
)
from repro.query.plan import PlanNode
from repro.query.runner import HostColumn, Relation
from repro.relational.table import Table

from repro.hetero.placement import (
    CPU,
    GPU,
    PLACEMENT_MODES,
    Placement,
    PlacementModel,
    place_pipelines,
)


@dataclass(frozen=True)
class HeteroReport(ExecutionReport):
    """An :class:`~repro.query.executor.ExecutionReport` plus placement.

    ``simulated_seconds`` is the *sum* of the two devices' elapsed time:
    the interpreter runs pipelines in dependency order without
    overlapping the sides, which keeps the comparison against the pure
    single-device runs (also sequential) apples-to-apples.
    """

    gpu_seconds: float = 0.0
    cpu_seconds: float = 0.0
    placement: Optional[Placement] = None
    staged_bytes: float = 0.0

    def breakdown(self) -> Dict[str, float]:
        """Seconds by category, with the per-device split added."""
        detail = super().breakdown()
        detail["gpu"] = self.gpu_seconds
        detail["cpu"] = self.cpu_seconds
        return detail


class HeterogeneousExecutor:
    """Places pipeline segments on CPU or GPU and runs the mixed plan.

    ``gpu_executor`` lets callers (``GpuSession``) supply an existing
    executor — e.g. one with a resident-column cache — as the GPU side;
    otherwise one is built from ``gpu_backend``.  ``mode`` defaults to
    cost-chosen placement; ``"cpu"``/``"gpu"`` force pure placements
    through the same code path (used by the differential tests and the
    serving layer's pressure shed).
    """

    def __init__(
        self,
        gpu_backend=None,
        catalog: Optional[Dict[str, Table]] = None,
        *,
        cpu_backend=None,
        model: Optional[PlacementModel] = None,
        mode: str = "auto",
        join_strategy: Optional[str] = None,
        gpu_executor: Optional[QueryExecutor] = None,
    ) -> None:
        if mode not in PLACEMENT_MODES:
            raise ValueError(
                f"unknown placement mode {mode!r}; expected one of "
                f"{PLACEMENT_MODES}"
            )
        if gpu_executor is not None:
            self.gpu = gpu_executor
        else:
            if gpu_backend is None or catalog is None:
                raise ValueError(
                    "need either gpu_executor or (gpu_backend, catalog)"
                )
            self.gpu = QueryExecutor(
                gpu_backend, catalog, join_strategy=join_strategy
            )
        if cpu_backend is None:
            from repro.cpu.backend import CpuSimdBackend

            cpu_backend = CpuSimdBackend()
        self.cpu = QueryExecutor(
            cpu_backend,
            catalog if catalog is not None else self.gpu.catalog,
            join_strategy=join_strategy,
        )
        self.catalog = self.gpu.catalog
        self.model = model if model is not None else PlacementModel.default()
        self.mode = mode
        #: Placement chosen for the most recent ``execute`` call.
        self.last_placement: Optional[Placement] = None

    # -- public API --------------------------------------------------------------

    def execute(
        self,
        plan: PlanNode,
        result_name: str = "result",
        mode: Optional[str] = None,
    ) -> ExecutionResult:
        """Run ``plan`` under the (given or configured) placement mode."""
        mode = mode if mode is not None else self.mode
        if mode not in PLACEMENT_MODES:
            raise ValueError(
                f"unknown placement mode {mode!r}; expected one of "
                f"{PLACEMENT_MODES}"
            )
        primary = self.cpu if mode == CPU else self.gpu
        plan = primary.resolve_subqueries(plan)

        gpu_device = self.gpu.backend.device
        cpu_device = self.cpu.backend.device
        gpu_mark = gpu_device.profiler.mark()
        cpu_mark = cpu_device.profiler.mark()
        g0 = gpu_device.clock.now
        c0 = cpu_device.clock.now
        gpu_device.memory.reset_peak()

        program = lower_plan(plan, catalog=self.catalog)
        placement = place_pipelines(program, self.catalog, self.model, mode)
        self.last_placement = placement

        outputs: Dict[str, Dict[int, Relation]] = {CPU: {}, GPU: {}}
        staged_bytes = 0.0
        for pipeline in program.pipelines:
            device = placement.device_for(pipeline.pid)
            staged_bytes += self._stage_inputs(pipeline, device, outputs)
            runner = self._side(device).runner
            outputs[device][pipeline.pid] = runner.run_pipeline(
                pipeline, outputs[device]
            )

        result_device = placement.device_for(program.result_pid)
        relation = outputs[result_device][program.result_pid]
        table = self._side(result_device).runner.materialise(
            relation, result_name
        )

        gpu_seconds = gpu_device.clock.elapsed_since(g0)
        cpu_seconds = cpu_device.clock.elapsed_since(c0)
        summary = merge_summaries(
            [
                gpu_device.profiler.summary(since=gpu_mark),
                cpu_device.profiler.summary(since=cpu_mark),
            ]
        )
        assert summary is not None
        report = HeteroReport(
            backend=f"hetero({self.gpu.backend.name}+{self.cpu.backend.name})",
            simulated_seconds=gpu_seconds + cpu_seconds,
            summary=summary,
            peak_device_bytes=gpu_device.memory.peak_bytes,
            gpu_seconds=gpu_seconds,
            cpu_seconds=cpu_seconds,
            placement=placement,
            staged_bytes=staged_bytes,
        )
        return ExecutionResult(table=table, report=report)

    # -- staging -------------------------------------------------------------------

    def _side(self, device: str) -> QueryExecutor:
        """The executor of one placement side (``CPU`` or ``GPU``)."""
        return self.cpu if device == CPU else self.gpu

    def _stage_inputs(
        self,
        pipeline: Pipeline,
        device: str,
        outputs: Dict[str, Dict[int, Relation]],
    ) -> float:
        """Make every pid ``pipeline`` consumes resident on ``device``.

        Returns the bytes moved across the boundary (0.0 when all
        producers already ran on ``device`` or were staged earlier).
        """
        moved = 0.0
        needed = []
        if isinstance(pipeline.source, PipelineSource):
            needed.append(pipeline.source.pid)
        for stage in pipeline.stages:
            if isinstance(stage, (ProbeStage, SemiProbeStage)):
                needed.append(stage.build_pid)
        for pid in needed:
            if pid in outputs[device]:
                continue
            other = CPU if device == GPU else GPU
            relation = outputs[other][pid]
            outputs[device][pid], nbytes = self._stage(
                relation, source=self._side(other), target=self._side(device)
            )
            moved += nbytes
        return moved

    def _stage(
        self,
        relation: Relation,
        source: QueryExecutor,
        target: QueryExecutor,
    ) -> tuple:
        """Copy a materialised relation across the boundary.

        The relation's columns cross as **one batched transfer** in each
        direction — a single D2H on the producer's device and a single
        H2D on the consumer's — exactly like the tiered store's
        ``fetch_many``: the staging buffer is packed once, so the link
        latency is paid per *relation*, not per column.  (The host side
        of either leg is free, so each crossing prices exactly one PCIe
        leg — the transfer term the placement model charged when it
        chose to cross.)  Host-resident columns (aggregate scalars,
        group keys) pass through untouched, and column metadata is
        copied verbatim so group-by key decomposition stays bit-exact.
        """
        pending = []
        moved = 0
        columns = {}
        for name, handle in relation.columns.items():
            if isinstance(handle, HostColumn):
                columns[name] = handle
                continue
            peek = getattr(handle, "peek", None)
            data = peek() if peek is not None else source.backend.download(handle)
            pending.append((name, data))
            moved += int(data.nbytes)
        if pending:
            source.backend.device.transfer_to_host(moved, "hetero.stage.d2h")
            target.backend.device.transfer_to_device(moved, "hetero.stage.h2d")
        # The batched copy above is the whole charge: each column is then
        # wrapped as device-resident, not uploaded (which would charge the
        # link latency again per column).
        for name, data in pending:
            columns[name] = target.backend.wrap(data, f"hetero.stage.{name}")
        return (
            Relation(
                columns=columns,
                meta=dict(relation.meta),
                num_rows=relation.num_rows,
                row_limit=relation.row_limit,
            ),
            float(moved),
        )


def hetero_chrome_trace(gpu_device, cpu_device, indent: int = 1) -> str:
    """A combined Chrome trace with the GPU's rows plus a ``cpu`` row.

    GPU engine tracks render under pid 0 (as in single-device traces);
    the host device's tracks render under pid 1, labelled with the host
    spec name — so mixed plans show staging transfers on the GPU's
    copy engines next to the host kernels they feed.
    """
    gpu_events = gpu_device.profiler.events
    cpu_events = cpu_device.profiler.events
    gpu_name = f"gpu ({gpu_device.spec.name})"
    host_spec = getattr(cpu_device, "host_spec", cpu_device.spec)
    cpu_name = f"cpu ({host_spec.name})"
    entries = (
        track_metadata(gpu_events, pid=0, process_name=gpu_name)
        + track_metadata(cpu_events, pid=1, process_name=cpu_name)
        + to_chrome_trace(gpu_events, pid=0)
        + to_chrome_trace(cpu_events, pid=1)
    )
    return json.dumps({"traceEvents": entries}, indent=indent)
