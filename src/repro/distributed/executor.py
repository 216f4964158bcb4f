"""Partition-parallel query execution across a simulated device group.

The :class:`DistributedExecutor` is the multi-GPU counterpart of
:class:`~repro.query.executor.QueryExecutor`: it splits one base table
into per-device shards, runs the plan's partial form once per device
through an ordinary single-device executor (so each shard keeps local
OOM recovery and chunked scans), prices the inter-device data movement
with the exchange operators, and merges the partials on the host.  The
split and the merge are the ones chunked scans use
(:func:`~repro.query.chunked.split_plan`,
:func:`~repro.query.chunked.merge_partials`) — a device shard is a
chunk that lives on its own device.

Placement model (see DESIGN.md "Interconnect cost model"):

* The sharded table's shards are *device-resident*: re-partitioning them
  (a shuffle join whose stored layout does not match the join key) moves
  rows peer-to-peer and is priced with :class:`Shuffle`.
* Replicated tables are *host-resident*: each device uploads them during
  its scan, so replication is priced as parallel H2D transfers by the
  per-device executors themselves — broadcast mode adds no separate
  exchange step, it simply leaves the build side whole in every device
  catalog.
* Partials gather to one root device over the interconnect
  (:class:`Gather`) before the host merge.

The cost model picks broadcast or shuffle among the sound patterns.
Ineligible plans (see :mod:`repro.distributed.planner`) fall back to
plain single-device execution, and a one-device group always takes that
path — so ``--devices 1`` is bit-identical to the serial executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.framework import GpuOperatorFramework, default_framework
from repro.gpu.profiler import ProfileSummary, merge_summaries
from repro.gpu.topology import DeviceGroup
from repro.query.chunked import merge_partials
from repro.query.executor import ExecutionReport, QueryExecutor
from repro.query.plan import Join, PlanNode, walk
from repro.relational.table import Table
from repro.distributed.exchange import (
    ExchangeChoice,
    Gather,
    Shuffle,
    choose_exchange,
    movement_matrix,
)
from repro.distributed.partition import (
    PartitionSpec,
    ShardCatalog,
    parse_partition_spec,
    partition_indices,
)
from repro.distributed.planner import DistributedDecision, analyze

#: Execution strategies a distributed run can report.
STRATEGIES = (
    "single_device",
    "partition_parallel",
    "broadcast_join",
    "shuffle_join",
)


@dataclass(frozen=True)
class ShardReport:
    """One device's slice of a distributed execution."""

    device: int
    shard_rows: int
    report: ExecutionReport


@dataclass(frozen=True)
class DistributedReport:
    """Cost accounting for one distributed query execution."""

    backend: str
    num_devices: int
    strategy: str
    #: The stored partitioning (``hash:<col>`` etc.) this run started from.
    partition: str
    #: Simulated wall-clock from group-aligned start to full drain.
    makespan_seconds: float
    #: Peer-to-peer re-partitioning (shuffle joins only).
    exchange_seconds: float
    exchange_bytes: int
    #: Partial-aggregate gather over the interconnect.
    merge_seconds: float
    merge_bytes: int
    #: Why the run fell back to one device ("" when distributed).
    reason: str
    per_device: Tuple[ShardReport, ...]
    #: Group-wide cost summary (kernels, transfers incl. D2D, compiles).
    summary: ProfileSummary
    #: Broadcast-vs-shuffle cost-model verdict (None without a top join).
    exchange_choice: Optional[ExchangeChoice] = None

    @property
    def simulated_seconds(self) -> float:
        return self.makespan_seconds

    @property
    def simulated_ms(self) -> float:
        return self.makespan_seconds * 1e3

    @property
    def devices_used(self) -> int:
        return len(self.per_device)


@dataclass(frozen=True)
class DistributedResult:
    """A materialised result table plus its distributed cost report."""

    table: Table
    report: DistributedReport


class DistributedExecutor:
    """Runs logical plans partition-parallel on a :class:`DeviceGroup`.

    ``partition`` names the stored layout of the sharded table (a
    :class:`PartitionSpec` or its ``kind[:column]`` string form).
    ``scan_chunks`` is forwarded to the per-device executors.
    """

    def __init__(
        self,
        group: DeviceGroup,
        backend_name: str,
        catalog: Dict[str, Table],
        partition: Union[PartitionSpec, str],
        *,
        framework: Optional[GpuOperatorFramework] = None,
        scan_chunks: Optional[int] = None,
    ) -> None:
        if isinstance(partition, str):
            partition = parse_partition_spec(partition)
        self.group = group
        self.catalog = dict(catalog)
        self.partition = partition
        self.scan_chunks = scan_chunks
        framework = framework if framework is not None else default_framework()
        self.backend_name = backend_name
        self.backends = [
            framework.create(backend_name, device) for device in group
        ]

    # -- public API ------------------------------------------------------------

    def execute(
        self, plan: PlanNode, result_name: str = "result"
    ) -> DistributedResult:
        """Execute ``plan`` and return the result with its cost report."""
        decision = analyze(plan, self.catalog, self.partition)
        if len(self.group) == 1:
            return self._execute_single(
                plan, result_name, "one device in the group"
            )
        if not decision.eligible:
            return self._execute_single(plan, result_name, decision.reason)
        return self._execute_distributed(plan, result_name, decision)

    # -- single-device fallback ------------------------------------------------

    def _sub_executor(self, device: int, catalog: Dict[str, Table]) -> QueryExecutor:
        return QueryExecutor(
            self.backends[device], catalog, scan_chunks=self.scan_chunks
        )

    def _execute_single(
        self, plan: PlanNode, result_name: str, reason: str
    ) -> DistributedResult:
        """Whole plan on device 0 — bit-identical to the serial executor."""
        result = self._sub_executor(0, self.catalog).execute(plan, result_name)
        num_rows = max(
            (t.num_rows for t in self.catalog.values()), default=0
        )
        report = DistributedReport(
            backend=self.backend_name,
            num_devices=len(self.group),
            strategy="single_device",
            partition=str(self.partition),
            makespan_seconds=result.report.simulated_seconds,
            exchange_seconds=0.0,
            exchange_bytes=0,
            merge_seconds=0.0,
            merge_bytes=0,
            reason=reason,
            per_device=(ShardReport(0, num_rows, result.report),),
            summary=result.report.summary,
        )
        return DistributedResult(table=result.table, report=report)

    # -- distributed path ------------------------------------------------------

    def _resolve_mode(
        self, decision: DistributedDecision
    ) -> Tuple[str, Optional[ExchangeChoice]]:
        """Pick broadcast vs shuffle: the sound one when only one is,
        otherwise the cost model's choice."""
        assert decision.sharded_table is not None
        jx = decision.join_exchange
        if jx is None:
            return "broadcast", None
        reshard_required = not (
            self.partition.kind == "hash"
            and self.partition.column == jx.fact_key
        )
        choice = choose_exchange(
            self.group,
            build_bytes=self.catalog[jx.build_table].nbytes,
            fact_bytes=self.catalog[decision.sharded_table].nbytes,
            reshard_required=reshard_required,
        )
        if not decision.broadcast_sound:
            return "shuffle", choice
        return choice.mode, choice

    def _execute_distributed(
        self,
        plan: PlanNode,
        result_name: str,
        decision: DistributedDecision,
    ) -> DistributedResult:
        assert decision.split is not None
        assert decision.sharded_table is not None
        group = self.group
        n = len(group)
        sharded = decision.sharded_table
        mode, choice = self._resolve_mode(decision)

        # Per-device catalogs: shard the fact table (re-keyed onto the
        # join column in shuffle mode), co-partition the build side in
        # shuffle mode, replicate everything else.
        shards = ShardCatalog(self.catalog, n)
        effective_spec = self.partition
        if mode == "shuffle":
            assert decision.join_exchange is not None
            jx = decision.join_exchange
            effective_spec = PartitionSpec("hash", jx.fact_key)
            shards.shard(sharded, effective_spec)
            shards.shard(jx.build_table, PartitionSpec("hash", jx.build_key))
        else:
            shards.shard(sharded, self.partition)

        cursors = [device.profiler.mark() for device in group]
        t0 = group.align()

        # Exchange phase: shuffle joins whose stored layout differs from
        # the join key move fact rows peer-to-peer before any scan runs.
        exchange_seconds = 0.0
        exchange_bytes = 0
        if mode == "shuffle" and effective_spec != self.partition:
            reshard = self._reshard_shuffle(sharded, effective_spec, n)
            exchange_seconds = reshard.run(group, label=f"reshard:{sharded}")
            exchange_bytes = reshard.total_bytes

        # Per-device partial plans.  Devices whose shard is empty sit the
        # query out (unless every shard is empty — then device 0 runs the
        # degenerate plan exactly like the serial executor would).
        participants = [
            i for i in range(n) if shards.shard_table(sharded, i).num_rows > 0
        ] or [0]
        per_plan = decision.split.partial
        partials: List[Table] = []
        shard_reports: List[ShardReport] = []
        for i in participants:
            sub = self._sub_executor(i, shards.device_catalog(i))
            result = sub.execute(per_plan, f"{result_name}.gpu{i}")
            partials.append(result.table)
            shard_reports.append(
                ShardReport(
                    device=i,
                    shard_rows=shards.shard_table(sharded, i).num_rows,
                    report=result.report,
                )
            )

        # Merge phase: partials gather to the first participant.
        partial_bytes = [0] * n
        for i, table in zip(participants, partials):
            partial_bytes[i] = table.nbytes
        root = participants[0]
        merge_bytes = sum(b for i, b in enumerate(partial_bytes) if i != root)
        merge_seconds = Gather(tuple(partial_bytes), root=root).run(
            group, label="merge:gather"
        )
        makespan = group.synchronize() - t0
        combined = merge_partials(decision.split, partials, result_name)

        if any(isinstance(node, Join) for node in walk(per_plan)):
            strategy = "shuffle_join" if mode == "shuffle" else "broadcast_join"
        else:
            strategy = "partition_parallel"
        summary = merge_summaries(
            [
                device.profiler.summary(since=cursor)
                for device, cursor in zip(group, cursors)
            ]
        )
        report = DistributedReport(
            backend=self.backend_name,
            num_devices=n,
            strategy=strategy,
            partition=str(self.partition),
            makespan_seconds=makespan,
            exchange_seconds=exchange_seconds,
            exchange_bytes=exchange_bytes,
            merge_seconds=merge_seconds,
            merge_bytes=merge_bytes,
            reason="",
            per_device=tuple(shard_reports),
            summary=summary,
            exchange_choice=choice,
        )
        return DistributedResult(table=combined, report=report)

    def _reshard_shuffle(
        self, sharded: str, new_spec: PartitionSpec, n: int
    ) -> Shuffle:
        """Movement matrix from the stored layout to ``new_spec``."""
        table = self.catalog[sharded]
        old = partition_indices(table, self.partition, n)
        new = partition_indices(table, new_spec, n)
        assignment = np.zeros(table.num_rows, dtype=np.int64)
        for dst, indices in enumerate(new):
            assignment[indices] = dst
        counts = [
            [
                int(np.count_nonzero(assignment[indices] == dst))
                for dst in range(n)
            ]
            for indices in old
        ]
        row_bytes = table.nbytes / max(1, table.num_rows)
        return Shuffle.from_matrix(movement_matrix(counts, row_bytes))

