"""Multi-GPU execution: partitioning, exchange, and group execution.

This package scales one query out over a simulated
:class:`~repro.gpu.topology.DeviceGroup`.  Base tables are split into
per-device shards (:mod:`partition`), data movement between devices is
priced by exchange operators over the cost-modelled interconnect
(:mod:`exchange`), plan eligibility is decided by a small analyzer
(:mod:`planner`), and :class:`DistributedExecutor` ties it together:
partition-parallel scans for Q1/Q6-style plans, broadcast or shuffle
hash joins for Q3/Q4-style plans, chosen by cost.  Shards split the plan
and merge the partials on the host exactly as chunked scans do, through
:func:`~repro.query.chunked.split_plan` and
:func:`~repro.query.chunked.merge_partials`.
:mod:`trace` merges per-device timelines into one Chrome trace with a
process row per GPU.  Serving many queries over several devices is
:mod:`repro.cluster`'s job: one node per device, each running its own
:class:`~repro.serve.server.QueryServer`.
"""

from repro.distributed.exchange import (
    EXCHANGE_MODES,
    Broadcast,
    ExchangeChoice,
    Gather,
    Shuffle,
    choose_exchange,
    movement_matrix,
)
from repro.distributed.executor import (
    STRATEGIES,
    DistributedExecutor,
    DistributedReport,
    DistributedResult,
    ShardReport,
)
from repro.distributed.partition import (
    PARTITIONER_KINDS,
    PartitionSpec,
    ShardCatalog,
    parse_partition_spec,
    partition_indices,
    partition_table,
)
from repro.distributed.planner import (
    DistributedDecision,
    JoinExchangePlan,
    analyze,
)
from repro.distributed.trace import (
    group_chrome_trace_json,
    write_group_chrome_trace,
)

__all__ = [
    "Broadcast",
    "ExchangeChoice",
    "EXCHANGE_MODES",
    "Gather",
    "STRATEGIES",
    "Shuffle",
    "choose_exchange",
    "movement_matrix",
    "DistributedDecision",
    "DistributedExecutor",
    "DistributedReport",
    "DistributedResult",
    "JoinExchangePlan",
    "PARTITIONER_KINDS",
    "PartitionSpec",
    "ShardCatalog",
    "ShardReport",
    "analyze",
    "group_chrome_trace_json",
    "parse_partition_spec",
    "partition_indices",
    "partition_table",
    "write_group_chrome_trace",
]
