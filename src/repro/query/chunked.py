"""Partitioned execution: one plan split, one host merge, chunked scans.

Every partitioned execution in the repo — row chunks of one table on one
device, and shards on several devices (:mod:`repro.distributed`) — runs
a *partial* plan once per partition and merges the partitions' results
on the host.  :func:`split_plan` cuts a plan at its merge point and
:func:`merge_partials` combines the partials; no other code holds these
rules:

* without a top aggregation the partial is the plan itself and the
  merge concatenates rows in partition order;
* a top group-by is the merge point.  Each of its aggregates must
  combine: ``sum``/``count``/``min``/``max`` always, ``avg`` only under
  keys, recombined as a count-weighted mean (the partial appends a
  helper ``count(*)`` when the query carries none);
* ``OrderBy``/``Limit``/``TopK`` wrappers are admitted only above a
  keyed group-by: group outputs are small, so re-sorting the merged
  result on the host matches the whole-table semantics without
  re-pricing a sort of the full input.

**Chunked, double-buffered scans.**  The plain executor uploads every
scanned column in full before the first kernel runs, so a cold-cache
query pays ``T + C`` (transfer then compute) even though the two use
different hardware engines.  :func:`try_execute_chunked` splits an
eligible scan into row chunks and prices each chunk's partial on a
rotating set of asynchronous streams: chunk ``k+1``'s H2D copy overlaps
chunk ``k``'s kernels (and its D2H result copy), driving the makespan
toward the ``max(T, C)`` bound — the classic CUDA streams pattern.  A
plan is chunk-eligible when it splits and the plan below its merge point
is a ``Filter``/``Project`` chain over one scan.  With ``scan_chunks=1``
the partial, the catalog slice and therefore the exact operator sequence
equal the un-chunked path's; keyed group-bys merge on the host, so they
take the chunked path only with more than one chunk.

Chunking is also the *graceful degradation* path for memory pressure:
when a whole-table plan raises :class:`~repro.errors.DeviceMemoryError`,
:meth:`QueryExecutor.execute` retries here with a chunk count sized from
the device's remaining free bytes, so each chunk's working set fits.
Recovery (``probe_joins=True``; never on for configured chunking) also
admits a keyed group-by over a join whose one side is a plain scan
chain: the other (*build*) side runs once and lands on the host, and
each chunk joins a row slice of the probe table against a re-scan of
that build table.

Each chunk and the build side run on their own
:class:`~repro.query.runner.PipelineRunner`, which scans without any
session cache.  When the executor carries a tiered column store, each
chunk's runner receives a :class:`~repro.storage.tiered.StoreSlice` view
so scans promote only the covering compressed chunks of its row range.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.query.pipeline import output_columns
from repro.query.plan import (
    Aggregate,
    Filter,
    GroupBy,
    Join,
    Limit,
    OrderBy,
    PlanNode,
    Project,
    Scan,
    TopK,
)
from repro.query.runner import PipelineRunner
from repro.relational.column import Column
from repro.relational.table import Table, concat_tables
from repro.relational.types import ColumnType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.query.executor import ExecutionResult, QueryExecutor

#: Aggregate kinds whose per-partition partials combine associatively.
COMBINABLE_AGGREGATES = frozenset({"sum", "count", "min", "max"})

#: Name of the helper ``count(*)`` added to keyed partials so ``avg``
#: partials can be recombined as a count-weighted mean.  The merge drops
#: it.
CHUNK_COUNT_HELPER = "__chunk_rows"

#: Catalog name of the once-executed build side in probe-join chunking.
#: Leading underscores keep it clear of user/TPC-H table names.
PROBE_BUILD_TABLE = "__probe_build"


@dataclass(frozen=True)
class PlanSplit:
    """A plan cut at its merge point: what partitions run, how they merge.

    ``partial`` is the plan every partition runs.  ``group_by`` is the
    merge-point group-by as the query wrote it (None: concatenate the
    partials' rows in partition order), and ``wrappers`` are the peeled
    OrderBy/Limit/TopK nodes, outermost first.  ``reason`` says why the
    plan has no partial form at its top; it is empty when the top splits.

    The split looks only at the merge point.  The merge is right only
    when every operator below it distributes over row-unions of the
    partitioned table — with no group-by, that means a row-local chain
    (a ``Filter(GroupBy)`` HAVING, say, does not).  Callers check this:
    chunking needs a scan chain or a probe join, and sharding rejects
    plans without a top aggregation.
    """

    partial: PlanNode
    group_by: Optional[GroupBy] = None
    wrappers: Tuple[PlanNode, ...] = ()
    reason: str = ""

    @property
    def keyed(self) -> bool:
        """True when the merge point is a keyed group-by."""
        return self.group_by is not None and bool(self.group_by.keys)


def split_plan(plan: PlanNode) -> PlanSplit:
    """Cut ``plan`` into a partial plan and a host merge (module rules)."""
    wrappers: List[PlanNode] = []
    node = plan
    while isinstance(node, (OrderBy, Limit, TopK)):
        wrappers.append(node)
        node = node.child
    keyed = isinstance(node, GroupBy) and bool(node.keys)
    if wrappers and not keyed:
        below = (
            "a global aggregate" if isinstance(node, GroupBy)
            else "rows with no aggregation"
        )
        return PlanSplit(plan, reason=(
            f"OrderBy/Limit above {below}: the host re-sorts only a keyed "
            "group-by's output"
        ))
    if not isinstance(node, GroupBy):
        return PlanSplit(plan)
    for aggregate in node.aggregates:
        if aggregate.kind not in COMBINABLE_AGGREGATES and not (
            aggregate.kind == "avg" and keyed
        ):
            return PlanSplit(plan, reason=(
                f"aggregate kind {aggregate.kind!r} has no combinable "
                "partial form here"
            ))
    partial = node
    has_avg = any(a.kind == "avg" for a in node.aggregates)
    has_count = any(
        a.kind == "count" and a.expr is None for a in node.aggregates
    )
    if keyed and has_avg and not has_count:
        helper = Aggregate(name=CHUNK_COUNT_HELPER, kind="count", expr=None)
        partial = replace(node, aggregates=node.aggregates + (helper,))
    return PlanSplit(partial, node, tuple(wrappers))


def merge_partials(
    split: PlanSplit, tables: Sequence[Table], name: str
) -> Table:
    """Merge the partitions' results of ``split.partial`` on the host.

    Rows concatenate in partition order; global aggregates fold (float
    sums re-associate, as a real multi-partition reduction would); keyed
    groups merge in ascending key order and then the wrappers re-apply.
    Partials of one plan share every dictionary, so codes concatenate as
    they are.
    """
    group_by = split.group_by
    if group_by is None:
        return concat_tables(name, tables)
    if not group_by.keys:
        columns = []
        for aggregate in group_by.aggregates:
            parts = [t.column(aggregate.name) for t in tables]
            values = np.concatenate([p.data for p in parts])
            fold = {"min": np.min, "max": np.max}.get(aggregate.kind, np.sum)
            data = np.asarray([fold(values)], dtype=parts[0].data.dtype)
            columns.append(Column(aggregate.name, parts[0].ctype, data))
        return Table(name, columns)

    concat = concat_tables(name, tables)
    keys = [concat.column(k) for k in group_by.keys]
    # A stable sort by key tuple: each run of equal keys starts at that
    # key's first row, and runs come out in ascending key order — the
    # order the whole-table group-by emits.
    order = np.lexsort([key.data for key in reversed(keys)])
    sorted_keys = [key.data[order] for key in keys]
    starts = np.ones(concat.num_rows, dtype=bool)
    starts[1:] = np.any([k[1:] != k[:-1] for k in sorted_keys], axis=0)
    inverse = np.empty(concat.num_rows, dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    first_rows = order[starts]
    k = len(first_rows)

    # Per-group row counts exist only to weight avg partials; a keyed
    # partial with avg always carries a count(*), the helper if need be.
    counts = np.zeros(concat.num_rows, dtype=np.int64)
    if any(a.kind == "avg" for a in group_by.aggregates):
        count_name = next(
            a.name for a in split.partial.aggregates
            if a.kind == "count" and a.expr is None
        )
        counts = concat.column(count_name).data.astype(np.int64)
    group_counts = np.bincount(inverse, weights=counts, minlength=k)

    columns = [
        Column(key.name, key.ctype, key.data[first_rows], key.dictionary)
        for key in keys
    ]
    for aggregate in group_by.aggregates:
        part = concat.column(aggregate.name)
        values = part.data
        if aggregate.kind in ("sum", "count"):
            data = np.bincount(
                inverse, weights=values.astype(np.float64), minlength=k
            ).astype(values.dtype)
        elif aggregate.kind == "avg":
            weighted = np.bincount(
                inverse, weights=values * counts, minlength=k
            )
            data = weighted / np.maximum(group_counts, 1)
        else:  # min / max
            minimum = aggregate.kind == "min"
            data = np.full(k, np.inf if minimum else -np.inf)
            (np.minimum if minimum else np.maximum).at(data, inverse, values)
            data = data.astype(values.dtype)
        ctype = ColumnType.INT64 if aggregate.kind == "count" else part.ctype
        columns.append(Column(aggregate.name, ctype, data))
    table = Table(name, columns)

    for wrapper in reversed(split.wrappers):
        if isinstance(wrapper, Limit):
            table = table.take(np.arange(min(wrapper.n, table.num_rows)))
            continue
        rows = np.argsort(table.column(wrapper.key).data, kind="stable")
        if wrapper.descending:
            rows = rows[::-1]
        if isinstance(wrapper, TopK):
            rows = rows[: wrapper.n]
        table = table.take(rows)
    return table.rename(name)


def _scan_chain_table(node: PlanNode) -> Optional[str]:
    """Table name when ``node`` is a (Filter/Project)* chain over a Scan."""
    while isinstance(node, (Filter, Project)):
        node = node.child
    return node.table if isinstance(node, Scan) else None


def _chunk_source(
    split: PlanSplit, probe_joins: bool
) -> Tuple[Optional[str], Optional[Tuple[Join, str]]]:
    """The table to chunk and, for a probe join, the join and probe side.

    The right side is probed when both sides are scan chains (the
    conventional large fact-table position).
    """
    if split.reason:
        return None, None
    below = split.partial if split.group_by is None else split.group_by.child
    table = _scan_chain_table(below)
    if table is not None or not (probe_joins and split.keyed):
        return table, None
    while isinstance(below, (Filter, Project)):
        below = below.child
    if isinstance(below, Join):
        for side in ("right", "left"):
            table = _scan_chain_table(getattr(below, side))
            if table is not None:
                return table, (below, side)
    return None, None


def chunkable_table(
    plan: PlanNode, probe_joins: bool = False
) -> Optional[str]:
    """Name of the scanned table if ``plan`` is chunk-eligible, else None.

    ``probe_joins`` (opt-in, used by OOM recovery) additionally admits a
    keyed group-by over a join with one plain scan-chain side — the
    probe table's name is returned.
    """
    return _chunk_source(split_plan(plan), probe_joins)[0]


def chunk_bounds(num_rows: int, chunks: int) -> List[Tuple[int, int]]:
    """Split ``num_rows`` into ``chunks`` contiguous (lo, hi) ranges.

    Ranges are balanced (sizes differ by at most one row) and cover the
    table exactly.  An empty table yields one empty range so the sub-plan
    still executes once.
    """
    if chunks < 1:
        raise ValueError(f"chunk count must be >= 1: {chunks}")
    chunks = min(chunks, num_rows) if num_rows > 0 else 1
    base, extra = divmod(num_rows, chunks)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for i in range(chunks):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def slice_table(table: Table, lo: int, hi: int) -> Table:
    """Row range ``[lo, hi)`` of ``table`` as a new table.

    Dictionaries are carried over unchanged, so chunk outputs re-combine
    without re-encoding; a full-range slice reproduces the original
    column payloads byte-for-byte.
    """
    columns = [
        Column(c.name, c.ctype, c.data[lo:hi], c.dictionary) for c in table
    ]
    return Table(table.name, columns)


def _slice_store(store, table_name: str, lo: int, hi: int):
    """Store view clamping ``table_name`` fetches to ``[lo, hi)``."""
    if store is None:
        return None
    from repro.storage.tiered import StoreSlice

    return StoreSlice(store, table_name, lo, hi)


def _with_build_scan(node: PlanNode, join: Join, probe_side: str) -> PlanNode:
    """``node`` with ``join``'s build side swapped for the build table."""
    if node is join:
        build_side = "left" if probe_side == "right" else "right"
        return replace(join, **{build_side: Scan(PROBE_BUILD_TABLE)})
    return replace(node, child=_with_build_scan(node.child, join, probe_side))


def try_execute_chunked(
    executor: "QueryExecutor",
    plan: PlanNode,
    result_name: str,
    chunks: Optional[int] = None,
    probe_joins: bool = False,
) -> Optional["ExecutionResult"]:
    """Run ``plan`` chunk-by-chunk on rotating streams, or return None.

    Returns None when the plan shape is not eligible (the caller then
    falls back to whole-table execution).  ``chunks`` overrides the
    executor's configured ``scan_chunks`` — the OOM-recovery path uses it
    to size chunks from the device's free bytes, and passes
    ``probe_joins=True`` to admit the join+group-by shape (build side
    executed once, probe side sliced per chunk).  The cost report covers
    the whole pipelined execution: its ``simulated_seconds`` is the
    makespan across all engines, which is where the overlap win shows up.
    """
    from repro.query.executor import ExecutionReport, ExecutionResult

    requested = chunks if chunks is not None else (executor.scan_chunks or 1)
    split = split_plan(plan)
    table_name, probe = _chunk_source(split, probe_joins)
    if table_name is None or table_name not in executor.catalog:
        return None
    if split.keyed and requested == 1:
        # scan_chunks=1 promises the exact un-chunked operator sequence;
        # a keyed merge recombines on the host, so it needs >= 2 chunks.
        return None
    table = executor.catalog[table_name]
    bounds = chunk_bounds(table.num_rows, requested)

    device = executor.backend.device
    cursor = device.profiler.mark()
    t0 = device.clock.now
    device.memory.reset_peak()
    num_streams = max(1, executor.scan_streams)
    streams = [
        device.create_stream(f"scan-chunk-{i}") for i in range(num_streams)
    ]

    sub_plan = split.partial
    catalog = dict(executor.catalog)
    if probe is not None:
        # Execute the build side ONCE on the full catalog and land it on
        # the host; each chunk re-scans it (an honest per-chunk re-upload
        # of the — post-filter, usually small — build columns).
        join, probe_side = probe
        build_plan, build_key = (
            (join.left, join.left_on) if probe_side == "right"
            else (join.right, join.right_on)
        )
        # With nothing between the group-by and the join, the build side
        # need only carry the join key and the group-by's inputs.
        needed = None
        if split.group_by.child is join:
            available = set(output_columns(build_plan, executor.catalog))
            needed = sorted(
                set(split.group_by.required_columns()) & available
                | {build_key}
            )
        build_runner = PipelineRunner(
            executor.backend,
            executor.catalog,
            join_strategy=executor.join_strategy,
            store=executor.store,
        )
        build_relation = build_runner.run(build_plan, needed)
        catalog[PROBE_BUILD_TABLE] = build_runner.materialise(
            build_relation, PROBE_BUILD_TABLE
        )
        build_relation = None  # release the build's device handles
        sub_plan = _with_build_scan(sub_plan, join, probe_side)

    chunk_tables: List[Table] = []
    for i, (lo, hi) in enumerate(bounds):
        catalog[table_name] = slice_table(table, lo, hi)
        runner = PipelineRunner(
            executor.backend,
            catalog,
            join_strategy=executor.join_strategy,
            store=_slice_store(executor.store, table_name, lo, hi),
        )
        with device.stream_scope(streams[i % num_streams]):
            relation = runner.run(sub_plan)
            chunk_tables.append(
                runner.materialise(relation, f"{result_name}.chunk{i}")
            )
    device.synchronize()

    report = ExecutionReport(
        backend=executor.backend.name,
        simulated_seconds=device.clock.elapsed_since(t0),
        summary=device.profiler.summary(since=cursor),
        peak_device_bytes=device.memory.peak_bytes,
    )
    return ExecutionResult(
        table=merge_partials(split, chunk_tables, result_name), report=report
    )
