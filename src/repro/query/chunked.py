"""Chunked, double-buffered scans: pipelining PCIe transfer with compute.

The plain executor uploads every scanned column in full before the first
kernel runs, so a cold-cache query pays ``T + C`` (transfer then compute)
even though the two use different hardware engines.  This module splits an
eligible scan into row chunks and prices each chunk's work on a rotating
set of asynchronous streams: chunk ``k+1``'s H2D copy overlaps chunk
``k``'s kernels (and its D2H result copy), driving the makespan toward the
``max(T, C)`` bound — the classic CUDA streams pattern.

Chunking is also the *graceful degradation* path for memory pressure:
when a whole-table plan raises :class:`~repro.errors.DeviceMemoryError`,
:meth:`QueryExecutor.execute` retries here with a chunk count sized from
the device's remaining free bytes, so each chunk's working set fits.

Eligibility is deliberately narrow, because chunks must be combinable on
the host without changing query semantics:

* the plan is a ``Scan`` followed by any chain of row-local ``Filter`` /
  ``Project`` nodes (each output row depends on exactly one input row);
* optionally one aggregation on top:

  - a *global* aggregate whose kinds all combine associatively
    (``sum``/``count``/``min``/``max``; ``avg`` only when a single chunk
    makes combination the identity), or
  - a *keyed* group-by with the same combinable kinds — here ``avg`` is
    always allowed, recombined as a count-weighted mean (a helper
    ``count(*)`` is injected into the per-chunk plan when the query does
    not already carry one);

* ``OrderBy``/``Limit`` wrappers are admitted only above a keyed
  group-by: group outputs are small, so re-sorting the combined result on
  the host matches the whole-table semantics without re-pricing a sort of
  the full input.

Anything else — joins, sorts over base tables — falls back to the
ordinary whole-table execution.  With ``scan_chunks=1`` the sub-plan, the
catalog slice, and therefore the exact operator sequence are identical to
the un-chunked path, which is what makes the serial-equivalence tests
bit-exact; keyed group-by plans therefore only take the chunked path when
more than one chunk is requested.

One *opt-in* extension widens eligibility for the OOM-recovery path
(``probe_joins=True``; never on by default, so configured scan-chunking
keeps its narrow contract): a keyed group-by over a join whose one side
is a plain (Filter/Project)* scan chain.  The other side (the *build*
side) is executed once and materialised to a host table; each chunk then
joins a row slice of the probe table against a re-scan of that build
table.  Group partials recombine exactly like the ordinary keyed path.
This is what lets Q3-class join+aggregate queries complete when even a
single side's working set exceeds device memory.

When the executor carries a tiered column store, each chunk's
sub-executor receives a :class:`~repro.storage.tiered.StoreSlice` view so
scans promote only the covering compressed chunks of its row range.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

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
from repro.relational.column import Column
from repro.relational.table import Table, concat_tables
from repro.relational.types import ColumnType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.query.executor import ExecutionResult, QueryExecutor

#: Aggregate kinds whose per-chunk partials combine associatively.
COMBINABLE_AGGREGATES = frozenset({"sum", "count", "min", "max"})

#: Name of the helper ``count(*)`` injected into per-chunk group-bys so
#: ``avg`` partials can be recombined as a count-weighted mean.  Stripped
#: from the combined output.
CHUNK_COUNT_HELPER = "__chunk_rows"


def _peel_wrappers(plan: PlanNode) -> Tuple[PlanNode, List[PlanNode]]:
    """Strip leading OrderBy/Limit/TopK nodes; returns (inner, wrappers).

    Wrappers come back outermost-first; re-apply them in reverse.  A
    ``TopK`` peels like the OrderBy→Limit pair it fuses: the host
    re-sort plus head slice reproduce its semantics exactly.
    """
    wrappers: List[PlanNode] = []
    node = plan
    while isinstance(node, (OrderBy, Limit, TopK)):
        wrappers.append(node)
        node = node.child
    return node, wrappers


def chunkable_table(
    plan: PlanNode, allow_avg: bool = False, probe_joins: bool = False
) -> Optional[str]:
    """Name of the scanned table if ``plan`` is chunk-eligible, else None.

    ``allow_avg`` admits ``avg`` aggregates in *global* aggregations
    (valid only when a single chunk makes the combine step the identity);
    keyed group-bys may always carry ``avg``.  ``probe_joins`` (opt-in,
    used by OOM recovery) additionally admits a keyed group-by over a
    join with one plain scan-chain side — the probe table's name is
    returned.
    """
    node, wrappers = _peel_wrappers(plan)
    if wrappers and not (isinstance(node, GroupBy) and node.keys):
        # Host re-sorting is only sound for small grouped outputs.
        return None
    if isinstance(node, GroupBy):
        keyed = bool(node.keys)
        for aggregate in node.aggregates:
            if aggregate.kind in COMBINABLE_AGGREGATES:
                continue
            if aggregate.kind == "avg" and (keyed or allow_avg):
                continue
            return None
        node = node.child
    while isinstance(node, (Filter, Project)):
        node = node.child
    if isinstance(node, Scan):
        return node.table
    if probe_joins:
        parts = _probe_join_parts(plan)
        if parts is not None:
            return parts.probe_table
    return None


class _ProbeJoinParts:
    """Decomposition of a chunkable join+group-by plan (probe mode)."""

    def __init__(
        self,
        inner: GroupBy,
        mid: List[PlanNode],
        join: Join,
        probe_side: str,
        probe_table: str,
    ) -> None:
        self.inner = inner
        self.mid = mid  # Filter/Project chain between group-by and join
        self.join = join
        self.probe_side = probe_side  # "left" | "right"
        self.probe_table = probe_table

    @property
    def build_plan(self) -> PlanNode:
        return self.join.right if self.probe_side == "left" else self.join.left

    @property
    def build_key(self) -> str:
        return (
            self.join.right_on if self.probe_side == "left"
            else self.join.left_on
        )


def _scan_chain_table(node: PlanNode) -> Optional[str]:
    """Table name when ``node`` is a (Filter/Project)* chain over a Scan."""
    while isinstance(node, (Filter, Project)):
        node = node.child
    return node.table if isinstance(node, Scan) else None


def _probe_join_parts(plan: PlanNode) -> Optional[_ProbeJoinParts]:
    """Decompose ``plan`` for probe-side join chunking, or return None.

    Eligible shape: wrappers* over a keyed GroupBy with combinable (or
    ``avg``) aggregates, over a (Filter/Project)* chain, over a Join
    with at least one (Filter/Project)*Scan side.  When both sides
    qualify the *right* side is probed (the conventional large fact-table
    position); the other side becomes the build input, executed once.
    """
    node, _wrappers = _peel_wrappers(plan)
    if not (isinstance(node, GroupBy) and node.keys):
        return None
    for aggregate in node.aggregates:
        if aggregate.kind not in COMBINABLE_AGGREGATES | {"avg"}:
            return None
    inner = node
    mid: List[PlanNode] = []
    node = node.child
    while isinstance(node, (Filter, Project)):
        mid.append(node)
        node = node.child
    if not isinstance(node, Join):
        return None
    right_table = _scan_chain_table(node.right)
    if right_table is not None:
        return _ProbeJoinParts(inner, mid, node, "right", right_table)
    left_table = _scan_chain_table(node.left)
    if left_table is not None:
        return _ProbeJoinParts(inner, mid, node, "left", left_table)
    return None


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


def _chunk_plan(inner: PlanNode) -> PlanNode:
    """The plan each chunk actually runs.

    Equal to ``inner`` except when a keyed group-by carries ``avg``
    without a plain ``count(*)``: then a helper count is appended so the
    combine step can weight the per-chunk means.
    """
    if not (isinstance(inner, GroupBy) and inner.keys):
        return inner
    has_avg = any(a.kind == "avg" for a in inner.aggregates)
    has_count = any(
        a.kind == "count" and a.expr is None for a in inner.aggregates
    )
    if not has_avg or has_count:
        return inner
    helper = Aggregate(name=CHUNK_COUNT_HELPER, kind="count", expr=None)
    return replace(inner, aggregates=inner.aggregates + (helper,))


#: Catalog name of the once-executed build side in probe-join chunking.
#: Leading underscores keep it clear of user/TPC-H table names.
PROBE_BUILD_TABLE = "__probe_build"


def _slice_store(store, table_name: str, lo: int, hi: int):
    """Store view clamping ``table_name`` fetches to ``[lo, hi)``."""
    if store is None:
        return None
    from repro.storage.tiered import StoreSlice

    return StoreSlice(store, table_name, lo, hi)


def _probe_sub_plan(probe: _ProbeJoinParts, build_name: str) -> PlanNode:
    """The per-chunk plan: the join's build side swapped for a scan of
    the materialised build table, avg helper injected as usual."""
    if probe.probe_side == "right":
        join: PlanNode = replace(probe.join, left=Scan(build_name))
    else:
        join = replace(probe.join, right=Scan(build_name))
    node = join
    for mid_node in reversed(probe.mid):
        node = replace(mid_node, child=node)
    return replace(_chunk_plan(probe.inner), child=node)


def _build_needed(
    executor: "QueryExecutor", probe: _ProbeJoinParts
) -> Optional[List[str]]:
    """Columns the build side must materialise (None = all).

    With no nodes between the group-by and the join, only the join key
    plus the group-by's requirements that come from the build side are
    needed; an intervening Filter/Project makes the analysis non-local,
    so everything is kept.
    """
    if probe.mid:
        return None
    available = set(output_columns(probe.build_plan, executor.catalog))
    needed = set(probe.inner.required_columns()) & available
    needed.add(probe.build_key)
    return sorted(needed)


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
    from repro.query.compiled import PipelineRunner
    from repro.query.executor import ExecutionReport, ExecutionResult, QueryExecutor

    requested = chunks if chunks is not None else (executor.scan_chunks or 1)
    table_name = chunkable_table(plan, allow_avg=requested == 1)
    probe: Optional[_ProbeJoinParts] = None
    if table_name is None and probe_joins:
        probe = _probe_join_parts(plan)
        if probe is not None:
            table_name = probe.probe_table
    if table_name is None or table_name not in executor.catalog:
        return None
    inner, wrappers = _peel_wrappers(plan)
    keyed = isinstance(inner, GroupBy) and bool(inner.keys)
    if (keyed or probe is not None) and requested == 1:
        # scan_chunks=1 promises the exact un-chunked operator sequence;
        # these paths recombine on the host, so they need >= 2 chunks.
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

    build_table: Optional[Table] = None
    if probe is not None:
        # Execute the build side ONCE on the full catalog and land it on
        # the host; each chunk re-scans it (an honest per-chunk re-upload
        # of the — post-filter, usually small — build columns).
        build_exec = QueryExecutor(
            executor.backend,
            executor.catalog,
            join_strategy=executor.join_strategy,
            store=executor.store,
        )
        build_relation = PipelineRunner(build_exec).run(
            probe.build_plan, _build_needed(executor, probe)
        )
        build_table = build_exec.materialise(build_relation, PROBE_BUILD_TABLE)
        build_relation = None  # release the build's device handles
        sub_plan: PlanNode = _probe_sub_plan(probe, PROBE_BUILD_TABLE)
    else:
        sub_plan = _chunk_plan(inner) if keyed else plan

    chunk_tables: List[Table] = []
    for i, (lo, hi) in enumerate(bounds):
        catalog = dict(executor.catalog)
        catalog[table_name] = slice_table(table, lo, hi)
        if build_table is not None:
            catalog[PROBE_BUILD_TABLE] = build_table
        sub = QueryExecutor(
            executor.backend,
            catalog,
            join_strategy=executor.join_strategy,
            store=_slice_store(executor.store, table_name, lo, hi),
        )
        with device.stream_scope(streams[i % num_streams]):
            relation = PipelineRunner(sub).run(sub_plan)
            chunk_tables.append(
                sub.materialise(relation, f"{result_name}.chunk{i}")
            )
    device.synchronize()

    if keyed:
        combined = _combine_keyed_groups(inner, chunk_tables, result_name)
        combined = _apply_wrappers(combined, wrappers, result_name)
    else:
        combined = _combine_chunks(plan, chunk_tables, result_name)
    report = ExecutionReport(
        backend=executor.backend.name,
        simulated_seconds=device.clock.elapsed_since(t0),
        summary=device.profiler.summary(since=cursor),
        peak_device_bytes=device.memory.peak_bytes,
    )
    return ExecutionResult(table=combined, report=report)


def _combine_chunks(
    plan: PlanNode, tables: List[Table], result_name: str
) -> Table:
    """Merge per-chunk outputs back into one result table."""
    if len(tables) == 1:
        return tables[0].rename(result_name)
    if isinstance(plan, GroupBy):
        return _combine_aggregates(plan, tables, result_name)
    return concat_tables(result_name, tables)


def _combine_aggregates(
    plan: GroupBy, tables: List[Table], result_name: str
) -> Table:
    """Fold per-chunk global-aggregate rows into the final single row.

    ``sum`` and ``count`` partials add; ``min``/``max`` partials reduce
    with the same comparator.  Chunked float sums round differently from a
    single whole-table reduction (float addition is not associative), the
    same way a real multi-stream reduction would.
    """
    columns: List[Column] = []
    for aggregate in plan.aggregates:
        parts = [t.column(aggregate.name) for t in tables]
        values = np.concatenate([p.data for p in parts])
        if aggregate.kind in ("sum", "count"):
            value = values.sum()
        elif aggregate.kind == "min":
            value = values.min()
        else:  # max (avg never reaches here: it requires a single chunk)
            value = values.max()
        data = np.asarray([value], dtype=parts[0].data.dtype)
        columns.append(Column(aggregate.name, parts[0].ctype, data))
    return Table(result_name, columns)


def _combine_keyed_groups(
    plan: GroupBy, tables: List[Table], result_name: str
) -> Table:
    """Merge per-chunk keyed group-by outputs into one grouped table.

    Groups are matched by key tuple across chunks and emitted in
    ascending key order — the same order the whole-table path produces
    (``np.unique`` over the composite key is ascending, and the composite
    encoding is monotone in the key tuple).  ``avg`` partials recombine
    as a count-weighted mean, so the result matches the whole-table value
    up to float round-off.
    """
    keys = list(plan.keys)
    concat = concat_tables(result_name, tables)
    key_data = [concat.column(k).data for k in keys]
    # Per-group row counts exist only to weight avg partials; plans
    # without avg need no count column at all.
    has_avg = any(a.kind == "avg" for a in plan.aggregates)
    counts = np.zeros(concat.num_rows, dtype=np.int64)
    if has_avg:
        count_name = next(
            (
                a.name for a in plan.aggregates
                if a.kind == "count" and a.expr is None
            ),
            CHUNK_COUNT_HELPER,
        )
        counts = concat.column(count_name).data.astype(np.int64)

    # Group chunk rows by key tuple; order[i] is the i-th distinct tuple
    # in ascending order.
    row_keys = list(zip(*(arr.tolist() for arr in key_data)))
    order = sorted(set(row_keys))
    index = {key: i for i, key in enumerate(order)}
    inverse = np.asarray([index[key] for key in row_keys], dtype=np.int64)
    k = len(order)
    group_counts = np.bincount(inverse, weights=counts, minlength=k)

    columns: List[Column] = []
    for name, arr in zip(keys, key_data):
        source = concat.column(name)
        first_rows = np.asarray(
            [row_keys.index(key) for key in order], dtype=np.int64
        )
        columns.append(
            Column(name, source.ctype, arr[first_rows], source.dictionary)
        )
    for aggregate in plan.aggregates:
        if aggregate.name == CHUNK_COUNT_HELPER:
            continue
        part = concat.column(aggregate.name)
        values = part.data
        if aggregate.kind in ("sum", "count"):
            data = np.bincount(
                inverse, weights=values.astype(np.float64), minlength=k
            ).astype(part.data.dtype)
        elif aggregate.kind == "avg":
            weighted = np.bincount(
                inverse, weights=values * counts, minlength=k
            )
            data = weighted / np.maximum(group_counts, 1)
        elif aggregate.kind == "min":
            data = np.full(k, np.inf)
            np.minimum.at(data, inverse, values)
            data = data.astype(part.data.dtype)
        else:  # max
            data = np.full(k, -np.inf)
            np.maximum.at(data, inverse, values)
            data = data.astype(part.data.dtype)
        ctype = ColumnType.INT64 if aggregate.kind == "count" else part.ctype
        columns.append(Column(aggregate.name, ctype, data))
    return Table(result_name, columns)


def _apply_wrappers(
    table: Table, wrappers: List[PlanNode], result_name: str
) -> Table:
    """Re-apply peeled OrderBy/Limit/TopK nodes to the combined table."""
    for wrapper in reversed(wrappers):
        if isinstance(wrapper, (OrderBy, TopK)):
            order = np.argsort(table.column(wrapper.key).data, kind="stable")
            if wrapper.descending:
                order = order[::-1]
            if isinstance(wrapper, TopK):
                order = order[: min(wrapper.n, table.num_rows)]
            table = table.take(order)
        else:  # Limit
            n = min(wrapper.n, table.num_rows)  # type: ignore[union-attr]
            table = table.take(np.arange(n))
    return table.rename(result_name)
