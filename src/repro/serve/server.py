"""The query server: a discrete-event multi-tenant serving loop.

:class:`QueryServer` drains a workload's request stream through one
simulated device.  Requests queue at the server; whenever a pool stream
can accept work, the scheduling policy picks the next request among
those that have arrived, admission control checks its estimated working
set against the device budget, and the request is dispatched onto the
earliest-free stream — its device work priced through
:meth:`~repro.gpu.device.Device.stream_scope` so the per-engine
timelines account each request's kernels and transfers.  That decision
is one public step, :meth:`QueryServer.serve_next`: :meth:`QueryServer.run`
drives it for a single device, and :class:`~repro.cluster.ClusterServer`
drives it on every node of a cluster.

Everything runs on the simulated clock, so the loop below is really a
discrete-event simulation: the *host* executes requests one at a time,
but their device work lands on per-stream cursors whose overlap (or
queueing) determines each request's completion time.  All tie-breaks are
by sequence number and all randomness lives in the (seeded) workload, so
a run is bit-deterministic: same workload, same config, same latencies,
same Chrome trace.

Tenancy: each tenant gets its own :class:`~repro.query.session.GpuSession`
with resident columns on the shared device.  Sessions compete for device
memory through the PR-3 pressure hooks — one tenant's upload can evict
another tenant's cold columns, never an in-flight query's pinned ones.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.backend import OperatorBackend
from repro.gpu import profiler as prof
from repro.gpu.stream import StreamPool
from repro.query.optimizer import optimize
from repro.query.plan import PlanNode
from repro.query.session import GpuSession
from repro.relational.table import Table
from repro.serve.admission import (
    ADMIT,
    SHED as SHED_DECISION,
    SHED_TO_CPU,
    WAIT,
    AdmissionController,
    estimate_working_set,
)
from repro.serve.cache import (
    PlanCache,
    ResultCache,
    plan_fingerprint,
    result_key,
    scanned_tables,
)
from repro.serve.metrics import ServeMetrics, compute_metrics
from repro.serve.request import COMPLETED, SHED, QueryRequest, RequestRecord
from repro.serve.scheduler import (
    SchedulingPolicy,
    estimate_plan_cost,
    make_policy,
)

# -- host-side cost model (simulated seconds) -------------------------------
#
# Planning is host work: it delays the request's device dispatch (via the
# stream's submission floor) without occupying any engine.  The constants
# sit between a kernel launch (~5 us) and a compile (~ms), matching the
# optimizer's lightweight rewrite passes.

#: Fixed optimizer invocation cost.
PLAN_BASE_SECONDS = 60e-6
#: Additional planning cost per plan node.
PLAN_PER_NODE_SECONDS = 15e-6
#: Plan-cache lookup charge on a hit.
PLAN_CACHE_HIT_SECONDS = 2e-6
#: Result-cache lookup + host handoff charge on a hit (no device work).
RESULT_CACHE_HIT_SECONDS = 5e-6

#: Default admission budget as a fraction of device memory: leave room
#: for the resident sets the sessions keep outside any single query.
DEFAULT_BUDGET_FRACTION = 0.8


def _count_nodes(plan: PlanNode) -> int:
    from repro.query.plan import walk

    return sum(1 for _node in walk(plan))


@dataclass
class _PlanRecord:
    """What the server derives from one submitted plan object.

    The fingerprint and scanned tables depend on the plan alone.  The
    SJF cost and the admission working set also depend on the catalog,
    so they are tagged with the ``versions`` of the scanned tables they
    were estimated against.  Holding ``plan`` keeps its ``id`` from being
    reused while the record lives.
    """

    plan: PlanNode
    fingerprint: str
    tables: Tuple[str, ...]
    versions: Optional[Tuple[int, ...]] = None
    cost: float = 0.0
    working_set: int = 0


@dataclass
class ServerConfig:
    """Knobs for one serving run (mirrors the CLI flags)."""

    policy: str = "fifo"
    num_streams: int = 2
    plan_cache: bool = True
    result_cache: bool = True
    #: Retain each request's result table on its record (oracle checks).
    keep_results: bool = False
    #: Admission budget in bytes; None = 80% of device memory.
    admission_budget_bytes: Optional[int] = None
    #: Under device-memory pressure, dispatch the request on CPU-only
    #: placement (no device memory at all) instead of waiting/shedding.
    #: The result is bit-identical — only slower (host roofline).
    shed_to_cpu: bool = False
    tenant_weights: Optional[Dict[str, float]] = None
    #: Optional compressed tiered column store
    #: (:class:`repro.storage.TieredColumnStore`); tenant sessions scan
    #: store-managed columns through the compressed tier path, and the
    #: report carries the store's tier/spill statistics.
    store: Optional[Any] = None


@dataclass
class ServeReport:
    """Outcome of one :meth:`QueryServer.run`."""

    records: List[RequestRecord]
    metrics: ServeMetrics
    #: Requests dispatched per pool stream (index = stream position).
    stream_dispatches: List[int] = field(default_factory=list)
    #: Simulated busy seconds per pool stream.
    stream_busy: List[float] = field(default_factory=list)
    #: Tiered-store statistics snapshot (None without a configured store).
    storage: Optional[Dict[str, Any]] = None


class QueryServer:
    """Serves query requests from concurrent tenants on one device."""

    def __init__(
        self,
        backend: OperatorBackend,
        catalog: Dict[str, Table],
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.backend = backend
        self.device = backend.device
        self.catalog = dict(catalog)
        self.config = config or ServerConfig()
        self.policy: SchedulingPolicy = make_policy(
            self.config.policy, self.config.tenant_weights
        )
        self.pool = StreamPool(self.device, self.config.num_streams)
        budget = self.config.admission_budget_bytes
        if budget is None:
            budget = int(
                self.device.memory.effective_capacity * DEFAULT_BUDGET_FRACTION
            )
        self.admission = AdmissionController(
            budget, shed_to_cpu=self.config.shed_to_cpu
        )
        self.plan_cache = PlanCache()
        self.result_cache = ResultCache()
        self._sessions: Dict[str, GpuSession] = {}
        self._versions: Dict[str, int] = {}
        self._served_by_tenant: Dict[str, float] = {}
        self._queue: List[QueryRequest] = []
        self._costs: Dict[int, float] = {}
        #: id(plan) -> its record, least recently used first.
        self._plan_records: "OrderedDict[int, _PlanRecord]" = OrderedDict()
        #: (finished, estimated_bytes) of dispatched device requests —
        #: "in flight" at time t means finished > t.
        self._inflight: List[Tuple[float, int]] = []
        #: Monotonic lower bound on dispatch time; raised while waiting
        #: for in-flight memory to drain.
        self._wait_floor = 0.0

    # -- tenancy & data -----------------------------------------------------

    def session(self, tenant: str) -> GpuSession:
        """The tenant's session (created on first use)."""
        session = self._sessions.get(tenant)
        if session is None:
            session = GpuSession(
                self.backend, self.catalog, store=self.config.store
            )
            self._sessions[tenant] = session
        return session

    def table_version(self, name: str) -> int:
        return self._versions.get(name, 0)

    def update_table(self, name: str, table: Table) -> None:
        """Swap in new data for a base table.

        Bumps the table's version (so every result-cache key mentioning
        it changes), eagerly invalidates stale cached results, and pushes
        the new table into each tenant session — which evicts the
        table's resident columns so later queries re-upload fresh data.
        """
        if name not in self.catalog:
            raise KeyError(f"unknown table {name!r}")
        self.catalog[name] = table
        self._versions[name] = self._versions.get(name, 0) + 1
        self.result_cache.invalidate_table(name)
        for session in self._sessions.values():
            session.replace_table(name, table)

    def drop_session(self, tenant: str) -> None:
        """Close the tenant's session; its next request starts cold."""
        session = self._sessions.pop(tenant, None)
        if session is not None:
            session.close()

    def close(self) -> None:
        """Release every tenant session's device memory."""
        for session in self._sessions.values():
            session.close()
        self._sessions.clear()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- the serving loop ---------------------------------------------------

    def run(self, workload) -> ServeReport:
        """Serve every request the workload produces; see module docs.

        ``workload`` needs two methods: ``arrivals()`` returning the
        initial :class:`QueryRequest` list, and ``on_complete(record)``
        returning a follow-up request or ``None`` (closed-loop drivers).
        """
        heap: List = []
        for request in workload.arrivals():
            heapq.heappush(heap, (request.arrival, request.seq, request))
        records: List[RequestRecord] = []
        # Every run starts idle: nothing queued or in flight, no floor.
        self.drain()
        self._inflight = []
        self._wait_floor = 0.0

        while heap or self._queue:
            if not self._queue:
                self.enqueue(heapq.heappop(heap)[-1])
            now = self.ready_at()
            while heap and heap[0][0] <= now:
                self.enqueue(heapq.heappop(heap)[-1])
            record = self.serve_next(now)
            if record is None:
                continue
            records.append(record)
            follow_up = workload.on_complete(record)
            if follow_up is not None:
                heapq.heappush(
                    heap, (follow_up.arrival, follow_up.seq, follow_up)
                )

        records.sort(key=lambda r: r.seq)
        metrics = compute_metrics(
            records,
            plan_cache_hits=self.plan_cache.hits,
            plan_cache_misses=self.plan_cache.misses,
            result_cache_hits=self.result_cache.hits,
            result_cache_misses=self.result_cache.misses,
            result_cache_invalidations=self.result_cache.invalidations,
        )
        storage: Optional[Dict[str, Any]] = None
        if self.config.store is not None:
            storage = self.config.store.snapshot_stats().as_dict()
        return ServeReport(
            records=records,
            metrics=metrics,
            stream_dispatches=list(self.pool.dispatch_counts),
            stream_busy=list(self.pool.busy_seconds),
            storage=storage,
        )

    # -- the scheduling step -----------------------------------------------

    def enqueue(self, request: QueryRequest) -> None:
        """Queue a request, priced for the scheduling policy."""
        self._costs[request.seq] = self._plan_record(request.plan).cost
        self._queue.append(request)

    def ready_at(self) -> Optional[float]:
        """When the next :meth:`serve_next` decides: the latest of a
        stream freeing up, the wait floor and the earliest queued
        arrival.  None while nothing is queued."""
        if not self._queue:
            return None
        return max(
            self.pool.earliest_available(),
            self._wait_floor,
            min(request.arrival for request in self._queue),
        )

    def depth(self, time: float) -> int:
        """Queued plus in-flight requests at ``time`` (a cluster's
        routing and elasticity load signal)."""
        return len(self._queue) + sum(
            1 for f, _b in self._inflight if f > time
        )

    def pending_cost(self) -> float:
        """Estimated cost of the queued requests (policy units)."""
        return sum(self._costs[request.seq] for request in self._queue)

    def drain(self) -> List[QueryRequest]:
        """Remove and return every queued request, in queue order."""
        queued, self._queue = self._queue, []
        self._costs.clear()
        return queued

    def serve_next(
        self,
        now: float,
        prepare: Optional[Callable[[QueryRequest], None]] = None,
    ) -> Optional[RequestRecord]:
        """One scheduling decision at ``now`` (at least :meth:`ready_at`).

        The policy picks among the requests that have arrived by
        ``now``; admission control then admits, sheds, sheds to CPU or
        waits.  Returns the request's record, or None on WAIT (the wait
        floor rises to the earliest in-flight completion and the request
        stays queued).  ``prepare(request)`` runs just before an
        admitted device dispatch.
        """
        arrived = [r for r in self._queue if r.arrival <= now]
        request = arrived[
            self.policy.choose(arrived, self._costs, self._served_by_tenant)
        ]
        plan_record = self._plan_record(request.plan)
        estimated = plan_record.working_set
        self._inflight = [(f, b) for f, b in self._inflight if f > now]
        decision = self.admission.decide(
            estimated, sum(b for _f, b in self._inflight)
        )
        if decision == WAIT:
            # Progress is guaranteed: WAIT implies something is in
            # flight, and its completion time is strictly later.
            self._wait_floor = min(f for f, _b in self._inflight)
            return None
        self._queue.remove(request)
        del self._costs[request.seq]
        if decision == SHED_DECISION:
            return RequestRecord(
                seq=request.seq, tenant=request.tenant,
                name=request.name, status=SHED,
                arrival=request.arrival, dispatched=now,
                finished=now, estimated_bytes=estimated,
            )
        if decision == SHED_TO_CPU:
            # Pressure fallback: the request runs host-only, so it holds
            # no device bytes — it never joins the in-flight set the
            # admission controller is budgeting.
            return self._dispatch(
                request, plan_record, now, estimated, cpu_only=True
            )
        assert decision == ADMIT
        if prepare is not None:
            prepare(request)
        record = self._dispatch(request, plan_record, now, estimated)
        self._inflight.append((record.finished, estimated))
        return record

    def _plan_record(self, plan: PlanNode) -> _PlanRecord:
        """The plan's record, its estimates current for the catalog.

        Keyed on the plan object's identity: clients resubmit one plan
        object per query shape, and hashing a plan tree would cost more
        than the lookup saves.  An :meth:`update_table` of a scanned
        table makes the next lookup re-estimate.  At most as many
        records as the plan cache holds plans; the least recently used
        goes first.
        """
        record = self._plan_records.get(id(plan))
        if record is None:
            record = _PlanRecord(
                plan, plan_fingerprint(plan), scanned_tables(plan)
            )
            self._plan_records[id(plan)] = record
            if len(self._plan_records) > self.plan_cache.capacity:
                self._plan_records.popitem(last=False)
        else:
            self._plan_records.move_to_end(id(plan))
        versions = tuple(self._versions.get(t, 0) for t in record.tables)
        if versions != record.versions:
            record.cost = estimate_plan_cost(plan, self.catalog)
            record.working_set = estimate_working_set(plan, self.catalog)
            record.versions = versions
        return record

    # -- dispatch path ------------------------------------------------------

    def _dispatch(
        self,
        request: QueryRequest,
        plan_record: _PlanRecord,
        start: float,
        estimated: int,
        cpu_only: bool = False,
    ) -> RequestRecord:
        """Serve one admitted request starting at simulated ``start``.

        ``cpu_only`` is the pressure-shed path: the plan runs through
        the tenant session's heterogeneous executor under forced CPU
        placement — same result tables (bit-identical oracle), host
        service time, zero device memory, no pool stream.
        """
        record = RequestRecord(
            seq=request.seq, tenant=request.tenant, name=request.name,
            status=COMPLETED, arrival=request.arrival, dispatched=start,
            estimated_bytes=estimated, shed_to_cpu=cpu_only,
        )
        fingerprint = plan_record.fingerprint

        if self.config.result_cache:
            key = result_key(
                fingerprint, self.backend.name, self._versions,
                plan_record.tables,
            )
            cached = self.result_cache.get(key)
            if cached is not None:
                record.result_cache_hit = True
                record.result_rows = cached.num_rows
                record.finished = start + RESULT_CACHE_HIT_SECONDS
                if self.config.keep_results:
                    record.table = cached
                self._finish(record, request, stream=None)
                return record

        plan, planning = self._plan(request.plan, fingerprint, record)
        record.planning_seconds = planning

        if cpu_only:
            session = self.session(request.tenant)
            result = session.execute_hybrid(
                plan, result_name=request.name, mode="cpu"
            )
            # Host execution: service time is the hetero report's
            # simulated total (all host seconds in "cpu" mode), and the
            # breakdown comes from the host device's event slice.
            record.finished = start + planning + result.report.simulated_seconds
            record.result_rows = result.table.num_rows
            record.device_breakdown = dict(
                result.report.summary.time_by_kind
            )
            if self.config.result_cache:
                self.result_cache.put(key, result.table)
            if self.config.keep_results:
                record.table = result.table
            self._finish(record, request, stream=None)
            return record

        stream = self.pool.acquire()
        record.stream_id = stream.stream_id
        stream.raise_floor(start + planning)
        mark = self.device.profiler.mark()
        session = self.session(request.tenant)
        with self.device.stream_scope(stream):
            result = session.execute(plan, result_name=request.name)
        window = self.device.profiler.window(since=mark)
        record.finished = max(stream.cursor, window.latest_end)
        record.result_rows = result.table.num_rows
        record.device_breakdown = window.time_by_kind
        if self.config.result_cache:
            self.result_cache.put(key, result.table)
        if self.config.keep_results:
            record.table = result.table
        self.pool.account(stream, record.finished - start)
        self._finish(record, request, stream=stream)
        return record

    def _plan(self, plan: PlanNode, fingerprint: str, record: RequestRecord):
        """Optimize (or recall) the plan; returns (plan, host seconds)."""
        if self.config.plan_cache:
            cached = self.plan_cache.get(fingerprint)
            if cached is not None:
                record.plan_cache_hit = True
                return cached, PLAN_CACHE_HIT_SECONDS
        optimized = optimize(plan)
        planning = PLAN_BASE_SECONDS + PLAN_PER_NODE_SECONDS * _count_nodes(
            optimized
        )
        if self.config.plan_cache:
            self.plan_cache.put(fingerprint, optimized)
        return optimized, planning

    def _finish(self, record, request, stream) -> None:
        """Shared completion bookkeeping: fairness accounting + span."""
        self._served_by_tenant[request.tenant] = (
            self._served_by_tenant.get(request.tenant, 0.0)
            + (record.finished - record.dispatched)
        )
        self.device.profiler.record(
            prof.SPAN,
            f"{request.name}#{request.seq}",
            request.arrival,
            record.finished - request.arrival,
            tenant=request.tenant,
            seq=request.seq,
            stream=stream.stream_id if stream is not None else -1,
            queue_wait=record.queue_wait,
            plan_cache_hit=record.plan_cache_hit,
            result_cache_hit=record.result_cache_hit,
        )
