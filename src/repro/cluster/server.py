"""Cluster-wide serving: routing, failover, and elastic scaling.

:class:`ClusterServer` is the coordinator over a :class:`~repro.cluster.
cluster.Cluster`: one :class:`~repro.serve.server.QueryServer` per node
(queue, scheduler, admission controller, caches, stream pool on the
node's lead device) plus a cluster-wide discrete-event loop that routes
each request to a replica, fetches missing shards over the network
fabric, and fails queries over to survivors when a node dies mid-run.

The coordinator owns no scheduling of its own.  Each iteration either
*routes* (pops arrivals/retries up to the next action time and enqueues
them on a node server) or *serves*: the node that can act earliest runs
its server's own step, :meth:`~repro.serve.server.QueryServer.serve_next`
— the same one :meth:`QueryServer.run` drives on a single device — with
the shard fetch hooked in just before an admitted dispatch.  A node
whose tenants are pinned to it (``allowed_nodes``) and that holds every
shard therefore serves exactly what a bare ``QueryServer`` serves over
those tenants' requests; the bit-identity tests pin that down, records
and profiler events, for one to three nodes.

Failover: node deaths are armed on the virtual clock
(:meth:`Cluster.fail_node_at`).  A death strikes before any routing or
serving at or after its time; queued requests on the dead node re-enter
the router, and a request whose dispatch ran past the death time is
*voided* — its record never surfaces — and retried on a surviving
replica after deterministic exponential backoff, as a typed
:class:`~repro.errors.NodeFailure`.  Device-scoped faults
(:class:`~repro.errors.DeviceError` escaping the executor's recovery)
fail over the same way without killing the node.  Every issued request
ends in exactly one final record — completed, shed, or failed — which is
the zero-lost-queries invariant the headline benchmark gates.

Elasticity: at every routing event the coordinator compares per-node
queue depths (and, when an SLO target is configured, the sliding-window
attainment) against the scale thresholds, activating the next standby
node (after a spin-up delay) or draining the highest-index idle one.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.errors import ClusterError, DeviceError, NodeFailure
from repro.serve.cache import scanned_tables
from repro.serve.metrics import ServeMetrics, compute_metrics
from repro.serve.request import FAILED, QueryRequest, RequestRecord
from repro.serve.server import QueryServer, ServerConfig

from repro.cluster.cluster import Cluster


@dataclass
class ClusterConfig:
    """Knobs for one cluster serving run (mirrors the CLI flags)."""

    # -- per-node server knobs (forwarded to each node's QueryServer) --
    policy: str = "fifo"
    num_streams: int = 2
    plan_cache: bool = True
    result_cache: bool = True
    keep_results: bool = False
    admission_budget_bytes: Optional[int] = None
    tenant_weights: Optional[Dict[str, float]] = None
    # -- failover --
    #: Dispatch retries after a node/device failure before giving up.
    max_retries: int = 3
    #: First retry delay; doubles per attempt (deterministic backoff).
    backoff_base: float = 500e-6
    # -- routing --
    #: A tenant sticks to its previous node unless that node's depth
    #: exceeds the best candidate's by more than this.
    affinity_slack: int = 2
    #: Placement constraints: tenant -> node indices it may run on.
    allowed_nodes: Optional[Dict[str, Tuple[int, ...]]] = None
    # -- elasticity --
    #: Nodes active at start; the rest are standbys that join via
    #: scale-up.  None disables elasticity: the whole fleet is active
    #: for the entire run and no scale events fire.
    initial_nodes: Optional[int] = None
    #: Scale up when every active node's depth exceeds this.
    scale_up_depth: int = 4
    #: Scale down when the highest active node idles below this.
    scale_down_depth: int = 1
    #: Minimum seconds between scale events.
    scale_cooldown: float = 2e-3
    #: Activation delay for a node joining via scale-up.
    spinup_seconds: float = 1e-3
    #: SLO target for attainment accounting (0: no SLO).
    slo_seconds: float = 0.0
    #: Scale up when sliding-window attainment drops below this.
    slo_target: float = 0.9
    #: Completed requests in the sliding attainment window.
    slo_window: int = 32

    def server_config(self) -> ServerConfig:
        """The per-node :class:`ServerConfig` these knobs imply."""
        return ServerConfig(
            policy=self.policy,
            num_streams=self.num_streams,
            plan_cache=self.plan_cache,
            result_cache=self.result_cache,
            keep_results=self.keep_results,
            admission_budget_bytes=self.admission_budget_bytes,
            tenant_weights=self.tenant_weights,
        )


@dataclass
class _NodeState:
    """Coordinator-side state of one node: elastic membership."""

    active: bool = True
    #: Spin-up end of a node that joined via scale-up.
    ready_at: float = 0.0


@dataclass
class ClusterReport:
    """Outcome of one :meth:`ClusterServer.run`."""

    records: List[RequestRecord]
    metrics: ServeMetrics
    #: Scale/kill/failover events: {"t", "event", "node", ...}.
    timeline: List[Dict[str, Any]] = field(default_factory=list)
    #: Issued seqs that never produced a final record (must be empty —
    #: the zero-lost-queries invariant).
    unreported: List[int] = field(default_factory=list)
    #: Requests that completed after at least one failover.
    failovers: int = 0
    #: Total cross-node shard-fetch traffic.
    fetch_seconds: float = 0.0
    fetch_bytes: int = 0
    #: Final requests dispatched per node.
    node_requests: List[int] = field(default_factory=list)
    #: Nodes dead at the end of the run.
    dead_nodes: List[int] = field(default_factory=list)
    #: Nodes active (taking traffic) at the end of the run.
    active_nodes: List[int] = field(default_factory=list)


class ClusterServer:
    """Coordinates a workload across the cluster's node servers."""

    def __init__(
        self, cluster: Cluster, config: Optional[ClusterConfig] = None
    ) -> None:
        self.cluster = cluster
        self.config = config or ClusterConfig()
        node_config = self.config.server_config()
        self.servers: List[QueryServer] = [
            QueryServer(
                cluster.make_backend(node.index),
                cluster.catalog,
                node_config,
            )
            for node in cluster.nodes
        ]
        self._states = [_NodeState() for _ in cluster.nodes]
        initial = self.config.initial_nodes
        if initial is not None:
            if not 1 <= initial <= len(cluster.nodes):
                raise ClusterError(
                    f"initial_nodes must be in [1, {len(cluster.nodes)}]: "
                    f"{initial}"
                )
            for state in self._states[initial:]:
                state.active = False
        self._tenant_home: Dict[str, int] = {}
        self._attempts: Dict[int, int] = {}
        self._failed_over: Set[int] = set()
        self._excluded: Dict[int, Set[int]] = {}
        self._issued: Set[int] = set()
        self._timeline: List[Dict[str, Any]] = []
        self._window: Deque[float] = deque(maxlen=self.config.slo_window)
        #: Last scale event; cooldown only gates *between* events.
        self._last_scale = float("-inf")
        self._fetch_seconds = 0.0
        self._fetch_bytes = 0

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        for server in self.servers:
            server.close()

    def __enter__(self) -> "ClusterServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- the cluster serving loop --------------------------------------------

    def run(self, workload) -> ClusterReport:
        """Serve every request the workload produces; see module docs."""
        heap: List = []
        for request in workload.arrivals():
            heapq.heappush(heap, (request.arrival, request.seq, 0, request))
            self._issued.add(request.seq)
        records: List[RequestRecord] = []

        while True:
            acting, t_serve = self._earliest_server()
            t_route = heap[0][0] if heap else None
            times = [t for t in (t_serve, t_route) if t is not None]
            if not times:
                break  # nothing left to route, nothing left to serve
            t_evt = min(times)
            # 1) Armed node deaths strike before anything else at t_evt.
            if self._kill_due(t_evt, heap, records, workload):
                continue
            # 2) Route every arrival/retry up to the action time.
            horizon = t_serve if t_serve is not None else t_route
            if t_route is not None and t_route <= horizon:
                while heap and heap[0][0] <= horizon:
                    time, _seq, _attempt, request = heapq.heappop(heap)
                    self._route(request, time, heap, records, workload)
                continue
            # 3) Serve one request on the earliest-available node.  The
            # scale check runs here too: under a burst all routing
            # happens up front, and queue pressure shows up while the
            # backlog drains, not at new arrivals.
            self._maybe_scale(t_serve)
            self._serve_one(acting, t_serve, heap, records, workload)

        records.sort(key=lambda r: r.seq)
        return self._report(records)

    def _earliest_server(self) -> Tuple[Optional[int], Optional[float]]:
        """(node, time) of the node that can act earliest, among live
        active nodes with queued work; (None, None) when none can."""
        best: Optional[Tuple[float, int]] = None
        for node, state, server in zip(
            self.cluster.nodes, self._states, self.servers
        ):
            ready = server.ready_at()
            if node.dead or not state.active or ready is None:
                continue
            t = max(ready, state.ready_at)
            if best is None or (t, node.index) < best:
                best = (t, node.index)
        if best is None:
            return None, None
        return best[1], best[0]

    # -- failure handling ----------------------------------------------------

    def _kill_due(self, time: float, heap, records, workload) -> bool:
        """Kill every node whose armed death time has passed at ``time``.
        Returns True when any node died (the loop must recompute)."""
        killed = False
        for node in self.cluster.nodes:
            if not node.dead and node.fails_by(time):
                self._kill(node.index, heap, records, workload)
                killed = True
        return killed

    def _kill(self, index: int, heap, records, workload) -> None:
        """Node death: requeue its pending work, drop its shard cache."""
        node = self.cluster.nodes[index]
        node.dead = True
        node.death_time = (
            node.fail_at if node.fail_at is not None else 0.0
        )
        node.fetched.clear()
        self._timeline.append({
            "t": node.death_time, "event": "node_killed", "node": index,
        })
        for request in self.servers[index].drain():
            self._failed_over.add(request.seq)
            heapq.heappush(heap, (
                max(node.death_time, request.arrival),
                request.seq,
                self._attempts.get(request.seq, 0),
                request,
            ))
        self.servers[index].close()

    def _fail_over(
        self, request: QueryRequest, node: int, at: float, kind: str,
        heap, records, workload,
    ) -> None:
        """Retry a failed dispatch on another replica (bounded, with
        deterministic exponential backoff), or record a FAILED outcome."""
        failure = NodeFailure(node=node, time=at, kind=kind)
        attempts = self._attempts.get(request.seq, 0) + 1
        self._attempts[request.seq] = attempts
        self._failed_over.add(request.seq)
        self._timeline.append({
            "t": at, "event": "failover", "node": node,
            "seq": request.seq, "kind": failure.kind, "attempt": attempts,
            "error": str(failure),
        })
        if attempts > self.config.max_retries:
            self._record_failed(request, at, node, heap, records, workload)
            return
        retry_at = at + self.config.backoff_base * (2 ** (attempts - 1))
        heapq.heappush(
            heap, (retry_at, request.seq, attempts, request)
        )

    def _record_failed(
        self, request: QueryRequest, at: float, node: int, heap, records,
        workload,
    ) -> None:
        record = RequestRecord(
            seq=request.seq, tenant=request.tenant, name=request.name,
            status=FAILED, arrival=request.arrival,
            dispatched=at, finished=at, node=node,
            attempts=self._attempts.get(request.seq, 0),
            failed_over=request.seq in self._failed_over,
        )
        records.append(record)
        self._follow_up(workload.on_complete(record), heap)

    def _follow_up(self, request: Optional[QueryRequest], heap) -> None:
        if request is None:
            return
        self._issued.add(request.seq)
        heapq.heappush(heap, (request.arrival, request.seq, 0, request))

    # -- routing -------------------------------------------------------------

    def _route(
        self, request: QueryRequest, time: float, heap, records, workload,
    ) -> None:
        """Place one request on a replica (load-aware, affinity-sticky)."""
        candidates = self._candidates(request, time)
        if not candidates:
            # Every replica that could serve the request is gone.
            self._record_failed(request, time, -1, heap, records, workload)
            return
        tables = scanned_tables(request.plan)
        home = self._tenant_home.get(request.tenant)
        scores = {
            i: (
                self.servers[i].depth(time),
                self.servers[i].pending_cost(),
                self.cluster.missing_bytes(i, tables),
                i,
            )
            for i in candidates
        }
        chosen = min(candidates, key=lambda i: scores[i])
        if (
            home in candidates
            and scores[home][0] <= scores[chosen][0]
            + self.config.affinity_slack
        ):
            chosen = home
        self._tenant_home[request.tenant] = chosen
        self.servers[chosen].enqueue(request)
        self._maybe_scale(time)

    def _candidates(self, request: QueryRequest, time: float) -> List[int]:
        """Nodes allowed to serve the request right now: alive, active,
        spun up, not excluded by earlier faults, placement-permitted,
        and able to obtain every shard the query scans."""
        allowed = None
        if self.config.allowed_nodes is not None:
            allowed = self.config.allowed_nodes.get(request.tenant)
        excluded = self._excluded.get(request.seq, set())
        tables = scanned_tables(request.plan)
        candidates = []
        for node, state in zip(self.cluster.nodes, self._states):
            if node.dead or node.fails_by(time) or not state.active:
                continue
            if node.index in excluded:
                continue
            if allowed is not None and node.index not in allowed:
                continue
            if not self.cluster.can_serve(node.index, tables):
                continue
            candidates.append(node.index)
        return candidates

    # -- serving -------------------------------------------------------------

    def _serve_one(
        self, acting: int, now: float, heap, records, workload,
    ) -> None:
        """One scheduling decision on one node: the node server's own
        :meth:`~repro.serve.server.QueryServer.serve_next`, with the
        shard fetch just before an admitted dispatch, device-fault
        failover and the mid-query death check around it."""
        node = self.cluster.nodes[acting]
        server = self.servers[acting]
        admitted: List[Tuple[QueryRequest, float, int]] = []

        def fetch(request: QueryRequest) -> None:
            seconds, nbytes = self.cluster.fetch_missing(
                acting, scanned_tables(request.plan)
            )
            self._fetch_seconds += seconds
            self._fetch_bytes += nbytes
            admitted.append((request, seconds, nbytes))

        try:
            record = server.serve_next(now, prepare=fetch)
        except DeviceError:
            # Device-scoped fault escaped the executor's recovery: the
            # node survives, but this request must not land there again.
            ((request, _seconds, _nbytes),) = admitted
            self._excluded.setdefault(request.seq, set()).add(acting)
            server.drop_session(request.tenant)
            detected = max(now, node.lead.clock.now)
            self._fail_over(
                request, acting, detected, "device", heap, records, workload
            )
            return
        if record is None:
            return  # admission waits for in-flight memory to drain
        if admitted:
            request, record.fetch_seconds, record.fetch_bytes = admitted[0]
            if node.fail_at is not None and record.finished > node.fail_at:
                # The node died while the query ran: the client never
                # saw this result.  Void the record, retry on a survivor.
                self._fail_over(
                    request, acting, node.fail_at, "node", heap, records,
                    workload,
                )
                self._kill_due(node.fail_at, heap, records, workload)
                return
            if record.latency > 0.0:
                self._window.append(record.latency)
        record.node = acting
        record.attempts = self._attempts.get(record.seq, 0)
        record.failed_over = record.seq in self._failed_over
        records.append(record)
        self._follow_up(workload.on_complete(record), heap)

    # -- elasticity ----------------------------------------------------------

    def _maybe_scale(self, time: float) -> None:
        """Queue-depth / SLO driven scale-up and scale-down (elastic
        mode only — fixed fleets never scale)."""
        if self.config.initial_nodes is None:
            return
        if time < self._last_scale + self.config.scale_cooldown:
            return
        active = [
            node.index
            for node, state in zip(self.cluster.nodes, self._states)
            if not node.dead and state.active
        ]
        standby = [
            node.index
            for node, state in zip(self.cluster.nodes, self._states)
            if not node.dead and not state.active
        ]
        if not active:
            return
        depths = {i: self.servers[i].depth(time) for i in active}
        if standby:
            slo_pressure = (
                self.config.slo_seconds > 0.0
                and len(self._window) == self._window.maxlen
                and (
                    sum(
                        1 for v in self._window
                        if v <= self.config.slo_seconds
                    ) / len(self._window)
                ) < self.config.slo_target
            )
            if (
                min(depths.values()) > self.config.scale_up_depth
                or slo_pressure
            ):
                joining = standby[0]
                self._states[joining].active = True
                self._states[joining].ready_at = (
                    time + self.config.spinup_seconds
                )
                self._last_scale = time
                self._timeline.append({
                    "t": time, "event": "scale_up", "node": joining,
                    "ready_at": self._states[joining].ready_at,
                })
                return
        if len(active) > 1:
            draining = active[-1]
            if (
                depths[draining] == 0
                and max(depths.values()) <= self.config.scale_down_depth
            ):
                self._states[draining].active = False
                self._last_scale = time
                self._timeline.append({
                    "t": time, "event": "scale_down", "node": draining,
                })

    # -- reporting -----------------------------------------------------------

    def _report(self, records: List[RequestRecord]) -> ClusterReport:
        # Cache counters are summed over every node, dead ones included:
        # work a node did before dying still happened.
        servers = self.servers
        metrics = compute_metrics(
            records,
            plan_cache_hits=sum(s.plan_cache.hits for s in servers),
            plan_cache_misses=sum(s.plan_cache.misses for s in servers),
            result_cache_hits=sum(s.result_cache.hits for s in servers),
            result_cache_misses=sum(s.result_cache.misses for s in servers),
            result_cache_invalidations=sum(
                s.result_cache.invalidations for s in servers
            ),
            slo_seconds=self.config.slo_seconds,
        )
        recorded = {r.seq for r in records}
        node_requests = [0] * len(self.cluster.nodes)
        for record in records:
            if record.node >= 0:
                node_requests[record.node] += 1
        return ClusterReport(
            records=records,
            metrics=metrics,
            timeline=list(self._timeline),
            unreported=sorted(self._issued - recorded),
            failovers=sum(
                1 for r in records if r.completed and r.failed_over
            ),
            fetch_seconds=self._fetch_seconds,
            fetch_bytes=self._fetch_bytes,
            node_requests=node_requests,
            dead_nodes=[n.index for n in self.cluster.nodes if n.dead],
            active_nodes=[
                node.index
                for node, state in zip(self.cluster.nodes, self._states)
                if not node.dead and state.active
            ],
        )
