"""Fig. cluster (new) — multi-node serving: failover and elasticity.

Two experiments on the ``repro.cluster`` layer, both bit-deterministic
(seeded workloads on the simulated clock, NETWORK-tier fabric between
nodes):

* **failover** — a seeded open-loop mix (Q6/Q1/Q3/Q4) replayed twice on
  a 4-node, replication-2 cluster: once healthy, once with node 1 killed
  30% into the healthy run's makespan.  Queries in flight on the dead
  node fail over to surviving replicas with deterministic backoff.
  Asserted: every request completes (zero failed, zero lost-and-
  unreported), at least one failover actually happened, every completed
  result is bit-identical to the single-device NumPy-free oracle
  (``QueryExecutor`` on a fresh device), and the failure run's p99 stays
  within 2x the healthy p99.
* **elasticity** — the same mix on 1 fixed node vs 4 fixed nodes
  (saturated: arrival rate well past single-node capacity, result cache
  off so every request does device work), asserting >= 1.5x throughput
  from scale-out; plus an elastic run starting at 1 active node with
  queue-depth-driven scale-up, asserting the cluster actually grew and
  beat the single node.

Run directly with ``--smoke`` for the CI smoke job: a smaller replay of
both scenarios that writes ``benchmarks/out/fig_cluster_smoke.json``
with the floor rows it enforces.
"""


from common import finish_smoke, out_dir, smoke_main
from repro.bench import write_report
from repro.cluster import Cluster, ClusterConfig, ClusterServer
from repro.core import default_framework
from repro.gpu import GTX_1080TI, Device
from repro.query import QueryExecutor
from repro.serve import OpenLoopWorkload, QuerySpec
from repro.tpch import TpchGenerator
from repro.tpch.queries import q1, q3, q4, q6

SCALE_FACTOR = 0.01
CATALOG_SEED = 7
WORKLOAD_SEED = 11

NUM_REQUESTS = 200
#: Arrival rate, well past single-node capacity (~4k req/s at SF 0.01)
#: so the 1-node baseline is queue-bound and scale-out pays.
ARRIVAL_RATE = 20000.0
TENANTS = ("tenant-0", "tenant-1", "tenant-2", "tenant-3")

NODES = 4
REPLICATION = 2
#: Node killed mid-run and where in the healthy makespan it dies.
KILLED_NODE = 1
KILL_FRACTION = 0.3

#: Acceptance floors, asserted by the full runs and the smoke.
P99_RATIO_CEILING = 2.0
SCALEOUT_FLOOR = 1.5


def _catalog(scale_factor=SCALE_FACTOR):
    return TpchGenerator(
        scale_factor=scale_factor, seed=CATALOG_SEED
    ).generate()


def _specs(catalog):
    return [
        QuerySpec("Q6", q6.plan()),
        QuerySpec("Q1", q1.plan()),
        QuerySpec("Q3", q3.plan(catalog)),
        QuerySpec("Q4", q4.plan()),
    ]


def _workload(catalog, num_requests=NUM_REQUESTS, rate=ARRIVAL_RATE):
    return OpenLoopWorkload(
        _specs(catalog), rate=rate, num_requests=num_requests,
        tenants=TENANTS, seed=WORKLOAD_SEED,
    )


def _config(**kwargs):
    kwargs.setdefault("policy", "sjf")
    kwargs.setdefault("result_cache", False)
    return ClusterConfig(**kwargs)


def _run(catalog, num_nodes, workload, *, replication=REPLICATION,
         kill=None, **config_kwargs):
    cluster = Cluster(
        num_nodes, catalog, "handwritten", replication=replication,
        framework=default_framework(),
    )
    if kill is not None:
        cluster.fail_node_at(*kill)
    with ClusterServer(cluster, _config(**config_kwargs)) as server:
        return server.run(workload)


def _oracle_tables(catalog):
    """Ground-truth result per query shape, on a fresh single device."""
    device = Device(GTX_1080TI, allocator="pool")
    backend = default_framework().create("handwritten", device)
    executor = QueryExecutor(backend, catalog)
    return {
        spec.name: executor.execute(spec.plan).table
        for spec in _specs(catalog)
    }


def _oracle_matches(records, oracles):
    """True when every completed result table equals its oracle."""
    done = [r for r in records if r.completed]
    return bool(done) and all(
        r.table is not None and r.table.equals(oracles[r.name])
        for r in done
    )


def _failover_pair(catalog, num_requests=NUM_REQUESTS, rate=ARRIVAL_RATE):
    """(healthy report, failure report, kill time) on the same workload."""
    healthy = _run(catalog, NODES, _workload(catalog, num_requests, rate))
    kill_time = healthy.metrics.makespan * KILL_FRACTION
    failure = _run(
        catalog, NODES, _workload(catalog, num_requests, rate),
        kill=(KILLED_NODE, kill_time), keep_results=True,
    )
    return healthy, failure, kill_time


def test_fig_cluster_failover(benchmark):
    catalog = _catalog()

    def scenario():
        return _failover_pair(catalog)

    healthy, failure, kill_time = benchmark.pedantic(
        scenario, rounds=1, iterations=1, warmup_rounds=0
    )
    ratio = failure.metrics.p99_latency / healthy.metrics.p99_latency
    oracle_ok = _oracle_matches(failure.records, _oracle_tables(catalog))
    lines = [
        "== Fig. cluster-failover: node kill mid-run on a 4-node, "
        f"replication-{REPLICATION} cluster ({NUM_REQUESTS} requests, "
        f"Q6/Q1/Q3/Q4, sjf, handwritten) ==",
        f"{'run':>9}  {'thr/s':>8}  {'p50 ms':>8}  {'p99 ms':>8}  "
        f"{'done':>5}  {'failed':>6}",
    ]
    for label, report in (("healthy", healthy), ("node-kill", failure)):
        m = report.metrics
        lines.append(
            f"{label:>9}  {m.throughput:8.0f}  {m.p50_latency * 1e3:8.3f}  "
            f"{m.p99_latency * 1e3:8.3f}  {m.completed:5d}  {m.failed:6d}"
        )
    lines.append(
        f"-- killed node {KILLED_NODE} at {kill_time * 1e3:.3f} ms: "
        f"{failure.failovers} failovers, p99 ratio {ratio:.2f}x "
        f"(ceiling {P99_RATIO_CEILING:.1f}x), oracle "
        f"{'bit-identical' if oracle_ok else 'DIVERGED'} --"
    )
    text = "\n".join(lines)
    print("\n" + text)
    write_report("fig_cluster_failover", text, directory=out_dir())

    # Acceptance: nothing lost, nothing silently dropped, real failovers.
    assert failure.metrics.completed == NUM_REQUESTS
    assert failure.metrics.failed == 0
    assert failure.unreported == []
    assert failure.failovers >= 1
    assert KILLED_NODE in failure.dead_nodes
    # Completed results stay bit-identical to the single-device oracle.
    assert oracle_ok
    # Tail under failure stays within the ceiling of the healthy tail.
    assert ratio <= P99_RATIO_CEILING, ratio


def test_fig_cluster_elastic_scaleout(benchmark):
    catalog = _catalog()

    def scenario():
        one = _run(
            catalog, 1, _workload(catalog), replication=1
        )
        four = _run(catalog, NODES, _workload(catalog))
        elastic = _run(
            catalog, NODES, _workload(catalog), initial_nodes=1
        )
        return one, four, elastic

    one, four, elastic = benchmark.pedantic(
        scenario, rounds=1, iterations=1, warmup_rounds=0
    )
    speedup = four.metrics.throughput / one.metrics.throughput
    elastic_gain = elastic.metrics.throughput / one.metrics.throughput
    scale_events = [
        (entry["event"], entry["node"]) for entry in elastic.timeline
        if entry["event"].startswith("scale")
    ]
    lines = [
        "== Fig. cluster-elastic: saturated scale-out "
        f"({ARRIVAL_RATE:.0f} req/s offered, {NUM_REQUESTS} requests, "
        "result cache off) ==",
        f"{'fleet':>12}  {'thr/s':>8}  {'p99 ms':>8}  {'requests/node':>24}",
    ]
    for label, report in (
        ("1 fixed", one), (f"{NODES} fixed", four), ("elastic 1->", elastic)
    ):
        m = report.metrics
        lines.append(
            f"{label:>12}  {m.throughput:8.0f}  "
            f"{m.p99_latency * 1e3:8.3f}  {str(report.node_requests):>24}"
        )
    lines.append(
        f"-- scale-out {speedup:.2f}x (floor {SCALEOUT_FLOOR:.1f}x); "
        f"elastic grew to {len(elastic.active_nodes)} nodes "
        f"({elastic_gain:.2f}x over 1 fixed) via {scale_events} --"
    )
    text = "\n".join(lines)
    print("\n" + text)
    write_report("fig_cluster_elastic", text, directory=out_dir())

    # Acceptance: saturated throughput scales >= 1.5x from 1 -> 4 nodes.
    assert speedup >= SCALEOUT_FLOOR, speedup
    # The elastic fleet actually grew and beat the single node.
    assert len(elastic.active_nodes) > 1, elastic.active_nodes
    assert any(event == "scale_up" for event, _node in scale_events)
    assert elastic_gain > 1.0, elastic_gain
    # Every fleet completes the full workload.
    for report in (one, four, elastic):
        assert report.metrics.completed == NUM_REQUESTS
        assert report.unreported == []


#: Smoke scale: smaller catalog and workload, same floors.
SMOKE_SCALE_FACTOR = 0.004
SMOKE_REQUESTS = 96
SMOKE_RATE = 20000.0


def _floors(payload):
    """Nothing lost under the node kill; saturated scale-out pays."""
    failover, elastic = payload["failover"], payload["elastic"]
    return [
        (
            "completed under node kill", failover["completed"], "==",
            failover["total"],
        ),
        ("requests out of failover retries", failover["failed"], "==", 0),
        ("requests lost and unreported", failover["unreported"], "==", 0),
        ("failovers", failover["failovers"], ">=", 1),
        ("failover oracle match", failover["oracle_matches"], "==", True),
        (
            "failure p99 / healthy p99", failover["ratio"], "<=",
            P99_RATIO_CEILING,
        ),
        (
            f"saturated scale-out to {elastic['nodes']} nodes",
            elastic["speedup"], ">=", SCALEOUT_FLOOR,
        ),
        ("elastic scale-ups", elastic["scale_events"].count("scale_up"), ">=", 1),
    ]


def _smoke() -> int:
    """CI smoke: both scenarios at smoke scale, floors enforced."""
    catalog = _catalog(SMOKE_SCALE_FACTOR)
    one = _run(
        catalog, 1, _workload(catalog, SMOKE_REQUESTS, SMOKE_RATE),
        replication=1,
    )
    four = _run(catalog, NODES, _workload(catalog, SMOKE_REQUESTS, SMOKE_RATE))
    elastic = _run(
        catalog, NODES, _workload(catalog, SMOKE_REQUESTS, SMOKE_RATE),
        initial_nodes=1,
    )
    kill_time = four.metrics.makespan * KILL_FRACTION
    failure = _run(
        catalog, NODES, _workload(catalog, SMOKE_REQUESTS, SMOKE_RATE),
        kill=(KILLED_NODE, kill_time), keep_results=True,
    )
    oracle_ok = _oracle_matches(failure.records, _oracle_tables(catalog))
    speedup = four.metrics.throughput / one.metrics.throughput
    ratio = failure.metrics.p99_latency / four.metrics.p99_latency
    payload = {
        "failover": {
            "healthy_p99_s": four.metrics.p99_latency,
            "failure_p99_s": failure.metrics.p99_latency,
            "ratio": ratio,
            "total": failure.metrics.total_requests,
            "completed": failure.metrics.completed,
            "failed": failure.metrics.failed,
            "unreported": len(failure.unreported),
            "failovers": failure.failovers,
            "oracle_matches": oracle_ok,
            "killed_node": KILLED_NODE,
            "kill_time_s": kill_time,
        },
        "elastic": {
            "throughput_1": one.metrics.throughput,
            "throughput_n": four.metrics.throughput,
            "nodes": NODES,
            "speedup": speedup,
            "elastic_throughput": elastic.metrics.throughput,
            "scale_events": [
                entry["event"] for entry in elastic.timeline
                if entry["event"].startswith("scale")
            ],
        },
    }
    print(
        f"cluster smoke: {failure.metrics.completed} completed under "
        f"node kill ({failure.failovers} failovers, p99 ratio "
        f"{ratio:.2f}x), scale-out {speedup:.2f}x"
    )
    return finish_smoke("fig_cluster_smoke.json", payload, _floors(payload))


if __name__ == "__main__":
    smoke_main(lambda args: _smoke(), doc=__doc__)
