"""ClusterServer integration: bit-identity, failover, elasticity, SLOs.

The acceptance bar for the cluster layer:

* with tenants pinned round-robin to one to three nodes that each hold
  every shard, every node is **bit-identical** — records and profiler
  events — to a bare ``QueryServer`` over its tenants' requests;
* a seeded multi-node run is **deterministic** across fresh clusters;
* killing a node mid-run loses nothing: every issued request ends in
  exactly one final record under every scheduling policy;
* a cluster with no surviving holder for a shard **refuses** to serve
  queries needing it (typed FAILED records, not wrong answers).
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.cluster import Cluster, ClusterConfig, ClusterServer
from repro.errors import ClusterError
from repro.gpu import DeviceGroup
from repro.serve import (
    COMPLETED,
    FAILED,
    ClosedLoopWorkload,
    OpenLoopWorkload,
    QueryServer,
    QuerySpec,
)
from repro.tpch.queries import q1, q6

TENANTS = ("t0", "t1", "t2", "t3")


def _specs():
    return [
        QuerySpec("Q6", q6.plan(), weight=3.0),
        QuerySpec("Q1", q1.plan(), weight=1.0),
    ]


def _workload(num_requests=24, rate=400.0, seed=5, tenants=TENANTS):
    return OpenLoopWorkload(
        _specs(), rate=rate, num_requests=num_requests,
        tenants=tenants, seed=seed,
    )


def _cluster(framework, catalog, num_nodes, replication=2):
    return Cluster(
        num_nodes, catalog, "thrust", replication=replication,
        framework=framework,
    )


def _run(framework, catalog, num_nodes, workload=None, *, replication=2,
         kill=None, **config_kwargs):
    cluster = _cluster(framework, catalog, num_nodes, replication)
    if kill is not None:
        cluster.fail_node_at(*kill)
    config = ClusterConfig(**config_kwargs)
    with ClusterServer(cluster, config) as server:
        report = server.run(workload if workload is not None else _workload())
    return cluster, report


def _events(device):
    return [
        (e.kind, e.name, e.start, e.duration) for e in device.profiler.events
    ]


class TestBitIdentity:
    """A pinned node serving every shard IS a bare QueryServer."""

    @pytest.mark.parametrize("num_nodes", [1, 2, 3])
    @pytest.mark.parametrize(
        "num_requests,rate", [(24, 400.0), (48, 5000.0)],
        ids=["24at400", "48at5000"],
    )
    @pytest.mark.parametrize("policy", ["fifo", "sjf", "fair"])
    def test_records_and_events_match_the_bare_server(
        self, framework, tpch_catalog, policy, num_requests, rate, num_nodes
    ):
        workload = _workload(num_requests=num_requests, rate=rate)
        # Round-robin pins in order of first appearance; replication
        # equal to the node count means no node ever fetches a shard.
        pins = {}
        for request in workload.arrivals():
            pins.setdefault(request.tenant, len(pins) % num_nodes)
        cluster, report = _run(
            framework, tpch_catalog, num_nodes, workload,
            replication=num_nodes, policy=policy,
            allowed_nodes={tenant: (node,) for tenant, node in pins.items()},
        )
        config = ClusterConfig(policy=policy).server_config()
        for node in range(num_nodes):
            solo_device = DeviceGroup.of_size(1)[0]
            backend = framework.create("thrust", solo_device)
            mine = [r for r in workload.arrivals() if pins[r.tenant] == node]
            with QueryServer(backend, tpch_catalog, config) as server:
                solo = server.run(SimpleNamespace(
                    arrivals=lambda: mine, on_complete=lambda _r: None,
                ))
            ours = [r.to_json() for r in report.records if r.node == node]
            for record in solo.records:
                record.node = node  # the only field a bare server lacks
            assert ours == [r.to_json() for r in solo.records]
            # Captured after close on both sides: teardown frees match too.
            assert _events(cluster[node].lead) == _events(solo_device)
            if num_nodes == 1:
                assert json.dumps(report.metrics.to_json()) == \
                       json.dumps(solo.metrics.to_json())
        assert len(report.records) == num_requests


class TestDeterminism:
    def test_two_seeded_runs_are_identical(self, framework, tpch_catalog):
        outcomes = []
        for _ in range(2):
            _c, report = _run(
                framework, tpch_catalog, 3, policy="sjf",
            )
            outcomes.append([
                (r.seq, r.node, r.latency, r.attempts) for r in report.records
            ])
        assert outcomes[0] == outcomes[1]

    def test_different_seeds_change_the_run(self, framework, tpch_catalog):
        _c, base = _run(framework, tpch_catalog, 3, _workload(seed=5))
        _c, other = _run(framework, tpch_catalog, 3, _workload(seed=6))
        assert [r.latency for r in base.records] != \
               [r.latency for r in other.records]


class TestFailover:
    @pytest.mark.parametrize("policy", ["fifo", "sjf", "fair"])
    def test_node_kill_loses_nothing_under_every_policy(
        self, framework, tpch_catalog, policy
    ):
        # Saturating load keeps every node's queue deep, so the kill is
        # guaranteed to displace queued or in-flight work.
        heavy = dict(num_requests=24, rate=20000.0)
        _c, healthy = _run(
            framework, tpch_catalog, 3, _workload(**heavy),
            policy=policy, result_cache=False,
        )
        kill_time = healthy.metrics.makespan * 0.4
        cluster, report = _run(
            framework, tpch_catalog, 3, _workload(**heavy),
            policy=policy, result_cache=False, kill=(1, kill_time),
        )
        assert report.dead_nodes == [1]
        assert report.unreported == []
        assert report.metrics.completed == len(report.records) == 24
        assert report.metrics.failed == 0
        assert all(r.status == COMPLETED for r in report.records)
        # Nothing completed on the dead node after its death.
        for record in report.records:
            if record.node == 1:
                assert record.finished <= kill_time
        # The death actually displaced work (queued or in-flight).
        displaced = [r for r in report.records if r.failed_over]
        assert report.failovers == len(displaced)
        assert any(r.attempts > 0 or r.failed_over for r in report.records)

    def test_device_fault_fails_over_and_the_node_lives_on(
        self, framework, tpch_catalog
    ):
        cluster = _cluster(framework, tpch_catalog, 2)
        cluster[0].lead.inject_faults(transfer_fault_at=0)
        with ClusterServer(cluster, ClusterConfig()) as server:
            report = server.run(_workload())
        (event,) = [e for e in report.timeline if e["event"] == "failover"]
        (retried,) = [r for r in report.records if r.seq == event["seq"]]
        assert (event["kind"], event["node"], retried.node, retried.attempts) \
            == ("device", 0, 1, 1)
        assert report.metrics.completed == 24 and report.dead_nodes == []
        assert report.node_requests[0] > 0  # node 0 kept serving

    def test_killed_node_before_start_serves_nothing(
        self, framework, tpch_catalog
    ):
        cluster, report = _run(
            framework, tpch_catalog, 3, kill=(2, 0.0),
        )
        assert report.dead_nodes == [2]
        assert all(r.node != 2 for r in report.records)
        assert report.metrics.completed == 24
        assert report.node_requests[2] == 0

    def test_data_loss_is_refused_not_served_wrong(
        self, framework, tpch_catalog
    ):
        # Replication 1: node 1's shards have no surviving holder after
        # its death at t=0, so every lineitem query must FAIL (typed),
        # never silently run on partial data.
        cluster, report = _run(
            framework, tpch_catalog, 2, replication=1, kill=(1, 0.0),
        )
        assert report.unreported == []
        failed = [r for r in report.records if r.status == FAILED]
        assert failed, "expected typed failures on unservable shards"
        assert report.metrics.failed == len(failed)
        assert all(r.node == -1 for r in failed)

    def test_fetch_caches_die_with_the_node(self, framework, tpch_catalog):
        cluster = _cluster(framework, tpch_catalog, 2, replication=1)
        seconds, nbytes = cluster.fetch_missing(0, ["lineitem"])
        assert nbytes > 0 and seconds > 0.0
        assert cluster[0].fetched
        again = cluster.fetch_missing(0, ["lineitem"])
        assert again == (0.0, 0)  # cached — no second transfer
        cluster.fail_node_at(1, 0.0)
        with ClusterServer(cluster, ClusterConfig()) as server:
            server.run(_workload(num_requests=4))
        # Node 0 survived and keeps its cache; a fresh fetch on the dead
        # node is refused.
        assert cluster[0].fetched
        with pytest.raises(ClusterError):
            cluster.fetch_missing(1, ["lineitem"])


class TestMergedReport:
    def test_closed_loop_follow_ups_all_complete(
        self, framework, tpch_catalog
    ):
        workload = ClosedLoopWorkload(
            _specs(), num_clients=4, requests_per_client=3, seed=3
        )
        _c, report = _run(framework, tpch_catalog, 2, workload)
        assert [r.seq for r in report.records] == list(range(12))
        assert report.metrics.completed == 12
        assert report.unreported == []

    def test_cache_counters_sum_over_node_servers(
        self, framework, tpch_catalog
    ):
        cluster = _cluster(framework, tpch_catalog, 2)
        with ClusterServer(cluster, ClusterConfig()) as server:
            report = server.run(_workload())
            hits = sum(s.result_cache.hits for s in server.servers)
            misses = sum(s.result_cache.misses for s in server.servers)
        assert report.metrics.result_cache_hits == hits
        assert report.metrics.result_cache_misses == misses
        # Every node's cache starts cold: one miss per distinct plan.
        assert misses >= 2


class TestElasticity:
    def test_fixed_fleet_never_scales(self, framework, tpch_catalog):
        _c, report = _run(framework, tpch_catalog, 3)
        assert report.active_nodes == [0, 1, 2]
        assert not [
            e for e in report.timeline if e["event"].startswith("scale")
        ]

    def test_saturation_scales_up_from_one_node(
        self, framework, tpch_catalog
    ):
        _c, report = _run(
            framework, tpch_catalog, 3,
            _workload(num_requests=48, rate=20000.0),
            initial_nodes=1, result_cache=False,
        )
        ups = [e for e in report.timeline if e["event"] == "scale_up"]
        assert ups, "saturated single node never scaled up"
        assert len(report.active_nodes) > 1
        assert report.metrics.completed == 48
        assert report.unreported == []
        # Joined nodes actually served requests.
        assert sum(1 for n in report.node_requests if n > 0) > 1

    def test_idle_fleet_scales_back_down(self, framework, tpch_catalog):
        _c, report = _run(
            framework, tpch_catalog, 3,
            _workload(num_requests=36, rate=150.0),
            initial_nodes=3, scale_up_depth=1000,
        )
        downs = [e for e in report.timeline if e["event"] == "scale_down"]
        assert downs, "idle fleet never drained a node"
        assert report.metrics.completed == 36


class TestSloAccounting:
    def test_slo_block_appears_with_a_target(self, framework, tpch_catalog):
        _c, report = _run(framework, tpch_catalog, 2, slo_seconds=0.5)
        digest = report.metrics.latency
        assert digest is not None
        assert digest.slo_seconds == 0.5
        assert 0.0 <= digest.slo_attainment <= 1.0
        payload = report.metrics.to_json()
        assert payload["slo"]["target_s"] == 0.5
        assert payload["slo"]["met"] == digest.slo_met

    def test_no_slo_no_block(self, framework, tpch_catalog):
        _c, report = _run(framework, tpch_catalog, 2)
        assert "slo" not in report.metrics.to_json()


class TestPlacementConstraints:
    def test_allowed_nodes_pin_tenants(self, framework, tpch_catalog):
        _c, report = _run(
            framework, tpch_catalog, 3,
            allowed_nodes={"t0": (2,), "t1": (0, 1)},
        )
        for record in report.records:
            if record.tenant == "t0":
                assert record.node == 2
            elif record.tenant == "t1":
                assert record.node in (0, 1)
        assert report.metrics.completed == 24
