"""The cluster: N device-group nodes joined by a network fabric.

A :class:`Cluster` is the topology level above
:class:`~repro.gpu.topology.DeviceGroup`: each :class:`ClusterNode` wraps
a one-device group whose device (the node's lead) runs the node's
server, and the nodes are joined by a
:class:`~repro.gpu.topology.NetworkFabric` — the NETWORK
link tier, priced above NVLink/PCIe/NVMe, with per-pair channel and
per-node NIC contention and NET profiler events on both endpoints.

Shard placement comes from :class:`~repro.cluster.placement.ClusterShardCatalog`.
Replication is priced, not copied: every node executes against the full
host catalog, but before a query runs, its coordinator node must *hold*
every shard of the tables it scans — shards it neither hosts nor has
cached are fetched from the lowest-index surviving holder over the
fabric (:meth:`Cluster.fetch_missing`), the cross-node leg of the
exchange layer.  Fetched shards are cached per node; the cache dies
with the node.

Failure injection mirrors :meth:`~repro.gpu.device.Device.inject_faults`
at node scope: :meth:`Cluster.fail_node_at` arms a deterministic death
time on the virtual clock, and the serving layer kills the node — and
fails queries over to surviving replicas — when the clock reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.backend import OperatorBackend
from repro.core.framework import GpuOperatorFramework, default_framework
from repro.errors import ClusterError
from repro.gpu.device import GTX_1080TI, Device, DeviceSpec
from repro.gpu.topology import DeviceGroup, NetworkFabric
from repro.gpu.transfer import DATACENTER_NET, LinkSpec
from repro.relational.table import Table

from repro.cluster.placement import ClusterShardCatalog


@dataclass
class ClusterNode:
    """One node: a device group, its liveness state, and its shard cache."""

    index: int
    group: DeviceGroup
    #: Armed death time on the virtual clock (None: never fails).
    fail_at: Optional[float] = None
    dead: bool = False
    death_time: float = 0.0
    #: (table, shard) pairs fetched over the network and kept locally.
    fetched: Set[Tuple[str, int]] = field(default_factory=set)

    @property
    def lead(self) -> Device:
        """The device the node's serving loop runs on."""
        return self.group[0]

    def fails_by(self, time: float) -> bool:
        """True when the node's armed death time has passed at ``time``."""
        return self.fail_at is not None and self.fail_at <= time


class Cluster:
    """N device-group nodes, a network fabric, and a shard placement."""

    def __init__(
        self,
        num_nodes: int,
        catalog: Dict[str, Table],
        backend_name: str = "handwritten",
        *,
        allocator: str = "null",
        device_spec: DeviceSpec = GTX_1080TI,
        replication: int = 2,
        placement: Optional[ClusterShardCatalog] = None,
        link: LinkSpec = DATACENTER_NET,
        framework: Optional[GpuOperatorFramework] = None,
    ) -> None:
        if num_nodes < 1:
            raise ClusterError(f"node count must be >= 1: {num_nodes}")
        self.catalog = dict(catalog)
        self.backend_name = backend_name
        self.framework = (
            framework if framework is not None else default_framework()
        )
        self.nodes: List[ClusterNode] = [
            ClusterNode(index=i, group=DeviceGroup.of_size(
                1, device_spec, allocator=allocator,
            ))
            for i in range(num_nodes)
        ]
        self.fabric = NetworkFabric(
            [node.group for node in self.nodes], link=link
        )
        self.placement = (
            placement
            if placement is not None
            else ClusterShardCatalog(
                self.catalog, num_nodes, replication=replication
            )
        )
        if self.placement.num_nodes != num_nodes:
            raise ClusterError(
                f"placement spans {self.placement.num_nodes} nodes, "
                f"cluster has {num_nodes}"
            )

    def __len__(self) -> int:
        return len(self.nodes)

    def __getitem__(self, index: int) -> ClusterNode:
        return self.nodes[index]

    def make_backend(self, node: int) -> OperatorBackend:
        """A backend instance on the node's lead device."""
        return self.framework.create(self.backend_name, self.nodes[node].lead)

    # -- failure surface -----------------------------------------------------

    def fail_node_at(self, node: int, time: float) -> None:
        """Arm a deterministic node death at virtual-clock ``time``."""
        if time < 0.0:
            raise ClusterError(f"failure time cannot be negative: {time}")
        self.nodes[node].fail_at = time

    def alive(self) -> List[int]:
        """Indices of nodes not yet killed."""
        return [node.index for node in self.nodes if not node.dead]

    # -- cross-node shard movement (the network leg of the exchange) ---------

    def alive_holders(self, table: str, shard: int) -> List[int]:
        """Surviving nodes holding a copy of the shard (primary first)."""
        return [
            h for h in self.placement.holders(table, shard)
            if not self.nodes[h].dead
        ]

    def missing_bytes(self, node: int, tables: Iterable[str]) -> int:
        """Bytes ``node`` would fetch to coordinate a query over
        ``tables`` (the routing cost model's network term)."""
        return sum(
            p.nbytes
            for p in self.placement.missing_for(
                node, tables, self.nodes[node].fetched
            )
        )

    def fetch_missing(
        self, node: int, tables: Iterable[str]
    ) -> Tuple[float, int]:
        """Pull every missing shard of ``tables`` to ``node``.

        Each shard moves from its lowest-index surviving holder over the
        fabric (NET events on both leads, NIC + channel contention), then
        joins the node's local cache.  Returns (network seconds, bytes).
        Raises :class:`ClusterError` when a shard has no surviving holder
        — data loss the router should have refused to serve.
        """
        target = self.nodes[node]
        if target.dead:
            raise ClusterError(f"cannot fetch to dead node {node}")
        seconds = 0.0
        nbytes = 0
        for placement in self.placement.missing_for(
            node, tables, target.fetched
        ):
            sources = self.alive_holders(placement.table, placement.shard)
            if not sources:
                raise ClusterError(
                    f"shard {placement.table}[{placement.shard}] has no "
                    f"surviving holder"
                )
            seconds += self.fabric.transfer(
                sources[0], node, placement.nbytes,
                label=f"fetch:{placement.table}[{placement.shard}]",
            )
            nbytes += placement.nbytes
            target.fetched.add((placement.table, placement.shard))
        return seconds, nbytes

    def can_serve(self, node: int, tables: Iterable[str]) -> bool:
        """True when every shard the query needs is obtainable at
        ``node``: hosted there, cached there, or held by a survivor."""
        target = self.nodes[node]
        for placement in self.placement.missing_for(
            node, tables, target.fetched
        ):
            if not self.alive_holders(placement.table, placement.shard):
                return False
        return True

    def __repr__(self) -> str:
        return (
            f"Cluster({len(self.nodes)} nodes, "
            f"backend={self.backend_name!r}, "
            f"replication={self.placement.replication})"
        )
