"""NetworkFabric: NETWORK-tier pricing, contention, NET profiler events."""

from __future__ import annotations

import pytest

from repro.gpu import DATACENTER_NET, DeviceGroup, NetworkFabric
from repro.gpu.profiler import NET, chrome_trace_json, track_metadata


def _fabric(num_nodes=3):
    return NetworkFabric([DeviceGroup.of_size(1) for _ in range(num_nodes)])


class TestPricing:
    def test_transfer_costs_latency_plus_bytes_over_bandwidth(self):
        fabric = _fabric()
        nbytes = 1 << 20
        expected = DATACENTER_NET.latency + nbytes / DATACENTER_NET.bandwidth
        assert fabric.transfer(0, 1, nbytes) == pytest.approx(expected)

    def test_network_is_the_most_expensive_tier(self):
        from repro.gpu.transfer import NVLINK2, NVME_SSD, PCIE3_X16
        nbytes = 1 << 24
        assert (
            DATACENTER_NET.transfer_time(nbytes)
            > NVME_SSD.transfer_time(nbytes)
            > PCIE3_X16.transfer_time(nbytes)
            > NVLINK2.transfer_time(nbytes)
        )

    def test_both_leads_advance_to_the_message_end(self):
        fabric = _fabric()
        span = fabric.transfer(0, 2, 1 << 20)
        assert fabric.lead(0).clock.now == pytest.approx(span)
        assert fabric.lead(2).clock.now == pytest.approx(span)
        # Uninvolved node 1 never observed the message.
        assert fabric.lead(1).clock.now == 0.0


class TestContention:
    def test_same_pair_messages_serialize_on_the_channel(self):
        fabric = _fabric()
        first = fabric.transfer(0, 1, 1 << 20)
        fabric.transfer(0, 1, 1 << 20)
        events = [
            e for e in fabric.lead(0).profiler.events if e.kind == NET
        ]
        assert len(events) == 2
        assert events[1].start >= events[0].start + first

    def test_fanout_serializes_on_the_senders_nic(self):
        fabric = _fabric(num_nodes=3)
        # Distinct pair channels 0->1 and 0->2, same send NIC on node 0.
        fabric.transfer(0, 1, 1 << 20)
        fabric.transfer(0, 2, 1 << 20)
        sends = [
            e for e in fabric.lead(0).profiler.events
            if e.kind == NET and e.payload["role"] == "send"
        ]
        assert len(sends) == 2
        assert sends[1].start >= sends[0].start + sends[0].duration


class TestProfilerIntegration:
    def test_net_events_land_on_both_leads_with_roles(self):
        fabric = _fabric()
        fabric.transfer(0, 1, 4096, label="shard")
        send = [e for e in fabric.lead(0).profiler.events if e.kind == NET]
        recv = [e for e in fabric.lead(1).profiler.events if e.kind == NET]
        assert len(send) == len(recv) == 1
        assert send[0].payload["role"] == "send"
        assert recv[0].payload["role"] == "recv"
        assert send[0].payload["peer"] == 1
        assert recv[0].payload["peer"] == 0
        assert send[0].payload["nbytes"] == 4096
        assert send[0].name == "shard"

    def test_summary_accumulates_net_time_and_bytes(self):
        fabric = _fabric()
        fabric.transfer(0, 1, 1 << 20)
        fabric.transfer(0, 1, 1 << 20)
        summary = fabric.lead(0).profiler.summary()
        assert summary.bytes_net == 2 * (1 << 20)
        assert summary.net_time == pytest.approx(
            2 * DATACENTER_NET.transfer_time(1 << 20)
        )

    def test_chrome_trace_gains_a_network_row_only_when_used(self):
        fabric = _fabric()
        before = track_metadata(fabric.lead(0).profiler.events)
        assert "network (cluster)" not in [
            m["args"]["name"] for m in before
            if m.get("name") == "thread_name"
        ]
        fabric.transfer(0, 1, 4096)
        trace = chrome_trace_json(fabric.lead(0).profiler.events)
        assert '"network (cluster)"' in trace


class TestFabricErrors:
    def test_bad_construction_is_rejected(self):
        with pytest.raises(ValueError):
            NetworkFabric([])
        group = DeviceGroup.of_size(1)
        with pytest.raises(ValueError):
            NetworkFabric([group, group])

    def test_bad_transfers_are_rejected(self):
        fabric = _fabric()
        with pytest.raises(ValueError):
            fabric.transfer(0, 0, 10)
        with pytest.raises(IndexError):
            fabric.transfer(0, 9, 10)
        with pytest.raises(ValueError):
            fabric.transfer(0, 1, -1)
