"""Exchange operators and the broadcast-vs-shuffle cost model."""

from __future__ import annotations

import pytest

from repro.distributed import (
    Broadcast,
    Gather,
    Shuffle,
    choose_exchange,
    movement_matrix,
)
from repro.gpu import NVLINK2, DeviceGroup
from repro.gpu.profiler import TRANSFER_D2D

MIB = 1 << 20


class TestBroadcast:
    def test_sends_serialize_on_the_origin_engine(self):
        group = DeviceGroup.of_size(4)
        span = Broadcast(MIB).run(group)
        # Three sends from one D2H engine: they queue, not overlap.
        assert span == pytest.approx(3 * NVLINK2.transfer_time(MIB))

    def test_origin_receives_nothing(self):
        group = DeviceGroup.of_size(3)
        Broadcast(MIB, origin=1).run(group)
        recv = [
            e for e in group[1].profiler.events
            if e.kind == TRANSFER_D2D and e.payload["role"] == "recv"
        ]
        assert recv == []

    def test_degenerate_cases_cost_nothing(self):
        assert Broadcast(MIB).run(DeviceGroup.of_size(1)) == 0.0
        assert Broadcast(0).run(DeviceGroup.of_size(4)) == 0.0


class TestShuffle:
    def test_disjoint_sources_overlap(self):
        group = DeviceGroup.of_size(4)
        # Pairs share no endpoint, so their copies fully overlap.
        moved = [[0] * 4 for _ in range(4)]
        moved[0][1] = MIB
        moved[2][3] = MIB
        span = Shuffle.from_matrix(moved).run(group)
        assert span == pytest.approx(NVLINK2.transfer_time(MIB))

    def test_total_bytes_excludes_the_diagonal(self):
        moved = [[5, 1], [2, 7]]
        assert Shuffle.from_matrix(moved).total_bytes == 3

    def test_empty_matrix_costs_nothing(self):
        group = DeviceGroup.of_size(2)
        assert Shuffle.from_matrix([[0, 0], [0, 0]]).run(group) == 0.0


class TestGather:
    def test_root_collects_all_partials(self):
        group = DeviceGroup.of_size(3)
        Gather((MIB, MIB, MIB), root=0).run(group)
        recv = [
            e for e in group[0].profiler.events
            if e.kind == TRANSFER_D2D and e.payload["role"] == "recv"
        ]
        assert sorted(e.payload["peer"] for e in recv) == [1, 2]

    def test_single_device_is_free(self):
        assert Gather((MIB,)).run(DeviceGroup.of_size(1)) == 0.0


class TestChooseExchange:
    def test_small_builds_broadcast_large_builds_shuffle(self):
        group = DeviceGroup.of_size(4)
        fact = 64 * MIB
        small = choose_exchange(group, MIB, fact, reshard_required=True)
        large = choose_exchange(group, 256 * MIB, fact,
                                reshard_required=True)
        assert small.mode == "broadcast"
        assert large.mode == "shuffle"
        assert large.shuffle_cost < large.broadcast_cost

    def test_without_reshard_shuffle_always_wins(self):
        # Sending 1/N slices beats replicating for any positive build once
        # the fact side is already colocated.
        group = DeviceGroup.of_size(4)
        for build in (MIB, 16 * MIB, 256 * MIB):
            choice = choose_exchange(group, build, 64 * MIB,
                                     reshard_required=False)
            assert choice.mode == "shuffle"
            assert not choice.reshard_required

    def test_reshard_inflates_shuffle_cost_and_moved_bytes(self):
        group = DeviceGroup.of_size(4)
        build, fact = 256 * MIB, 64 * MIB
        without = choose_exchange(group, build, fact, reshard_required=False)
        with_reshard = choose_exchange(group, build, fact,
                                       reshard_required=True)
        assert with_reshard.shuffle_cost > without.shuffle_cost
        assert with_reshard.moved_bytes > without.moved_bytes

    def test_single_device_is_free(self):
        choice = choose_exchange(DeviceGroup.of_size(1), MIB, MIB,
                                 reshard_required=True)
        assert choice.broadcast_cost == 0.0
        assert choice.moved_bytes == 0


class TestMovementMatrix:
    def test_diagonal_is_zeroed(self):
        matrix = movement_matrix([[10, 2], [3, 20]], row_bytes=8.0)
        assert matrix == [[0, 16], [24, 0]]

    def test_feeds_shuffle_total_bytes(self):
        matrix = movement_matrix([[10, 2], [3, 20]], row_bytes=8.0)
        assert Shuffle.from_matrix(matrix).total_bytes == 40
