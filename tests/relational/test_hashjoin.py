"""Tests for the simulated GPU hash-join subsystem."""

import numpy as np
import pytest

from repro.gpu import Device
from repro.gpu.profiler import ALLOC, FREE, KERNEL, TRANSFER_D2H
from repro.core.backend import join_reference
from repro.relational import hashjoin
from repro.relational.hashjoin import (
    DEFAULT_CONFIG,
    MIN_TABLE_SLOTS,
    HashJoinConfig,
    SimulatedHashJoin,
    hash_codes,
    join_sorted,
    simulated_hash_join,
    table_layout,
)
from repro.relational.keys import stable_argsort

_INT64 = np.iinfo(np.int64)


@pytest.fixture
def joiner(device):
    return SimulatedHashJoin(device)


def _assert_matches_reference(result, left, right):
    expected_l, expected_r = join_reference(left, right)
    assert np.array_equal(result.left_ids, expected_l)
    assert np.array_equal(result.right_ids, expected_r)


class TestLayout:
    def test_slots_are_power_of_two(self):
        for rows in (0, 1, 7, 100, 1023, 1 << 16):
            layout = table_layout(rows)
            assert layout.slots & (layout.slots - 1) == 0
            assert layout.slots >= MIN_TABLE_SLOTS

    def test_load_factor_respected(self):
        layout = table_layout(10_000, HashJoinConfig(load_factor=0.5))
        assert layout.occupancy <= 0.5
        assert layout.table_bytes == layout.slots * 8

    def test_tiny_build_side_rounds_up(self):
        assert table_layout(0).slots == MIN_TABLE_SLOTS
        assert table_layout(3).slots == MIN_TABLE_SLOTS

    def test_negative_rows_rejected(self):
        with pytest.raises(ValueError):
            table_layout(-1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HashJoinConfig(load_factor=0.0)
        with pytest.raises(ValueError):
            HashJoinConfig(load_factor=1.5)
        with pytest.raises(ValueError):
            HashJoinConfig(slot_bytes=0.0)


class TestHashCodes:
    def test_codes_in_range(self, rng):
        keys = rng.integers(-(1 << 31), 1 << 31, 10_000).astype(np.int64)
        codes = hash_codes(keys, 1024)
        assert codes.min() >= 0 and codes.max() < 1024

    def test_deterministic(self, rng):
        keys = rng.integers(0, 1000, 500).astype(np.int32)
        assert np.array_equal(hash_codes(keys, 256), hash_codes(keys, 256))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            hash_codes(np.arange(4), 100)

    def test_spreads_sequential_keys(self):
        """Fibonacci hashing must not map sequential keys to one bucket."""
        codes = hash_codes(np.arange(4096, dtype=np.int64), 4096)
        occupancy = np.bincount(codes, minlength=4096)
        assert occupancy.max() <= 8

    @pytest.mark.parametrize("slots", [1, 2, 16, 1 << 20])
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_codes_are_the_shifted_product_modulo_slots(self, slots, dtype):
        """The top log2(slots) bits of the product are already below
        slots, so dropping the modulo changes no code."""
        info = np.iinfo(dtype)
        keys = np.array(
            [0, 1, -1, 7, -7, 1 << 20, -(1 << 20), info.min, info.min + 1,
             info.max - 1, info.max],
            dtype=dtype,
        )
        shift = np.uint64(64 - slots.bit_length() + 1)
        mixed = keys.astype(np.int64).view(np.uint64) * np.uint64(
            0x9E3779B97F4A7C15
        )
        want = (mixed >> shift).astype(np.int64) % slots
        got = hash_codes(keys, slots)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_keys_are_left_unchanged(self):
        keys = np.arange(-50, 50, dtype=np.int64)
        hash_codes(keys, 64)
        assert np.array_equal(keys, np.arange(-50, 50))


class TestCorrectness:
    def test_fk_join_matches_reference(self, joiner, rng):
        right = np.arange(2_000, dtype=np.int32)
        left = rng.integers(0, 2_000, 10_000).astype(np.int32)
        result = joiner.join(left, right)
        _assert_matches_reference(result, left, right)
        assert result.stats.matches == 10_000

    def test_duplicate_keys_both_sides(self, joiner, rng):
        left = rng.integers(0, 50, 1_000).astype(np.int32)
        right = rng.integers(0, 50, 800).astype(np.int32)
        result = joiner.join(left, right)
        _assert_matches_reference(result, left, right)

    def test_empty_build_side(self, joiner):
        left = np.arange(100, dtype=np.int32)
        right = np.empty(0, dtype=np.int32)
        result = joiner.join(left, right)
        assert len(result) == 0
        _assert_matches_reference(result, left, right)

    def test_empty_left_side(self, joiner):
        # The empty side becomes the build side (build-on-smaller); every
        # probe still walks one (empty) slot.
        result = joiner.join(
            np.empty(0, dtype=np.int32), np.arange(100, dtype=np.int32)
        )
        assert len(result) == 0
        assert result.stats.build_rows == 0
        assert result.stats.avg_probe_chain == 1.0

    def test_both_sides_empty(self, joiner):
        empty = np.empty(0, dtype=np.int32)
        result = joiner.join(empty, empty)
        assert len(result) == 0
        assert result.stats.avg_probe_chain == 0.0

    def test_no_matching_probes(self, joiner):
        left = np.arange(0, 1000, dtype=np.int32)
        right = np.arange(5000, 6000, dtype=np.int32)
        result = joiner.join(left, right)
        assert len(result) == 0
        assert result.stats.matches == 0
        # Probe time is still charged: every key walks the table.
        assert result.stats.probe_seconds > 0.0

    def test_negative_keys(self, joiner, rng):
        left = rng.integers(-500, 500, 2_000).astype(np.int64)
        right = rng.integers(-500, 500, 1_500).astype(np.int64)
        result = joiner.join(left, right)
        _assert_matches_reference(result, left, right)

    def test_one_shot_wrapper(self, device, rng):
        left = rng.integers(0, 100, 300).astype(np.int32)
        right = rng.integers(0, 100, 200).astype(np.int32)
        result = simulated_hash_join(device, left, right, name="oneshot")
        _assert_matches_reference(result, left, right)
        kernels = [e.name for e in device.profiler.iter_kind(KERNEL)]
        assert kernels == ["oneshot::hash_build", "oneshot::hash_probe"]


class TestProfiling:
    def test_build_and_probe_kernel_events(self, device, rng):
        joiner = SimulatedHashJoin(device, name="hj")
        left = rng.integers(0, 10_000, 50_000).astype(np.int32)
        right = np.arange(10_000, dtype=np.int32)
        result = joiner.join(left, right)

        kernels = [e for e in device.profiler.iter_kind(KERNEL)]
        names = [e.name for e in kernels]
        assert names == ["hj::hash_build", "hj::hash_probe"]
        for event in kernels:
            assert event.duration > 0.0
        # Stats mirror the charged durations.
        assert result.stats.build_seconds == kernels[0].duration
        assert result.stats.probe_seconds == kernels[1].duration
        assert result.stats.total_seconds == pytest.approx(
            kernels[0].duration + kernels[1].duration
        )

    def test_table_alloc_and_free_events(self, device, rng):
        joiner = SimulatedHashJoin(device, name="hj")
        left = rng.integers(0, 1_000, 5_000).astype(np.int32)
        right = np.arange(1_000, dtype=np.int32)
        result = joiner.join(left, right)

        allocs = [e for e in device.profiler.iter_kind(ALLOC)
                  if e.name == "hj::table"]
        frees = [e for e in device.profiler.iter_kind(FREE)
                 if e.name == "hj::table"]
        assert len(allocs) == 1 and len(frees) == 1
        assert allocs[0].payload["nbytes"] == result.stats.table_bytes

    def test_match_count_readback(self, device, rng):
        joiner = SimulatedHashJoin(device, name="hj")
        joiner.join(
            rng.integers(0, 100, 500).astype(np.int32),
            np.arange(100, dtype=np.int32),
        )
        readbacks = [
            e for e in device.profiler.iter_kind(TRANSFER_D2H)
            if e.name == "hj::match_count"
        ]
        assert len(readbacks) == 1

    def test_table_freed_even_on_failure(self, device):
        joiner = SimulatedHashJoin(device, name="hj")
        bad = np.array(["a", "b"])  # non-numeric keys blow up in-phase
        with pytest.raises(Exception):
            joiner.join(bad, bad)
        assert device.memory.used_bytes == 0


class TestCostModel:
    def test_build_on_smaller_swaps(self, device, rng):
        joiner = SimulatedHashJoin(device)
        small = np.arange(100, dtype=np.int32)
        large = rng.integers(0, 100, 10_000).astype(np.int32)
        swapped = joiner.join(small, large)
        assert swapped.stats.swapped
        assert swapped.stats.build_rows == 100
        assert swapped.stats.probe_rows == 10_000
        _assert_matches_reference(swapped, small, large)

    def test_no_swap_when_left_is_larger(self, device, rng):
        joiner = SimulatedHashJoin(device)
        result = joiner.join(
            rng.integers(0, 100, 500).astype(np.int32),
            rng.integers(0, 100, 400).astype(np.int32),
        )
        assert not result.stats.swapped
        assert result.stats.build_rows == 400

    def test_duplicate_build_keys_lengthen_chains(self, rng):
        """A duplicate-heavy build side must cost more to probe."""
        probe = rng.integers(0, 16, 100_000).astype(np.int32)
        unique_build = np.arange(10_000, dtype=np.int32)
        skewed_build = rng.integers(0, 16, 10_000).astype(np.int32)

        def run(build):
            device = Device()
            joiner = SimulatedHashJoin(
                device, config=HashJoinConfig(build_on_smaller=False)
            )
            return joiner.join(probe, build).stats

        uniform = run(unique_build)
        skewed = run(skewed_build)
        assert skewed.avg_probe_chain > 4 * uniform.avg_probe_chain
        assert skewed.probe_seconds > uniform.probe_seconds

    def test_linear_scaling_not_quadratic(self, rng):
        """Doubling both sides should roughly double the cost."""

        def run(n):
            device = Device()
            joiner = SimulatedHashJoin(device)
            left = rng.integers(0, n, 4 * n).astype(np.int32)
            right = np.arange(n, dtype=np.int32)
            return joiner.join(left, right).stats.total_seconds

        small, large = run(1 << 14), run(1 << 16)
        assert large / small < 8.0  # 4x data -> well under 16x (quadratic)

    def test_default_config_shared(self):
        assert DEFAULT_CONFIG.load_factor == 0.5
        assert SimulatedHashJoin(Device()).config is DEFAULT_CONFIG


class TestProbeChains:
    def test_avg_probe_chain_is_pinned(self):
        """Exact mean chain lengths on one fixed seed: duplicate-light,
        duplicate-heavy, and a wide key range whose table is built on the
        smaller left side."""
        rng = np.random.default_rng(24)
        chains = []
        for build_rows, probe_rows, high in (
            (3000, 20000, 5000), (700, 9000, 100), (5000, 4000, 1 << 40)
        ):
            right = rng.integers(0, high, build_rows)
            left = rng.integers(-high, high, probe_rows)
            stats = SimulatedHashJoin(Device()).join(left, right).stats
            chains.append((stats.avg_probe_chain, stats.swapped))
        assert chains == [
            (1.10725, False), (4.006777777777778, False), (1.1038, True)
        ]


class TestJoinSorted:
    """join_sorted answers unique build keys spanning at most m + n values
    with one table lookup per probe row, and searches everything else."""

    @staticmethod
    def _join(left, right, monkeypatch):
        """Checks join_sorted against join_reference; returns how many
        searches join_sorted ran."""
        want = join_reference(left, right)
        searches = []
        search = hashjoin.searchsorted

        def counting(*args, **kwargs):
            searches.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(hashjoin, "searchsorted", counting)
        order = stable_argsort(right)
        got = join_sorted(left, right[order], order)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        return len(searches)

    @pytest.mark.parametrize("extra, searched", [(0, 0), (1, 1)])
    def test_unique_build_within_the_span_limit_is_looked_up(
        self, extra, searched, monkeypatch, rng
    ):
        n, m = 40, 30
        span = m + n + extra
        right = np.concatenate([
            [0, span - 1], rng.choice(np.arange(1, span - 1), m - 2, False)
        ]).astype(np.int32)
        rng.shuffle(right)
        left = rng.integers(-3, span + 3, n).astype(np.int32)
        assert self._join(left, right, monkeypatch) == searched

    def test_duplicate_build_keys_are_searched(self, monkeypatch, rng):
        right = rng.integers(0, 10, 30).astype(np.int64)
        left = rng.integers(0, 10, 40).astype(np.int64)
        assert self._join(left, right, monkeypatch) == 1

    @pytest.mark.parametrize("lo", [_INT64.min, _INT64.min + 1, _INT64.max - 9])
    def test_keys_at_the_int64_ends_are_searched(self, lo, monkeypatch):
        right = np.arange(10, dtype=np.int64) + lo
        left = right[::-1].copy()
        assert self._join(left, right, monkeypatch) == 1

    def test_uint64_keys_are_searched(self, monkeypatch):
        right = np.arange(10, dtype=np.uint64) + np.uint64(1 << 63)
        left = right[::2].copy()
        assert self._join(left, right, monkeypatch) == 1
