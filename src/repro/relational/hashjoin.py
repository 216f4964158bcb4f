"""Simulated GPU hash-join subsystem.

The paper's headline negative result is that none of the studied libraries
(Thrust, Boost.Compute, ArrayFire) exposes hashing, so equi-joins degrade
to nested loops or a composed sort-merge, "leaving important tuning
potential unused".  This module is the counterfactual: the classic
build/probe radix-style hash join the libraries *should* have offered,
implemented on top of the simulated GPU cost model.

Structure (the textbook two-phase GPU hash join):

* **build** — one kernel streams the build-side keys and scatters
  ``(key, row id)`` slots into an open-addressing table with atomic CAS.
  The table is a real :class:`~repro.gpu.memory.MemoryManager` allocation,
  so its footprint shows up in peak-memory accounting and its lifetime in
  the profiler's alloc/free events.
* **probe** — one kernel streams the probe-side keys, walks each key's
  collision chain, and compacts matching ``(probe id, build id)`` pairs.

Semantics are executed in NumPy by :func:`join_sorted`, which every
backend's join pairs come from, so every backend produces bit-identical
results; *costs* are charged to the simulated clock through
:meth:`~repro.gpu.device.Device.launch`.  The probe kernel's traffic is
scaled by the *measured* collision-chain length of the actual key
distribution: duplicate-heavy build sides produce long chains and a
genuinely more expensive probe, exactly as on real hardware.

:func:`join_reference` emits canonical order (by left id, then right id)
without sorting pairs: it probes left rows in id order, and each row's
matches are one run of the build side's stable argsort, in row order.
It is that argsort followed by :func:`join_sorted`, the pair kernel,
which the composed merge join of the STL-style libraries calls on the
build side its own ``sort_by_key`` sorted.  For m build rows, n probe
rows and P pairs:

* unique integer build keys spanning at most m + n values take
  O(m + n + P) after the sort: a direct-address table maps each build
  key to its row id, and each probe row is one lookup in it, the one
  random access per probe row that a GPU hash probe costs.  The search
  table below covers these keys in the same order of time, but answers
  with a position, which a gather, a compare and the run boundaries
  then turn into a row id;
* other integer keys whose range R of values is narrow take
  O(m + n + R + P): the sort is a radix sort when R is below 2**16, and
  each search a table lookup when R is at most m + n (see
  :mod:`repro.relational.keys`);
* everything else takes O(m log m + n log m + P).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.gpu.device import Device
from repro.gpu.kernel import TUNED_PROFILE, EfficiencyProfile, KernelCost
from repro.relational.keys import searchsorted, stable_argsort, table_span

#: Fibonacci multiplicative hashing constant (2^64 / golden ratio) — the
#: standard cheap integer mixer for power-of-two tables.
_FIB_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)

#: Smallest table we ever allocate; real implementations round tiny build
#: sides up so the probe kernel's masking logic stays branch-free.
MIN_TABLE_SLOTS = 16


@dataclass(frozen=True)
class HashJoinConfig:
    """Tuning knobs of the simulated hash join.

    Attributes:
        load_factor: occupied fraction the table is sized for; 0.5 keeps
            expected linear-probe chains short (the classic GPU choice).
        slot_bytes: one table slot — 4-byte key + 4-byte row id.
        write_amplification: uncoalesced single-slot writes/reads touch a
            full 32-byte DRAM sector for 8 payload bytes; the build scatter
            and probe lookups pay this 4x factor.
        build_on_smaller: probe with the larger side and build the table on
            the smaller one (swapping result columns back afterwards).
    """

    load_factor: float = 0.5
    slot_bytes: float = 8.0
    write_amplification: float = 4.0
    build_on_smaller: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.load_factor <= 1.0:
            raise ValueError(
                f"load_factor must be in (0, 1]: {self.load_factor}"
            )
        if self.slot_bytes <= 0 or self.write_amplification <= 0:
            raise ValueError("slot_bytes and write_amplification must be positive")


DEFAULT_CONFIG = HashJoinConfig()


@dataclass(frozen=True)
class HashTableLayout:
    """Geometry of the device hash table for one build side."""

    build_rows: int
    slots: int
    slot_bytes: float

    @property
    def table_bytes(self) -> int:
        """Device bytes occupied by the table."""
        return int(self.slots * self.slot_bytes)

    @property
    def occupancy(self) -> float:
        """Fraction of slots filled after the build phase."""
        return self.build_rows / self.slots if self.slots else 0.0


def table_layout(
    build_rows: int, config: HashJoinConfig = DEFAULT_CONFIG
) -> HashTableLayout:
    """Size an open-addressing table for ``build_rows`` keys.

    Slots are the next power of two at or above ``rows / load_factor`` so
    the hash can mask instead of mod (and chains stay short at the target
    load factor).
    """
    if build_rows < 0:
        raise ValueError(f"build_rows cannot be negative: {build_rows}")
    wanted = max(MIN_TABLE_SLOTS, int(np.ceil(build_rows / config.load_factor)))
    slots = 1 << int(wanted - 1).bit_length()
    return HashTableLayout(
        build_rows=build_rows, slots=slots, slot_bytes=config.slot_bytes
    )


def hash_codes(keys: np.ndarray, slots: int) -> np.ndarray:
    """Bucket index per key for a power-of-two table (Fibonacci hashing)."""
    if slots <= 0 or slots & (slots - 1):
        raise ValueError(f"slots must be a positive power of two: {slots}")
    # The shift keeps the top log2(slots) bits, so every code is below
    # slots; for one slot it is 64, and NumPy shifts every bit out.
    shift = np.uint64(65 - int(slots).bit_length())
    mixed = keys.astype(np.int64).view(np.uint64)
    mixed *= _FIB_MULTIPLIER
    mixed >>= shift
    return mixed.view(np.int64)


@dataclass(frozen=True)
class HashJoinStats:
    """Cost-model telemetry for one simulated hash join."""

    build_rows: int
    probe_rows: int
    matches: int
    table_slots: int
    table_bytes: int
    #: Mean collision-chain length the probe kernel walked (>= 1.0 unless
    #: the probe side is empty).
    avg_probe_chain: float
    build_seconds: float
    probe_seconds: float
    #: True when the left input was the smaller side and the table was
    #: built on it (result columns are swapped back transparently).
    swapped: bool

    @property
    def total_seconds(self) -> float:
        """Simulated build + probe time."""
        return self.build_seconds + self.probe_seconds


@dataclass(frozen=True)
class HashJoinResult:
    """Matching row ids (canonical order) plus the run's telemetry."""

    left_ids: np.ndarray
    right_ids: np.ndarray
    stats: HashJoinStats

    def __len__(self) -> int:
        return len(self.left_ids)


def key_dtype(probe: np.dtype, build: np.dtype) -> np.dtype:
    """The dtype :func:`join_sorted` expects the build keys sorted in: the
    common dtype of both sides, but the build side's own when a signed
    integer side meets a uint64 side, whose common dtype, float64, rounds
    keys above 2**53."""
    if _signed_with_uint64(probe, build):
        return np.dtype(build)
    return np.result_type(probe, build)


def _signed_with_uint64(a: np.dtype, b: np.dtype) -> bool:
    """Two integer dtypes NumPy can only combine as float64."""
    return a.kind in "iu" and b.kind in "iu" and np.result_type(a, b).kind == "f"


def _int64_range(keys: np.ndarray) -> np.ndarray:
    """Ids of the integer keys in [0, 2**63 - 1], the only values a signed
    and a uint64 key can share."""
    if keys.dtype.kind == "u":
        return np.flatnonzero(keys <= np.uint64(np.iinfo(np.int64).max))
    return np.flatnonzero(keys >= 0)


def join_reference(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """All matching (left id, right id) pairs of an inner equi-join.

    Pairs come sorted by left id, then right id, both as int64, and NaN
    keys match each other.  The right keys are the build side: one stable
    argsort of them in :func:`key_dtype`, then :func:`join_sorted` probes
    each left row.
    """
    build = right_keys.astype(
        key_dtype(left_keys.dtype, right_keys.dtype), copy=False
    )
    if len(left_keys) == 0 or len(build) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    order = stable_argsort(build)
    return join_sorted(left_keys, build[order], order)


def join_sorted(
    probe_keys: np.ndarray, sorted_build: np.ndarray, order: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`join_reference` of ``probe_keys`` and a build side already
    sorted: ``sorted_build`` is ``build[order]``, and ``order`` (int64) is
    the stable argsort of the build keys in :func:`key_dtype`.

    Returns (probe ids, build ids) in canonical order, both int64.  Each
    probe row's matches are one run of ``order``.  When the build keys are
    unique integers spanning at most as many values as both sides hold,
    a direct-address table of build row ids answers each probe row with
    one lookup; otherwise each probe row is searched and its run expanded.
    A signed integer side meets a uint64 side exactly: a negative key or
    one above int64's maximum matches nothing, the rest compare as int64.
    """
    if _signed_with_uint64(probe_keys.dtype, sorted_build.dtype):
        rows = _int64_range(probe_keys)
        kept = _int64_range(sorted_build)
        probe_ids, build_ids = join_sorted(
            probe_keys[rows].astype(np.int64),
            sorted_build[kept].astype(np.int64),
            order[kept],
        )
        return rows[probe_ids], build_ids
    dtype = np.result_type(probe_keys.dtype, sorted_build.dtype)
    probe = probe_keys.astype(dtype, copy=False)
    build = sorted_build.astype(dtype, copy=False)
    m = len(build)
    if len(probe) == 0 or m == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    new_run = np.empty(m, dtype=bool)
    new_run[0] = True
    np.not_equal(build[1:], build[:-1], out=new_run[1:])
    span = table_span(build, probe)
    if span and new_run.all():
        # Slot k holds the row id of key lo - 1 + k, or -1; the needles
        # are clipped to [lo - 1, hi + 1], whose ends hold no key.
        lo = int(build[0])
        table = np.full(span + 2, -1, dtype=np.int64)
        table[build.astype(np.int64) - (lo - 1)] = order
        index = probe.astype(np.int64)
        np.clip(index, lo - 1, lo + span, out=index)
        index -= lo - 1
        build_ids = table[index]
        probe_ids = np.flatnonzero(build_ids >= 0)
        return probe_ids, build_ids[probe_ids]
    starts = searchsorted(build, probe, side="left")
    # A probe past the last key compares against that key, which is smaller.
    found = build[np.minimum(starts, m - 1)]
    hit = found == probe
    if dtype.kind == "f":
        # NaN keys are equal as the sort sees them: one run at the end.
        nan_build = np.isnan(build)
        new_run[1:] &= ~(nan_build[1:] & nan_build[:-1])
        hit |= np.isnan(found) & np.isnan(probe)
    probe_ids = np.flatnonzero(hit)
    run_starts = np.flatnonzero(new_run)
    if len(run_starts) == m:  # unique build keys: runs of one
        return probe_ids, order[starts[probe_ids]]
    run_ends = np.empty(m, dtype=np.int64)
    run_ends[run_starts] = np.append(run_starts[1:], m)
    lo = starts[probe_ids]
    return expand_runs(probe_ids, lo, run_ends[lo] - lo, order)


def expand_runs(
    probe_ids: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    build_ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pair each probe id with its run ``build_ids[start:start + count]``.

    Returns (probe ids, build ids), run after run in ``probe_ids`` order.
    """
    left_ids = np.repeat(probe_ids, counts)
    run_offsets = np.cumsum(counts) - counts
    positions = np.repeat(starts - run_offsets, counts) + np.arange(
        len(left_ids), dtype=np.int64
    )
    return left_ids, build_ids[positions]


class SimulatedHashJoin:
    """Build/probe hash join priced on a simulated device.

    One instance is bound to a device and an efficiency profile (library
    emulations pass their own tier; the handwritten backend passes
    :data:`~repro.gpu.kernel.TUNED_PROFILE`), and can run any number of
    joins::

        joiner = SimulatedHashJoin(device, profile, name="thrust+hash")
        result = joiner.join(left_keys, right_keys)
        result.left_ids, result.right_ids, result.stats.total_seconds
    """

    def __init__(
        self,
        device: Device,
        profile: EfficiencyProfile = TUNED_PROFILE,
        config: HashJoinConfig = DEFAULT_CONFIG,
        name: str = "hashjoin",
    ) -> None:
        self.device = device
        self.profile = profile
        self.config = config
        self.name = name

    # -- phases ------------------------------------------------------------

    def _build_phase(
        self, build_keys: np.ndarray, layout: HashTableLayout
    ) -> float:
        """Charge the table-construction kernel (hash + atomic-CAS scatter)."""
        cost = KernelCost(
            name=f"{self.name}::hash_build",
            elements=len(build_keys),
            # Multiplicative hash plus the expected CAS retry loop.
            flops_per_element=6.0,
            bytes_read_per_element=float(build_keys.dtype.itemsize),
            # One uncoalesced slot write per key, sector-amplified.
            bytes_written_per_element=(
                self.config.write_amplification * self.config.slot_bytes
            ),
            # The table is memset to EMPTY before the scatter.
            fixed_bytes=float(layout.table_bytes),
        )
        return self.device.launch(cost, self.profile)

    def _probe_phase(
        self,
        probe_keys: np.ndarray,
        layout: HashTableLayout,
        avg_chain: float,
        matches: int,
    ) -> float:
        """Charge the probe kernel (chain walk + match compaction)."""
        n = len(probe_keys)
        match_fraction = matches / n if n else 0.0
        cost = KernelCost(
            name=f"{self.name}::hash_probe",
            elements=n,
            # Hash once, then compare along the measured collision chain.
            flops_per_element=4.0 + 4.0 * avg_chain,
            bytes_read_per_element=(
                float(probe_keys.dtype.itemsize)
                + self.config.write_amplification
                * self.config.slot_bytes
                * avg_chain
            ),
            # Two int64 row ids per emitted match.
            bytes_written_per_element=16.0 * match_fraction,
            # Matches are counted then compacted: one extra device pass.
            passes=2,
        )
        return self.device.launch(cost, self.profile)

    def _measure_chains(
        self,
        build_keys: np.ndarray,
        probe_keys: np.ndarray,
        layout: HashTableLayout,
    ) -> float:
        """Mean collision-chain length the probe side walks.

        Each probe walks at least one slot; a probe landing in a bucket
        holding ``c`` build keys compares against all of them (linear
        probing clusters duplicates into one run).
        """
        if len(probe_keys) == 0:
            return 0.0
        if len(build_keys) == 0:
            return 1.0
        occupancy = np.bincount(
            hash_codes(build_keys, layout.slots), minlength=layout.slots
        )
        np.maximum(occupancy, 1, out=occupancy)
        return float(occupancy[hash_codes(probe_keys, layout.slots)].mean())

    # -- the full pipeline -------------------------------------------------

    def join(
        self, left_keys: np.ndarray, right_keys: np.ndarray
    ) -> HashJoinResult:
        """Run the simulated hash join; returns canonical match ids."""
        left = np.ascontiguousarray(left_keys)
        right = np.ascontiguousarray(right_keys)
        swapped = self.config.build_on_smaller and len(left) < len(right)
        build_keys, probe_keys = (left, right) if swapped else (right, left)

        layout = table_layout(len(build_keys), self.config)
        table = self.device.allocate(
            layout.table_bytes, label=f"{self.name}::table"
        )
        try:
            build_seconds = self._build_phase(build_keys, layout)
            left_ids, right_ids = join_reference(left, right)
            avg_chain = self._measure_chains(build_keys, probe_keys, layout)
            probe_seconds = self._probe_phase(
                probe_keys, layout, avg_chain, len(left_ids)
            )
            # The host reads back the match count to size result buffers.
            self.device.transfer_to_host(8, f"{self.name}::match_count")
        finally:
            self.device.free(table)

        stats = HashJoinStats(
            build_rows=len(build_keys),
            probe_rows=len(probe_keys),
            matches=len(left_ids),
            table_slots=layout.slots,
            table_bytes=layout.table_bytes,
            avg_probe_chain=avg_chain,
            build_seconds=build_seconds,
            probe_seconds=probe_seconds,
            swapped=swapped,
        )
        return HashJoinResult(
            left_ids=left_ids, right_ids=right_ids, stats=stats
        )


def simulated_hash_join(
    device: Device,
    left_keys: np.ndarray,
    right_keys: np.ndarray,
    profile: EfficiencyProfile = TUNED_PROFILE,
    config: Optional[HashJoinConfig] = None,
    name: str = "hashjoin",
) -> HashJoinResult:
    """One-shot convenience wrapper around :class:`SimulatedHashJoin`."""
    joiner = SimulatedHashJoin(
        device, profile, config if config is not None else DEFAULT_CONFIG, name
    )
    return joiner.join(left_keys, right_keys)
