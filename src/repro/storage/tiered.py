"""Tiered compressed column store: device -> host -> simulated NVMe.

Columns ingested into a :class:`TieredColumnStore` are split into row
chunks, each compressed by the codec chooser, and placed on one of three
tiers.  Every tier move prices the *compressed* bytes on the matching
link — promotions to the device pay an H2D transfer on the PCIe link,
spills pay a D2H transfer, and the host <-> NVMe leg pays a blocking
host I/O on the (much slower) NVMe link — so the effective interconnect
bandwidth seen by a scan rises with the compression ratio.  On arrival
at the device a chunk is decompressed by a simulated decode kernel
before the scan consumes it.

Consistency under faults: a spill charges its D2H transfer *before*
releasing the device buffer, and a promote frees its freshly allocated
buffer when the H2D transfer faults — so an injected
:class:`~repro.errors.TransferError` at any point leaves every chunk
resident and re-fetchable on its previous tier, with no double-free.

The store registers a pressure callback with the device's memory
manager: under allocation pressure it spills cold (LRU, pin-aware)
chunks down-tier instead of failing, which is what turns the OOM cliff
into graceful degradation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import TransferError
from repro.gpu.device import Device
from repro.gpu.kernel import TUNED_PROFILE, EfficiencyProfile
from repro.gpu.memory import DeviceBuffer
from repro.gpu.transfer import NVME_SSD, LinkSpec
from repro.relational.table import Table
from repro.storage.chooser import encode_best
from repro.storage.codecs import (
    EncodedColumn,
    batch_decode_cost,
    decode,
    encode_cost,
)

#: Tier names, fastest first.
TIER_DEVICE = "device"
TIER_HOST = "host"
TIER_NVME = "nvme"
TIERS = (TIER_DEVICE, TIER_HOST, TIER_NVME)

#: Default rows per compressed chunk.
CHUNK_ROWS = 65536


@dataclass
class _Chunk:
    """One compressed row range of one column, resident on one tier."""

    table: str
    column: str
    lo: int
    hi: int
    encoded: EncodedColumn
    tier: str = TIER_HOST
    buffer: Optional[DeviceBuffer] = None  # live iff tier == device
    tick: int = 0
    pins: int = 0

    @property
    def compressed_nbytes(self) -> int:
        return self.encoded.compressed_nbytes

    @property
    def raw_nbytes(self) -> int:
        return self.encoded.raw_nbytes


@dataclass
class StoreStats:
    """Counters for spills/promotes and the compression win."""

    columns: int = 0
    chunks: int = 0
    raw_bytes: int = 0
    compressed_bytes: int = 0
    tier_bytes: Dict[str, int] = field(default_factory=dict)
    fetches: int = 0
    decoded_bytes: int = 0
    promotes: int = 0
    promoted_raw_bytes: int = 0
    promoted_compressed_bytes: int = 0
    spills: int = 0
    spilled_bytes: int = 0
    nvme_reads: int = 0
    nvme_read_bytes: int = 0
    nvme_writes: int = 0
    nvme_write_bytes: int = 0

    @property
    def compression_ratio(self) -> float:
        """Whole-store raw/compressed ratio."""
        return self.raw_bytes / max(self.compressed_bytes, 1)

    @property
    def effective_bandwidth_gain(self) -> float:
        """Raw bytes delivered per compressed byte moved over PCIe.

        This is the factor by which compression multiplied the
        interconnect's effective bandwidth for the promoted working set
        (1.0 when nothing promoted or nothing compressed).
        """
        if self.promoted_compressed_bytes <= 0:
            return 1.0
        return self.promoted_raw_bytes / self.promoted_compressed_bytes

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot (serve metrics, benchmarks)."""
        return {
            "columns": self.columns,
            "chunks": self.chunks,
            "raw_bytes": self.raw_bytes,
            "compressed_bytes": self.compressed_bytes,
            "compression_ratio": round(self.compression_ratio, 3),
            "tier_bytes": dict(self.tier_bytes),
            "fetches": self.fetches,
            "decoded_bytes": self.decoded_bytes,
            "promotes": self.promotes,
            "promoted_raw_bytes": self.promoted_raw_bytes,
            "promoted_compressed_bytes": self.promoted_compressed_bytes,
            "effective_bandwidth_gain": round(
                self.effective_bandwidth_gain, 3
            ),
            "spills": self.spills,
            "spilled_bytes": self.spilled_bytes,
            "nvme_reads": self.nvme_reads,
            "nvme_read_bytes": self.nvme_read_bytes,
            "nvme_writes": self.nvme_writes,
            "nvme_write_bytes": self.nvme_write_bytes,
        }


class TieredColumnStore:
    """Compressed, chunked, three-tier column storage for one device.

    ``device_budget`` caps the compressed bytes the store keeps resident
    on the device (None = bounded only by memory pressure);
    ``host_budget`` caps the host tier, with overflow demoted to the
    simulated NVMe tier over ``nvme_link``.
    """

    def __init__(
        self,
        device: Device,
        *,
        device_budget: Optional[int] = None,
        host_budget: Optional[int] = None,
        chunk_rows: int = CHUNK_ROWS,
        nvme_link: LinkSpec = NVME_SSD,
        profile: EfficiencyProfile = TUNED_PROFILE,
        price_encode: bool = True,
    ) -> None:
        if chunk_rows <= 0:
            raise ValueError(f"chunk_rows must be positive: {chunk_rows}")
        self.device = device
        self.device_budget = device_budget
        self.host_budget = host_budget
        self.chunk_rows = chunk_rows
        self.nvme_link = nvme_link
        self.profile = profile
        self.price_encode = price_encode
        self._columns: Dict[Tuple[str, str], List[_Chunk]] = {}
        self._tick = 0
        self._device_bytes = 0
        self._host_bytes = 0
        self.stats = StoreStats()
        self._closed = False
        device.memory.register_pressure_callback(self._pressure_spill)

    # -- ingest ------------------------------------------------------------

    def ingest_table(
        self, table: Table, columns: Optional[Iterable[str]] = None
    ) -> None:
        """Encode and adopt ``table``'s columns (host tier initially)."""
        names = list(columns) if columns is not None else table.column_names
        for name in names:
            self.ingest_column(table.name, name, table.column(name).data)

    def ingest_column(
        self, table: str, column: str, values: np.ndarray
    ) -> None:
        """Encode ``values`` into row chunks and adopt them."""
        key = (table, column)
        if key in self._columns:
            raise ValueError(f"column {table}.{column} already ingested")
        chunks: List[_Chunk] = []
        # Register before encoding so the host-budget sweep can demote
        # this column's own chunks while they are still streaming in.
        self._columns[key] = chunks
        n = len(values)
        for lo in range(0, max(n, 1), self.chunk_rows):
            hi = min(lo + self.chunk_rows, n)
            encoded = encode_best(values[lo:hi])
            if self.price_encode:
                self.device.launch(encode_cost(encoded), self.profile)
            chunk = _Chunk(
                table=table, column=column, lo=lo, hi=hi, encoded=encoded,
                tier=TIER_HOST, tick=self._bump(),
            )
            chunks.append(chunk)
            self._host_bytes += chunk.compressed_nbytes
            self.stats.chunks += 1
            self.stats.raw_bytes += chunk.raw_nbytes
            self.stats.compressed_bytes += chunk.compressed_nbytes
            self._enforce_host_budget()
        self.stats.columns += 1

    # -- queries -----------------------------------------------------------

    def manages(self, table: str, column: str) -> bool:
        """Whether fetches for this column should go through the store."""
        return (table, column) in self._columns

    def managed_tables(self) -> List[str]:
        """Names of tables with at least one managed column."""
        return sorted({table for table, _column in self._columns})

    def table_compressed_nbytes(self, table: str) -> int:
        """Compressed footprint of all managed columns of ``table``."""
        return sum(
            chunk.compressed_nbytes
            for (t, _c), chunks in self._columns.items() if t == table
            for chunk in chunks
        )

    def column_codecs(self, table: str) -> Dict[str, str]:
        """Chosen codec per managed column (first chunk's pick)."""
        return {
            column: chunks[0].encoded.codec
            for (t, column), chunks in sorted(self._columns.items())
            if t == table and chunks
        }

    def tier_bytes(self) -> Dict[str, int]:
        """Current compressed bytes resident per tier."""
        totals = {tier: 0 for tier in TIERS}
        for chunks in self._columns.values():
            for chunk in chunks:
                totals[chunk.tier] += chunk.compressed_nbytes
        return totals

    def snapshot_stats(self) -> StoreStats:
        """The counters with the tier occupancy filled in."""
        self.stats.tier_bytes = self.tier_bytes()
        return self.stats

    # -- fetch (promote + decode) -----------------------------------------

    def fetch(
        self,
        table: str,
        column: str,
        backend: Any,
        lo: Optional[int] = None,
        hi: Optional[int] = None,
    ):
        """Materialise ``table.column[lo:hi]`` as a device handle.

        Covering chunks are promoted to the device tier (NVMe -> host
        I/O, host -> device H2D of *compressed* bytes), decoded by a
        simulated kernel, and the decoded rows are wrapped as the
        backend's handle (no raw-size H2D is charged — the raw bytes
        never cross the link).
        """
        return self.fetch_many(table, (column,), backend, lo, hi)[column]

    def fetch_many(
        self,
        table: str,
        columns: Iterable[str],
        backend: Any,
        lo: Optional[int] = None,
        hi: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Materialise several columns' ``[lo, hi)`` rows in one batch.

        A scan fetches its whole managed column set through here: the
        covering chunks of every column promote in ONE H2D transfer and
        decompress in ONE batched kernel launch, so the fetch pays the
        link latency and the launch overhead once — not once per
        (column, chunk).  Semantics are identical to per-column
        :meth:`fetch` calls; only the fixed costs are amortised.  A
        repeated column name is fetched once.
        """
        names = list(dict.fromkeys(columns))
        covers: Dict[str, List[_Chunk]] = {}
        spans: Dict[str, Tuple[int, int]] = {}
        all_cover: List[_Chunk] = []
        for column in names:
            chunks = self._columns[(table, column)]
            total = chunks[-1].hi if chunks else 0
            clo = 0 if lo is None else lo
            chi = total if hi is None else hi
            cover = [c for c in chunks if c.lo < chi and c.hi > clo]
            covers[column] = cover
            spans[column] = (clo, chi)
            all_cover.extend(cover)
        for chunk in all_cover:
            chunk.pins += 1
        try:
            self._promote_batch(all_cover)
            if all_cover:
                self.device.launch(
                    batch_decode_cost([c.encoded for c in all_cover]),
                    self.profile,
                )
            out: Dict[str, Any] = {}
            for column in names:
                clo, chi = spans[column]
                parts: List[np.ndarray] = []
                for chunk in covers[column]:
                    data = decode(chunk.encoded)
                    parts.append(data[max(clo - chunk.lo, 0):chi - chunk.lo])
                    chunk.tick = self._bump()
                if not parts:
                    dtype = self._columns[(table, column)][0].encoded.dtype
                    values = np.empty(0, dtype=dtype)
                elif len(parts) == 1:
                    values = parts[0]
                else:
                    values = np.concatenate(parts)
                self.stats.fetches += 1
                self.stats.decoded_bytes += int(values.nbytes)
                out[column] = backend.wrap(values, f"{table}.{column}")
        finally:
            for chunk in all_cover:
                chunk.pins -= 1
        return out

    # -- tier movement -----------------------------------------------------

    def _bump(self) -> int:
        self._tick += 1
        return self._tick

    def _label(self, op: str, chunk: _Chunk) -> str:
        return f"storage:{op}:{chunk.table}.{chunk.column}"

    def _promote_batch(self, cover: List[_Chunk]) -> None:
        """Promote every non-device chunk in ``cover``, batching each leg.

        The NVMe reads coalesce into one sequential read and the host ->
        device moves into one H2D transfer (one staging copy), so a fetch
        pays each link's fixed latency once however many chunks it
        covers.  Faults keep the all-or-nothing guarantee: a failed H2D
        frees every freshly allocated buffer and leaves every chunk on
        its previous tier.
        """
        nvme = [c for c in cover if c.tier == TIER_NVME]
        if nvme:
            total = sum(c.compressed_nbytes for c in nvme)
            self.device.host_io(
                total, "storage:nvme-read:batch", link=self.nvme_link
            )
            for chunk in nvme:
                chunk.tier = TIER_HOST
                self._host_bytes += chunk.compressed_nbytes
                self.stats.nvme_reads += 1
                self.stats.nvme_read_bytes += chunk.compressed_nbytes
        host = [c for c in cover if c.tier == TIER_HOST]
        if not host:
            return
        total = sum(c.compressed_nbytes for c in host)
        budget = self.device_budget
        if budget is not None and self._device_bytes + total > budget:
            for victim in self._lru_chunks(TIER_DEVICE):
                self._spill_chunk(victim)
                if self._device_bytes + total <= budget:
                    break
        buffers: List[DeviceBuffer] = []
        try:
            for chunk in host:
                buffers.append(
                    self.device.allocate(
                        chunk.compressed_nbytes, self._label("chunk", chunk)
                    )
                )
            self.device.transfer_to_device(
                total, "storage:promote:batch"
            )
        except Exception:
            # Allocation failure or transfer fault: release whatever was
            # freshly allocated; every chunk is still host-resident.
            for buffer in buffers:
                self.device.free(buffer)
            raise
        for chunk, buffer in zip(host, buffers):
            chunk.buffer = buffer
            chunk.tier = TIER_DEVICE
            self._host_bytes -= chunk.compressed_nbytes
            self._device_bytes += chunk.compressed_nbytes
            self.stats.promotes += 1
            self.stats.promoted_raw_bytes += chunk.raw_nbytes
            self.stats.promoted_compressed_bytes += chunk.compressed_nbytes

    def _spill_chunk(self, chunk: _Chunk) -> int:
        """Device -> host: charge the D2H transfer, then release.

        The transfer is charged *before* the buffer is released so an
        injected fault leaves the chunk fully resident on the device —
        no partial state, no double-free on retry.
        """
        nbytes = chunk.compressed_nbytes
        self.device.transfer_to_host(nbytes, self._label("spill", chunk))
        assert chunk.buffer is not None
        self.device.free(chunk.buffer)
        chunk.buffer = None
        chunk.tier = TIER_HOST
        self._device_bytes -= nbytes
        self._host_bytes += nbytes
        self.stats.spills += 1
        self.stats.spilled_bytes += nbytes
        self._enforce_host_budget()
        return nbytes

    def _demote_chunk(self, chunk: _Chunk) -> int:
        """Host -> NVMe: charge the blocking storage write."""
        nbytes = chunk.compressed_nbytes
        self.device.host_io(
            nbytes, self._label("nvme-write", chunk), link=self.nvme_link
        )
        chunk.tier = TIER_NVME
        self._host_bytes -= nbytes
        self.stats.nvme_writes += 1
        self.stats.nvme_write_bytes += nbytes
        return nbytes

    def _lru_chunks(self, tier: str) -> List[_Chunk]:
        """Unpinned chunks on ``tier``, coldest first.

        An eviction round builds this list once and walks it: moving one
        chunk off ``tier`` changes no other chunk's tick or pins and
        moves no other chunk onto or off ``tier`` (a spill's host-budget
        sweep only moves host chunks to NVMe), so the rest of the list is
        exactly what a rebuild would return.
        """
        victims = [
            chunk
            for chunks in self._columns.values()
            for chunk in chunks
            if chunk.tier == tier and chunk.pins == 0
        ]
        victims.sort(key=lambda chunk: chunk.tick)
        return victims

    def _enforce_host_budget(self) -> None:
        if self.host_budget is None or self._host_bytes <= self.host_budget:
            return
        for victim in self._lru_chunks(TIER_HOST):
            self._demote_chunk(victim)
            if self._host_bytes <= self.host_budget:
                return

    def _pressure_spill(self, nbytes_needed: int) -> int:
        """Memory-pressure callback: spill cold chunks down-tier.

        Returns the device bytes released.  A transfer fault mid-spill
        aborts the relief round (the store stays consistent; the failed
        chunk is still resident on the device), letting the allocation
        fail over to the normal OOM path.
        """
        freed = 0
        for victim in self._lru_chunks(TIER_DEVICE):
            if freed >= nbytes_needed:
                break
            try:
                freed += self._spill_chunk(victim)
            except TransferError:
                break
        return freed

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release device residency and detach from the device
        (idempotent); host/NVMe records stay readable for reuse."""
        if self._closed:
            return
        self._closed = True
        self.device.memory.unregister_pressure_callback(self._pressure_spill)
        for chunks in self._columns.values():
            for chunk in chunks:
                if chunk.tier == TIER_DEVICE and chunk.buffer is not None:
                    self.device.free(chunk.buffer)
                    chunk.buffer = None
                    chunk.tier = TIER_HOST
                    self._device_bytes -= chunk.compressed_nbytes
                    self._host_bytes += chunk.compressed_nbytes

    def __enter__(self) -> "TieredColumnStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class StoreSlice:
    """A row-range view of a store for chunked sub-executors.

    Fetches for ``table`` are clamped to ``[lo, hi)`` — the sub-executor
    sees a sliced catalog table, and this view makes the store promote
    only the covering chunks (the compressed footprint of one chunk of
    work), while other tables pass through unclamped.
    """

    def __init__(
        self, store: TieredColumnStore, table: str, lo: int, hi: int
    ) -> None:
        self._store = store
        self._table = table
        self._lo = lo
        self._hi = hi

    def manages(self, table: str, column: str) -> bool:
        return self._store.manages(table, column)

    def fetch(self, table: str, column: str, backend: Any):
        if table == self._table:
            return self._store.fetch(
                table, column, backend, self._lo, self._hi
            )
        return self._store.fetch(table, column, backend)

    def fetch_many(
        self, table: str, columns: Iterable[str], backend: Any
    ) -> Dict[str, Any]:
        if table == self._table:
            return self._store.fetch_many(
                table, columns, backend, self._lo, self._hi
            )
        return self._store.fetch_many(table, columns, backend)
