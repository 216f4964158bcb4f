"""Compressed columnar storage with tiered (device/host/NVMe) residency.

See DESIGN.md ("Compressed storage and tier pricing"): codecs encode
columns bit-exactly, a sampled chooser picks the smallest, and the
:class:`TieredColumnStore` moves compressed chunks between tiers priced
on the simulated links — the engine's larger-than-memory path.
"""

from repro.storage.chooser import (
    SAMPLE_ROWS,
    ColumnStats,
    choose_codec,
    encode_best,
    estimate_sizes,
    sample_stats,
)
from repro.storage.codecs import (
    CODECS,
    HEADER_BYTES,
    EncodedColumn,
    batch_decode_cost,
    decode,
    decode_cost,
    encode,
    encode_cost,
)
from repro.storage.tiered import (
    CHUNK_ROWS,
    TIER_DEVICE,
    TIER_HOST,
    TIER_NVME,
    TIERS,
    StoreSlice,
    StoreStats,
    TieredColumnStore,
)

__all__ = [
    "CODECS",
    "HEADER_BYTES",
    "EncodedColumn",
    "batch_decode_cost",
    "decode",
    "decode_cost",
    "encode",
    "encode_cost",
    "SAMPLE_ROWS",
    "ColumnStats",
    "choose_codec",
    "encode_best",
    "estimate_sizes",
    "sample_stats",
    "CHUNK_ROWS",
    "TIER_DEVICE",
    "TIER_HOST",
    "TIER_NVME",
    "TIERS",
    "StoreSlice",
    "StoreStats",
    "TieredColumnStore",
]
