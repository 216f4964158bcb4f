"""Lightweight columnar compression codecs for the tiered store.

Three classic database codecs — run-length encoding, dictionary
encoding, and frame-of-reference bit-packing — plus a ``plain``
passthrough.  All of them operate on the column's *bit pattern* (an
unsigned view of the same item size), which makes the round trip
bit-exact for every dtype including floats with NaNs: two values are a
"run" or share a dictionary slot iff their bit patterns are identical,
and frame-of-reference arithmetic over unsigned bit patterns restores
them exactly.

Encode/decode are *simulated kernels*: :func:`encode_cost` and
:func:`decode_cost` describe the work to the device's roofline model so
the virtual clock pays for compression exactly like it pays for any
other operator.  Decompression reads the compressed bytes and writes the
raw bytes, so a high-ratio column decodes in close to ``raw /
dram_bandwidth`` — the on-device half of the "compression raises
effective interconnect bandwidth" argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from repro.gpu.kernel import KernelCost

#: Fixed per-encoded-column metadata footprint (codec tag, dtype, row
#: count, payload widths) charged against every codec including plain —
#: so "compressed never exceeds raw + header" is a meaningful invariant.
HEADER_BYTES = 32

#: Codec names, in chooser preference order for size ties.
CODECS = ("plain", "rle", "dict", "bitpack")

_UINT_BY_ITEMSIZE = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _bit_view(values: np.ndarray) -> np.ndarray:
    """The column reinterpreted as unsigned integers of the same width.

    Bitwise equality over this view is exact for every dtype (NaN == NaN
    at the bit level), which is what run detection and dictionary
    building need.
    """
    dtype = _UINT_BY_ITEMSIZE.get(values.dtype.itemsize)
    if dtype is None:
        raise ValueError(f"unsupported item size: {values.dtype}")
    return np.ascontiguousarray(values).view(dtype)


def _pack_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Pack ``values`` (non-negative uint64, all < 2**width) into a
    little-endian ``width``-bit stream stored as uint8.

    Value ``i`` occupies stream bits ``[i*width, (i+1)*width)``, least
    significant bit first; its bits are read off the value's own
    little-endian bytes, so the bit matrix costs one byte per bit.
    """
    if width == 0 or values.size == 0:
        return np.empty(0, dtype=np.uint8)
    octets = np.ascontiguousarray(values, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(
        octets.reshape(-1, 8), axis=1, count=width, bitorder="little"
    )
    return np.packbits(bits, bitorder="little")


def _unpack_bits(packed: np.ndarray, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`_pack_bits`: recover ``count`` uint64 values.

    Value ``i`` starts at stream bit ``i*width``, that is at bit
    ``shift = i*width & 7`` of byte ``start = i*width >> 3``.  The
    little-endian 64-bit word read at byte ``start`` therefore holds it
    at bit ``shift``, so one word gather and one shift recover
    ``64 - shift >= 57`` of its bits.  Only a value wider than 57 bits
    can spill into a ninth byte, whose bits land at ``64 - shift``;
    that shift is split as ``1 + (63 - shift)`` so it never reaches 64.
    Nine zero bytes of padding keep every read inside the buffer.

    The words overlap (one starts at every byte), so they are an
    unaligned ``strides=(1,)`` view.  Fancy indexing that view copies
    element by element; ``take`` first copies it into one aligned
    buffer (8 bytes per packed byte) and gathers from that, about three
    times faster (21 against 58 us for the 8,192 words of a width-12
    chunk on a 2-core VM).  The offsets are ``int64``, which ``take``
    reads without a cast on 64-bit platforms; ``offsets & 7`` is viewed
    as ``uint64`` for the shift, where 0-7 read the same.
    """
    if width == 0 or count == 0:
        return np.zeros(count, dtype=np.uint64)
    padded = np.zeros(len(packed) + 9, dtype=np.uint8)
    padded[:len(packed)] = packed
    words = np.ndarray(
        (len(padded) - 7,), dtype="<u8", buffer=padded, strides=(1,)
    )
    offsets = np.arange(0, count * width, width, dtype=np.int64)
    start = offsets >> 3
    shift = (offsets & 7).view(np.uint64)
    values = words.take(start)
    values >>= shift
    if width > 57:
        ninth = padded.take(start + 8).astype(np.uint64)
        values |= (ninth << np.uint64(1)) << (np.uint64(63) - shift)
    if width < 64:
        values &= np.uint64((1 << width) - 1)
    return values


@dataclass(frozen=True)
class EncodedColumn:
    """One column (or row-chunk of a column) in compressed form.

    ``payload`` holds the codec's arrays; what each slot means is
    codec-specific (documented on the encoder).  ``width`` is the packed
    bit width (dict codes / bitpack deltas); ``base`` the bitpack
    frame-of-reference, as the raw unsigned bit pattern.
    """

    codec: str
    n: int
    dtype: np.dtype
    payload: Tuple[np.ndarray, ...]
    width: int = 0
    base: int = 0

    @property
    def raw_nbytes(self) -> int:
        """Decoded size in bytes."""
        return self.n * self.dtype.itemsize

    @cached_property
    def compressed_nbytes(self) -> int:
        """Stored size in bytes, header included (computed once: the
        column is frozen and an array's ``nbytes`` cannot change)."""
        return HEADER_BYTES + sum(int(a.nbytes) for a in self.payload)

    @property
    def ratio(self) -> float:
        """Compression ratio raw/compressed (<= 1.0 means it grew)."""
        return self.raw_nbytes / max(self.compressed_nbytes, 1)


def encode_plain(values: np.ndarray) -> EncodedColumn:
    """Passthrough: payload = (copy of the raw values,)."""
    return EncodedColumn(
        codec="plain", n=len(values), dtype=values.dtype,
        payload=(np.array(values, copy=True),),
    )


def encode_rle(values: np.ndarray) -> EncodedColumn:
    """Run-length: payload = (run values, int32 run lengths)."""
    n = len(values)
    if n == 0:
        return EncodedColumn(
            codec="rle", n=0, dtype=values.dtype,
            payload=(values[:0].copy(), np.empty(0, dtype=np.int32)),
        )
    bits = _bit_view(values)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    lengths = np.diff(np.append(starts, n)).astype(np.int32)
    return EncodedColumn(
        codec="rle", n=n, dtype=values.dtype,
        payload=(np.array(values[starts], copy=True), lengths),
    )


def encode_dict(values: np.ndarray) -> EncodedColumn:
    """Dictionary: payload = (unique values, bit-packed codes)."""
    n = len(values)
    if n == 0:
        return EncodedColumn(
            codec="dict", n=0, dtype=values.dtype,
            payload=(values[:0].copy(), np.empty(0, dtype=np.uint8)),
        )
    bits = _bit_view(values)
    uniques, codes = np.unique(bits, return_inverse=True)
    width = max(int(len(uniques) - 1).bit_length(), 0)
    packed = _pack_bits(codes.astype(np.uint64), width)
    return EncodedColumn(
        codec="dict", n=n, dtype=values.dtype,
        payload=(uniques.view(values.dtype).copy(), packed),
        width=width,
    )


def encode_bitpack(values: np.ndarray) -> EncodedColumn:
    """Frame-of-reference bit-packing over the unsigned bit patterns:
    payload = (packed deltas,), ``base`` = min bit pattern."""
    n = len(values)
    if n == 0:
        return EncodedColumn(
            codec="bitpack", n=0, dtype=values.dtype,
            payload=(np.empty(0, dtype=np.uint8),),
        )
    bits = _bit_view(values).astype(np.uint64)
    base = int(bits.min())
    deltas = bits - np.uint64(base)
    width = int(deltas.max()).bit_length()
    packed = _pack_bits(deltas, width)
    return EncodedColumn(
        codec="bitpack", n=n, dtype=values.dtype,
        payload=(packed,), width=width, base=base,
    )


_ENCODERS = {
    "plain": encode_plain,
    "rle": encode_rle,
    "dict": encode_dict,
    "bitpack": encode_bitpack,
}


def encode(values: np.ndarray, codec: str) -> EncodedColumn:
    """Encode with a named codec."""
    try:
        encoder = _ENCODERS[codec]
    except KeyError:
        known = ", ".join(CODECS)
        raise ValueError(f"unknown codec {codec!r}; known: {known}")
    return encoder(values)


def decode(encoded: EncodedColumn) -> np.ndarray:
    """Exact inverse of :func:`encode` for every codec.

    The result is aligned, contiguous and writable, and never shares
    memory with the payload: ``repeat``, the dictionary ``take`` and
    :func:`_unpack_bits` each allocate, so only ``plain`` copies
    explicitly.  The dictionary is gathered with ``take`` on the codes
    viewed as ``int64`` (every code is below the dictionary's length),
    and the bitpack base is added in place to the freshly unpacked
    deltas before the narrowing cast.
    """
    dtype = encoded.dtype
    uint = _UINT_BY_ITEMSIZE[dtype.itemsize]
    if encoded.codec == "plain":
        return np.array(encoded.payload[0], copy=True)
    if encoded.codec == "rle":
        run_values, lengths = encoded.payload
        if encoded.n == 0:
            return np.empty(0, dtype=dtype)
        return np.repeat(run_values, lengths)
    if encoded.codec == "dict":
        uniques, packed = encoded.payload
        codes = _unpack_bits(packed, encoded.n, encoded.width)
        if len(uniques) == 0:
            return np.empty(0, dtype=dtype)
        return uniques.take(codes.view(np.int64))
    if encoded.codec == "bitpack":
        deltas = _unpack_bits(encoded.payload[0], encoded.n, encoded.width)
        deltas += np.uint64(encoded.base)
        return deltas.astype(uint, copy=False).view(dtype)
    raise ValueError(f"unknown codec {encoded.codec!r}")


#: Rough compute intensity per element by codec (shift/mask/gather work),
#: used to price the simulated encode/decode kernels.
_DECODE_FLOPS = {"plain": 0.0, "rle": 2.0, "dict": 3.0, "bitpack": 4.0}
_ENCODE_PASSES = {"plain": 1, "rle": 2, "dict": 3, "bitpack": 2}


def encode_cost(encoded: EncodedColumn) -> KernelCost:
    """Kernel cost of producing ``encoded`` from the raw column."""
    n = max(encoded.n, 1)
    return KernelCost(
        name=f"storage::encode_{encoded.codec}",
        elements=encoded.n,
        flops_per_element=_DECODE_FLOPS[encoded.codec] + 1.0,
        bytes_read_per_element=float(encoded.dtype.itemsize),
        bytes_written_per_element=encoded.compressed_nbytes / n,
        fixed_bytes=HEADER_BYTES,
        passes=_ENCODE_PASSES[encoded.codec],
    )


def decode_cost(encoded: EncodedColumn) -> KernelCost:
    """Kernel cost of decompressing ``encoded`` back to raw values.

    Reads the compressed bytes, writes the raw bytes: the memory-bound
    roofline makes high-ratio columns decode at a fraction of the raw
    scan cost, which is what tier promotion amortises against.
    """
    n = max(encoded.n, 1)
    return KernelCost(
        name=f"storage::decode_{encoded.codec}",
        elements=encoded.n,
        flops_per_element=_DECODE_FLOPS[encoded.codec],
        bytes_read_per_element=encoded.compressed_nbytes / n,
        bytes_written_per_element=float(encoded.dtype.itemsize),
        fixed_bytes=HEADER_BYTES,
    )


def batch_decode_cost(columns: Sequence[EncodedColumn]) -> KernelCost:
    """One kernel decompressing several chunks back-to-back.

    A fetch decodes all its covering chunks in a single batched launch —
    the per-launch fixed cost is paid once, which is what keeps small
    store chunks viable.  The cost is the aggregate of the per-chunk
    decode work, at the compute intensity of the heaviest codec present.
    """
    n = max(sum(e.n for e in columns), 1)
    compressed = sum(e.compressed_nbytes for e in columns)
    raw = sum(e.raw_nbytes for e in columns)
    flops = max((_DECODE_FLOPS[e.codec] for e in columns), default=0.0)
    return KernelCost(
        name="storage::decode_batch",
        elements=sum(e.n for e in columns),
        flops_per_element=flops,
        bytes_read_per_element=compressed / n,
        bytes_written_per_element=raw / n,
        fixed_bytes=HEADER_BYTES,
    )
