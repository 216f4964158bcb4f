"""Property tests for the storage codecs and the codec chooser.

The contract every tier move relies on: ``decode(encode(x, codec))`` is
*bit-exact* for every codec and every supported dtype — including floats
with NaNs and signed negatives, whose bit patterns must survive the
unsigned-view round trip — and ``encode_best`` never produces something
larger than ``raw + HEADER_BYTES``.  Hypothesis drives the value
distributions (runs, low cardinality, wide ranges); deterministic edge
cases (empty, single run, all-distinct) are pinned explicitly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.storage import (
    CODECS,
    HEADER_BYTES,
    batch_decode_cost,
    decode,
    decode_cost,
    encode,
    encode_best,
    encode_cost,
)
from repro.storage.codecs import _pack_bits, _unpack_bits

DTYPES = (np.int64, np.float64, np.int32, np.uint16, np.uint8)


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-pattern equality (NaN-safe, unlike ``array_equal``)."""
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _arrays(draw, dtype):
    """A value pool biased toward runs and repeats, then sampled."""
    if np.issubdtype(dtype, np.floating):
        pool = draw(
            st.lists(
                st.floats(
                    allow_nan=True, allow_infinity=True, width=64
                ),
                min_size=1,
                max_size=8,
            )
        )
    else:
        info = np.iinfo(dtype)
        pool = draw(
            st.lists(
                st.integers(min_value=int(info.min), max_value=int(info.max)),
                min_size=1,
                max_size=8,
            )
        )
    picks = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(pool) - 1),
            min_size=0,
            max_size=200,
        )
    )
    run = draw(st.integers(min_value=1, max_value=5))
    values = np.array(
        [pool[i] for i in picks for _ in range(run)], dtype=dtype
    )
    return values


@st.composite
def columns(draw):
    dtype = draw(st.sampled_from(DTYPES))
    return _arrays(draw, np.dtype(dtype))


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(values=columns(), codec=st.sampled_from(CODECS))
    def test_every_codec_round_trips_bit_exactly(self, values, codec):
        encoded = encode(values, codec)
        decoded = decode(encoded)
        assert _bits_equal(decoded, values)

    @settings(max_examples=100, deadline=None)
    @given(values=columns())
    def test_chooser_round_trips_bit_exactly(self, values):
        encoded = encode_best(values)
        assert _bits_equal(decode(encoded), values)

    @settings(max_examples=100, deadline=None)
    @given(values=columns())
    def test_chooser_never_exceeds_raw_plus_header(self, values):
        encoded = encode_best(values)
        assert encoded.compressed_nbytes <= values.nbytes + HEADER_BYTES

    @settings(max_examples=60, deadline=None)
    @given(values=columns(), codec=st.sampled_from(CODECS))
    def test_costs_are_well_formed(self, values, codec):
        encoded = encode(values, codec)
        for cost in (encode_cost(encoded), decode_cost(encoded)):
            assert cost.elements == len(values)
            assert cost.flops_per_element >= 0.0
            assert cost.bytes_read_per_element >= 0.0
            assert cost.bytes_written_per_element >= 0.0


class TestEdgeCases:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("codec", CODECS)
    def test_empty_column(self, dtype, codec):
        values = np.empty(0, dtype=dtype)
        encoded = encode(values, codec)
        decoded = decode(encoded)
        assert decoded.dtype == np.dtype(dtype)
        assert len(decoded) == 0

    @pytest.mark.parametrize("codec", CODECS)
    def test_single_run(self, codec):
        values = np.full(4096, 42, dtype=np.int64)
        encoded = encode(values, codec)
        assert _bits_equal(decode(encoded), values)
        if codec in ("rle", "dict", "bitpack"):
            assert encoded.compressed_nbytes < values.nbytes

    @pytest.mark.parametrize("codec", CODECS)
    def test_all_distinct(self, codec):
        rng = np.random.default_rng(3)
        values = rng.permutation(4096).astype(np.int64)
        encoded = encode(values, codec)
        assert _bits_equal(decode(encoded), values)

    def test_nan_variants_survive(self):
        """Distinct NaN bit patterns stay distinct through every codec."""
        quiet = np.float64(np.nan)
        signal = np.frombuffer(
            np.uint64(0x7FF0000000000001).tobytes(), dtype=np.float64
        )[0]
        values = np.array([quiet, signal, -0.0, 0.0, np.inf], dtype=np.float64)
        for codec in CODECS:
            assert _bits_equal(decode(encode(values, codec)), values)

    def test_all_distinct_chooser_falls_back_near_plain(self):
        rng = np.random.default_rng(9)
        values = rng.standard_normal(2048)
        encoded = encode_best(values)
        assert encoded.compressed_nbytes <= values.nbytes + HEADER_BYTES

    def test_unknown_codec_is_rejected(self):
        with pytest.raises(ValueError, match="unknown codec"):
            encode(np.arange(4), "zstd")


def _pack_bits_oracle(values: np.ndarray, width: int) -> np.ndarray:
    """The stream bit by bit: value ``i``'s bit ``b`` is stream bit
    ``i*width + b``, packed least significant bit first."""
    if width == 0 or values.size == 0:
        return np.empty(0, dtype=np.uint8)
    shifts = np.arange(width, dtype=np.uint64)
    bits = (values[:, None] >> shifts) & np.uint64(1)
    return np.packbits(bits.astype(np.uint8), bitorder="little")


class TestBitStream:
    """Every width 0-64, so the unpacker's nine-byte branch (widths
    above 57) is pinned deterministically, not left to Hypothesis."""

    @pytest.mark.parametrize("width", range(65))
    def test_pack_matches_oracle_and_unpack_inverts(self, width):
        """The decoder adds the bitpack base in place to what the unpacker
        returns, so that must be a fresh, aligned, contiguous array, and
        the packed stream must come back untouched."""
        rng = np.random.default_rng(width)
        top = (1 << width) - 1
        for count in (1, 7, 8, 9, 63, 64, 65, 8191, 8192):
            values = rng.integers(
                0, top, count, dtype=np.uint64, endpoint=True
            )
            values[0] = 0
            values[-1] = top  # with count 1, only the all-ones value
            packed = _pack_bits(values, width)
            stream = _pack_bits_oracle(values, width).tobytes()
            assert packed.dtype == np.uint8
            assert packed.tobytes() == stream, count
            unpacked = _unpack_bits(packed, count, width)
            assert unpacked.dtype == np.uint64
            assert np.array_equal(unpacked, values), count
            assert unpacked.flags.c_contiguous and unpacked.flags.aligned
            assert not np.shares_memory(unpacked, packed), count
            assert packed.tobytes() == stream, count


class TestDecodeOwnsItsResult:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("codec", CODECS)
    def test_decode_never_aliases_the_payload(self, dtype, codec):
        """Rows offset from zero, so bitpack has a base, which decode adds
        in place: the result is aligned, contiguous and writable, and
        every payload byte is as it was."""
        values = np.array([43, 43, 43, 41, 42, 42, 47, 40] * 64).astype(dtype)
        encoded = encode(values, codec)
        payload = [array.tobytes() for array in encoded.payload]
        first = decode(encoded)
        for array in encoded.payload:
            assert not np.shares_memory(first, array)
        flags = first.flags
        assert flags.aligned and flags.c_contiguous and flags.writeable
        assert [array.tobytes() for array in encoded.payload] == payload
        first.view(np.uint8)[:] ^= 0xFF
        assert _bits_equal(decode(encoded), values)


class TestBatchDecodeCost:
    def test_batch_aggregates_per_chunk_work(self):
        parts = [
            encode(np.full(1000, 7, dtype=np.int64), "rle"),
            encode(np.arange(1000, dtype=np.int64), "bitpack"),
        ]
        cost = batch_decode_cost(parts)
        assert cost.elements == 2000
        total_read = cost.bytes_read_per_element * cost.elements
        total_written = cost.bytes_written_per_element * cost.elements
        assert total_read == pytest.approx(
            sum(p.compressed_nbytes for p in parts)
        )
        assert total_written == pytest.approx(
            sum(p.raw_nbytes for p in parts)
        )

    def test_empty_batch_is_priced_as_a_noop(self):
        cost = batch_decode_cost([])
        assert cost.elements == 0
