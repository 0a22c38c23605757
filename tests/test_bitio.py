import numpy as np
import pytest
from palette_oracle import BitReader, BitWriter

from dcpbench.bitio import CorruptStreamError, join_streams, pack_fields, read_fields


def test_reads_across_window_edges_match_writer():
    # Widths 1..33 in turn put read boundaries on every bit offset of the
    # window edges; the stream spans several windows and ends mid-byte.
    rng = np.random.default_rng(5)
    widths = [1 + i % 33 for i in range(120)]
    values = [int(rng.integers(0, 1 << w)) for w in widths]
    w = BitWriter()
    for value, width in zip(values, widths):
        w.write(value, width)
    data, nbits = w.to_bytes(), w.bit_length
    assert len(data) > 3 * BitReader.WINDOW_BYTES and nbits % 8
    r = BitReader(data, nbits)
    assert [r.read(width) for width in widths] == values
    assert r.tell() == nbits
    with pytest.raises(CorruptStreamError):
        r.read(1)


def test_read_wider_than_window():
    width = 8 * BitReader.WINDOW_BYTES + 13
    value = (1 << width) - 12345
    w = BitWriter()
    w.write(5, 3)
    w.write(value, width)
    r = BitReader(w.to_bytes(), w.bit_length)
    assert (r.read(3), r.read(width)) == (5, value)


def test_declared_length_stops_reads_inside_padding():
    w = BitWriter()
    w.write(0b101, 3)
    r = BitReader(w.to_bytes() + bytes(2 * BitReader.WINDOW_BYTES), 3)
    assert r.read(3) == 0b101
    with pytest.raises(CorruptStreamError):
        r.read(1)
    with pytest.raises(ValueError):
        BitReader(b"\x00", 9)


def test_peek_leaves_the_bits_unread():
    w = BitWriter()
    w.write(0b1011, 4)
    w.write(0x1234, 16)
    r = BitReader(w.to_bytes(), w.bit_length)
    assert r.remaining() == 20
    assert r.peek(4) == 0b1011 and r.tell() == 0
    assert r.read(4) == 0b1011
    assert r.peek(16) == 0x1234 and r.remaining() == 16
    with pytest.raises(CorruptStreamError):
        r.peek(17)


# ---------------------------------------------------------------------------
# The field packer and reader against the scalar writer

def _rows(rng, n, fields):
    widths = rng.integers(0, 33, size=(n, fields))
    widths[rng.random(widths.shape) < 0.2] = 0
    widths[:, :2] = 32                                   # full-width fields at a row start
    widths[3] = 0                                        # an empty row
    widths[4] = 1                                        # a row ending mid-byte
    values = (rng.integers(0, 1 << 32, size=widths.shape, dtype=np.uint64)
              & ((np.uint64(1) << widths.astype(np.uint64)) - np.uint64(1)))
    return widths, values


def test_pack_fields_matches_writer():
    rng = np.random.default_rng(11)
    widths, values = _rows(rng, 40, 70)
    payloads, nbits = pack_fields(widths, values)
    for row_w, row_v, payload, n in zip(widths, values, payloads, nbits.tolist()):
        w = BitWriter()
        for width, value in zip(row_w.tolist(), row_v.tolist()):
            w.write(value, width)
        assert (payload, n) == (w.to_bytes(), w.bit_length)


def test_read_fields_reads_what_was_packed():
    rng = np.random.default_rng(12)
    widths, values = _rows(rng, 30, 50)
    payloads, nbits = pack_fields(widths, values)
    buf, base = join_streams(payloads, nbits)
    at = base[:, None] + np.cumsum(widths, axis=1) - widths
    assert np.array_equal(read_fields(buf, at, widths), values)
    # A field may end in the zero slack past the last byte.
    assert read_fields(buf, [8 * len(b"".join(payloads))], 32).tolist() == [0]


def test_join_streams_rejects_bits_past_the_bytes():
    with pytest.raises(CorruptStreamError):
        join_streams([b"\x00", b"\x00\x00"], [8, 17])
