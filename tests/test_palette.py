import numpy as np
import pytest

from palette_oracle import (
    BitReader,
    BitWriter,
    ccd_encode,
    huffman_decode_symbol,
    huffman_encode,
    rccd_decode,
)

from dcpbench.bitio import CorruptStreamError
from dcpbench.dcp_codecs import CompressedBlock, dcp_decompress_blocks
from dcpbench.huffman import HuffmanTable, build_table, canonical_codes, code_lengths
from dcpbench.palette import Ccd, Rccd, build_ccd, largest_pow2_le


def ranked(*pairs):
    return list(pairs)


def test_build_ccd_keeps_rank_order():
    ccd = build_ccd(ranked((7, 80), (3, 18), (1, 1), (9, 1)), 2)
    assert ccd.colors.tolist() == [7, 3]
    codes, hit = ccd.lookup(np.array([7, 3, 1], dtype=np.uint32))
    assert codes.tolist() == [0, 1, -1] and hit.tolist() == [True, True, False]


def test_build_ccd_degrades_to_available():
    assert len(build_ccd(ranked((5, 10)), 64)) == 1
    assert len(build_ccd(ranked((5, 10), (6, 9), (7, 8)), 4)) == 2
    assert len(build_ccd([], 64)) == 0


def test_build_ccd_rejects_non_pow2():
    with pytest.raises(ValueError):
        build_ccd(ranked((1, 1), (2, 1), (3, 1)), 3)


def test_prefix_property():
    pairs = [(c, 100 - c) for c in range(64)]
    for k in (1, 2, 4, 8, 16, 32):
        small = build_ccd(pairs, k).colors.tolist()
        big = build_ccd(pairs, 2 * k).colors.tolist()
        assert big[:k] == small


def test_encode_decode_identity(rng):
    colors = np.unique(rng.integers(0, 1 << 32, size=64, dtype=np.uint64).astype(np.uint32))
    ccd = Ccd(colors)
    for c in colors.tolist():
        assert rccd_decode(ccd, ccd_encode(ccd, c)) == c
    # A forward palette serializes as its reverse palette.
    assert ccd.to_bytes() == Rccd(colors).to_bytes()
    assert ccd.byte_size == Rccd(colors).byte_size


def test_decode_out_of_range():
    # 64 2-bit codes, the first 3: a 3-entry palette has no color for it.
    codes = bytes([0b11_00_00_00]) + bytes(15)
    comp = CompressedBlock((1,) * 16, codes, 128, 128)
    assert dcp_decompress_blocks([comp], Ccd([1, 2, 3, 4]))[0, 0, 0] == 4
    with pytest.raises(CorruptStreamError):
        dcp_decompress_blocks([comp], Rccd([1, 2, 3]))
    with pytest.raises(CorruptStreamError):
        rccd_decode(Rccd([1, 2]), -1)


def test_rccd_serialization_round_trip(rng):
    colors = np.unique(rng.integers(0, 1 << 32, size=64, dtype=np.uint64).astype(np.uint32))
    rccd = Rccd(colors)
    blob = rccd.to_bytes()
    assert len(blob) == rccd.byte_size == 2 + 4 * len(colors)
    back = Rccd.from_bytes(blob)
    assert np.array_equal(back.colors, rccd.colors)


def test_rccd_64_entries_is_258_bytes():
    assert Rccd(np.arange(64, dtype=np.uint32)).byte_size == 258


def test_vector_lookup_matches_scalar(rng):
    colors = np.unique(rng.integers(0, 256, size=16, dtype=np.uint64).astype(np.uint32))
    ccd = Ccd(colors)
    pixels = rng.integers(0, 256, size=(8, 8), dtype=np.uint64).astype(np.uint32)
    codes, hit = ccd.lookup(pixels)
    for y in range(8):
        for x in range(8):
            want = ccd_encode(ccd, int(pixels[y, x]))
            if want is None:
                assert not hit[y, x]
            else:
                assert hit[y, x] and codes[y, x] == want


def test_bits_per_code():
    assert Ccd([]).bits_per_code == 0
    assert Ccd([1]).bits_per_code == 0
    assert Ccd([1, 2]).bits_per_code == 1
    assert Ccd(range(64)).bits_per_code == 6


def test_largest_pow2_le():
    assert [largest_pow2_le(n) for n in (0, 1, 2, 3, 64, 65)] == [0, 1, 2, 2, 64, 64]


# ---------------------------------------------------------------------------
# Huffman codes

def test_skewed_pair_lengths():
    # 49.5/49.5/0.5/0.5 puts the frequent symbols at 1 and 2 bits.
    lengths = code_lengths([495, 495, 5, 5])
    assert lengths == [1, 2, 3, 3]


def test_two_equal_symbols():
    assert code_lengths([1, 1]) == [1, 1]


def test_single_symbol_gets_one_bit():
    assert code_lengths([42]) == [1]


def test_canonical_codes_prefix_free(rng):
    for _ in range(30):
        n = int(rng.integers(2, 40))
        freqs = rng.integers(1, 1000, size=n).tolist()
        lengths = code_lengths(freqs)
        codes = canonical_codes(lengths)
        words = sorted(format(c, f"0{l}b") for c, l in zip(codes, lengths))
        for a, b in zip(words, words[1:]):
            assert not b.startswith(a)


def test_average_length_within_entropy_bound(rng):
    for _ in range(25):
        n = int(rng.integers(2, 32))
        freqs = rng.integers(1, 500, size=n)
        total = freqs.sum()
        p = freqs / total
        entropy = float(-(p * np.log2(p)).sum())
        lengths = np.array(code_lengths(freqs.tolist()), dtype=float)
        avg = float((p * lengths).sum())
        assert entropy <= avg + 1e-9
        assert avg < entropy + 1


def test_table_stream_round_trip(rng):
    colors = np.unique(rng.integers(0, 1 << 32, size=20, dtype=np.uint64).astype(np.uint32))
    freqs = rng.integers(1, 100, size=len(colors)).tolist()
    table = build_table(list(zip(colors.tolist(), freqs)))
    symbols = rng.choice(colors, size=100).tolist()
    w = BitWriter()
    for s in symbols:
        code, length = huffman_encode(table, s)
        w.write(code, length)
    r = BitReader(w.to_bytes(), w.bit_length)
    assert [huffman_decode_symbol(table, r) for _ in symbols] == symbols
    # The table finds the same codes at the same offsets.
    buf = np.frombuffer(w.to_bytes() + bytes(8), dtype=np.uint8)
    at = np.cumsum([0] + [huffman_encode(table, s)[1] for s in symbols])[:-1]
    lengths, entries = table.decode_at(buf, at)
    assert table.colors[entries].tolist() == symbols
    assert lengths.tolist() == [huffman_encode(table, s)[1] for s in symbols]


def test_table_lookup_matches_encode(rng):
    colors = [10, 20, 30]
    table = build_table([(10, 5), (20, 3), (30, 1)])
    pixels = np.array([[10, 20], [30, 99]], dtype=np.uint32)
    entries, hit = table.lookup(pixels)
    assert hit.tolist() == [[True, True], [True, False]] and entries[1, 1] == -1
    for value, e in ((10, entries[0, 0]), (20, entries[0, 1]), (30, entries[1, 0])):
        assert huffman_encode(table, value)[1] == table.lengths[e]
        assert table.colors[e] == value


def test_table_serialization_round_trip(rng):
    colors = np.unique(rng.integers(0, 1 << 32, size=20, dtype=np.uint64).astype(np.uint32))
    freqs = rng.integers(1, 100, size=len(colors)).tolist()
    table = build_table(list(zip(colors.tolist(), freqs)))
    blob = table.to_bytes()
    assert len(blob) == table.byte_size == 2 + 5 * len(colors)
    back = HuffmanTable.from_bytes(blob + b"trailing bytes are not read")
    assert back.byte_size == table.byte_size
    assert np.array_equal(back.colors, table.colors)
    assert np.array_equal(back.lengths, table.lengths)
    assert back.codes == table.codes
    assert HuffmanTable.from_bytes(HuffmanTable([], []).to_bytes()).byte_size == 2


@pytest.mark.parametrize("palette", [
    build_table([(7, 50), (3, 20), (9, 5), (1, 1)]),
    Rccd([7, 3, 9, 1]),
], ids=["huffman", "rccd"])
def test_from_bytes_rejects_every_truncation(palette):
    blob = palette.to_bytes()
    for cut in range(len(blob)):
        with pytest.raises(CorruptStreamError):
            type(palette).from_bytes(blob[:cut])
