import numpy as np
import pytest

import palette_oracle
from conftest import make_block, rand_palette
from palette_oracle import (
    BitReader,
    BitWriter,
    ccd_decode,
    ccd_encode,
    huffman_decode_symbol,
    huffman_encode,
)

import dcpbench.palette
from dcpbench.bitio import FIELD_MAX_BITS, CorruptStreamError
from dcpbench.dcp_codecs import dcp_decompress_blocks, sub_blocks
from dcpbench.fvc import MAX_ENTRY_COUNT
from dcpbench.huffman import HuffmanTable, build_table, canonical_codes, code_lengths
from dcpbench.palette import RUN_HEAD_SHARE, Ccd, build_ccd, largest_pow2_le


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
        assert ccd_decode(ccd, ccd_encode(ccd, c)) == c
    # A palette serializes as its reverse palette: the colors in code order.
    assert ccd.to_bytes() == len(colors).to_bytes(2, "little") + colors.astype("<u4").tobytes()
    assert ccd.byte_size == len(ccd.to_bytes())


def test_decode_out_of_range():
    # 64 2-bit codes, the first 3: a 3-entry palette has no color for it.
    codes = bytes([0b11_00_00_00]) + bytes(15)
    csb = np.ones((1, 16), dtype=np.int64)
    assert dcp_decompress_blocks(csb, codes, Ccd([1, 2, 3, 4]))[0, 0, 0] == 4
    with pytest.raises(CorruptStreamError):
        dcp_decompress_blocks(csb, codes, Ccd([1, 2, 3]))
    with pytest.raises(CorruptStreamError):
        ccd_decode(Ccd([1, 2]), -1)


def test_rccd_serialization_round_trip(rng):
    colors = np.unique(rng.integers(0, 1 << 32, size=64, dtype=np.uint64).astype(np.uint32))
    ccd = Ccd(colors)
    blob = ccd.to_bytes()
    assert len(blob) == ccd.byte_size == 2 + 4 * len(colors)
    back = Ccd.from_bytes(blob + b"\x00")                  # bytes past the palette are not its
    assert np.array_equal(back.colors, ccd.colors)
    codes, hit = back.lookup(ccd.colors)
    assert hit.all() and codes.tolist() == list(range(len(colors)))


def test_rccd_64_entries_is_258_bytes():
    assert Ccd(np.arange(64, dtype=np.uint32)).byte_size == 258


def test_reverse_palette_that_repeats_a_color_raises():
    blob = Ccd([7, 3, 9, 1]).to_bytes()
    repeat = blob[:-4] + blob[2:6]                          # the last color is the first again
    with pytest.raises(ValueError, match="unique"):
        Ccd([7, 3, 9, 7])
    with pytest.raises(CorruptStreamError, match="unique"):
        Ccd.from_bytes(repeat)


def test_empty_palettes_code_nothing():
    for palette in (Ccd(), HuffmanTable()):
        assert len(palette) == 0 and palette.to_bytes() == b"\x00\x00"
        assert len(type(palette).from_bytes(palette.to_bytes())) == 0
        codes, hit = palette.lookup(np.arange(6, dtype=np.uint32).reshape(2, 3))
        assert (codes == -1).all() and not hit.any()
    assert Ccd().bits_per_code == 0


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


# ---------------------------------------------------------------------------
# Lookup: run heads or every pixel, pinned to the per-pixel oracle


def run_count(pixels: np.ndarray) -> int:
    flat = np.ravel(pixels)
    return int(np.count_nonzero(flat[1:] != flat[:-1])) + 1 if flat.size else 0


def assert_lookup_matches_oracle(palette, pixels):
    got = palette.lookup(pixels)
    want = palette_oracle.sorted_lookup(palette._sorted, pixels)
    for g, w in zip(got, want):
        assert g.shape == w.shape == pixels.shape and g.dtype == w.dtype
        assert np.array_equal(g, w)


def run_pixels(rng, colors: np.ndarray, runs: int, mean_length: int) -> np.ndarray:
    """`runs` raster runs of lengths 1..2*mean_length-1, each a palette color
    or a color outside it; neighbouring runs always differ."""
    outside = np.array([0x12345678, 0x00ABCDEF], dtype=np.uint32)
    outside = outside[~np.isin(outside, colors)]
    pool = np.concatenate([colors, outside]) if colors.size else outside
    picks = [int(rng.integers(len(pool)))]
    while len(picks) < runs:
        pick = int(rng.integers(len(pool)))
        if pool[pick] != pool[picks[-1]]:
            picks.append(pick)
    lengths = rng.integers(1, 2 * mean_length, size=runs)
    return np.repeat(pool[picks], lengths).astype(np.uint32)


def ccd_of(rng, count: int) -> Ccd:
    return Ccd(rand_palette(rng, count))


def table_of(rng, count: int) -> HuffmanTable:
    colors = rand_palette(rng, count).tolist()
    return build_table([(c, int(f)) for c, f in zip(colors, rng.integers(1, 1000, size=count))])


@pytest.mark.parametrize("make", [ccd_of, table_of], ids=["ccd", "huffman"])
@pytest.mark.parametrize("count", [0, 1, 64, MAX_ENTRY_COUNT])
@pytest.mark.parametrize("mean_length", [1, 4, 32])
def test_lookup_matches_oracle(rng, make, count, mean_length):
    palette = make(rng, count)
    assert len(palette) == count
    # Rows of 61: runs cross row boundaries wherever they fall.
    flat = run_pixels(rng, palette.colors, 600, mean_length)
    rows = flat[:flat.size // 61 * 61].reshape(-1, 61)
    assert (run_count(rows) * RUN_HEAD_SHARE <= rows.size) == (mean_length == 32)
    assert_lookup_matches_oracle(palette, rows)
    assert_lookup_matches_oracle(palette, flat)


def test_lookup_bands_match_whole_frame(rng):
    # A frame looked up in bands of block rows, as the frame-cost engines
    # are fed: long runs cross every band boundary, and the last bands are
    # too short of runs to take the run heads.
    ccd = ccd_of(rng, 64)
    long_runs = run_pixels(rng, ccd.colors, 100, 400)[:40 * 64].reshape(40, 64)
    noise = run_pixels(rng, ccd.colors, 24 * 64, 1)[:24 * 64].reshape(24, 64)
    frame = np.concatenate([long_runs, noise])
    bands = [frame[lo:lo + 16] for lo in range(0, 64, 16)]
    assert [run_count(b) * RUN_HEAD_SHARE <= b.size for b in bands] == [True, True, False, False]
    for band in bands:
        assert_lookup_matches_oracle(ccd, band)
    want = palette_oracle.sorted_lookup(ccd._sorted, frame)
    for part, whole in zip(zip(*(ccd.lookup(b) for b in bands)), want):
        assert np.array_equal(np.concatenate(part), whole)


@pytest.mark.parametrize("front", [False, True], ids=["spread", "front"])
@pytest.mark.parametrize("extra, searched", [(0, 64), (1, 512)])
def test_lookup_takes_run_heads_up_to_one_eighth(rng, monkeypatch, extra, searched, front):
    # 512 pixels: 64 runs are exactly 1/8 and search only the heads; 65
    # runs search every pixel. The runs are spread evenly, or all but the
    # last are single pixels, so that the first quarter holds them all.
    ccd = ccd_of(rng, 16)
    runs = 512 // RUN_HEAD_SHARE + extra
    colors = np.resize(np.concatenate([ccd.colors, [0x12345678]]).astype(np.uint32), runs)
    if front:
        lengths = np.ones(runs, dtype=np.int64)
        lengths[-1] = 512 - (runs - 1)
    else:
        lengths = np.full(runs, 512 // runs)
        lengths[:512 - lengths.sum()] += 1
    pixels = np.repeat(colors, lengths).reshape(16, 32)
    assert run_count(pixels) == runs
    sizes = []
    real = dcpbench.palette._search

    def recording(colors, order, pixels):
        sizes.append(pixels.size)
        return real(colors, order, pixels)

    monkeypatch.setattr(dcpbench.palette, "_search", recording)
    assert_lookup_matches_oracle(ccd, pixels)
    assert sizes == [searched]


@pytest.mark.parametrize("shape", [(0,), (0, 4), (1,), (1, 1)])
@pytest.mark.parametrize("color", [7, 8])
def test_lookup_tiny_inputs(shape, color):
    ccd = Ccd([7, 3])
    assert_lookup_matches_oracle(ccd, np.full(shape, color, dtype=np.uint32))
    assert_lookup_matches_oracle(Ccd([]), np.full(shape, color, dtype=np.uint32))


@pytest.mark.parametrize("kind", ["ui", "uniform", "random"])
def test_lookup_on_sub_block_stacks(rng, kind):
    # The exact encoders look up (n, 16, 4) sub-block stacks, and a view
    # with strides of any order must give the same answer as its copy.
    colors = rand_palette(rng, 16)
    ccd = Ccd(colors[:12])
    pixels = sub_blocks(np.stack([make_block(kind, rng, colors) for _ in range(40)]))
    assert pixels.shape == (40, 16, 4)
    strided = np.ascontiguousarray(pixels.transpose(2, 1, 0)).transpose(2, 1, 0)
    assert not strided.flags.c_contiguous and np.array_equal(strided, pixels)
    assert (run_count(pixels) * RUN_HEAD_SHARE <= pixels.size) == (kind == "uniform")
    assert_lookup_matches_oracle(ccd, pixels)
    assert_lookup_matches_oracle(ccd, strided)
    assert_lookup_matches_oracle(ccd, pixels[::2, :, 1:3])


def test_lookup_on_views_in_other_memory_orders(rng):
    # Runs are taken in raster order whatever the memory order: vertical
    # stripes have few runs both ways, and column order is not raster order.
    ccd = ccd_of(rng, 8)
    colors = np.array([ccd.colors[0], 0x12345678, ccd.colors[5], ccd.colors[7]], dtype=np.uint32)
    stripes = colors[np.arange(64) // 16]
    pixels = np.repeat(stripes[None, :], 40, axis=0)
    for view in (np.asfortranarray(pixels), pixels[::-1, ::-1], pixels.T):
        assert run_count(view) * RUN_HEAD_SHARE <= view.size
        assert_lookup_matches_oracle(ccd, view)


def test_lookup_extreme_colors():
    ccd = Ccd([0xFFFFFFFF, 0, 5])
    row = np.array([0, 0xFFFFFFFF, 1, 0xFFFFFFFE, 5], dtype=np.uint32)
    for length in (1, 40):
        pixels = np.repeat(row, length)
        assert_lookup_matches_oracle(ccd, pixels)
        index, hit = ccd.lookup(pixels)
        assert index[::length].tolist() == [1, 0, -1, -1, 2]
        assert hit[::length].tolist() == [True, True, False, False, True]


@pytest.mark.parametrize("length", [1, 40])
def test_lookup_duplicated_color_finds_first(length):
    # A table may repeat a color; the encoder must code its first entry.
    table = HuffmanTable([9, 7, 3, 7, 7], [2, 2, 2, 3, 3])
    pixels = np.repeat(np.array([7, 3, 7, 9, 4], dtype=np.uint32), length)
    assert_lookup_matches_oracle(table, pixels)
    index, hit = table.lookup(pixels)
    assert index[::length].tolist() == [1, 2, 1, 0, -1]
    assert hit[::length].tolist() == [True, True, True, True, False]


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


def test_code_lengths_match_the_parent_map_oracle(rng):
    # Few distinct weights give many ties; ranked and unranked orders, and
    # weights up to 1e9, over rankings up to the largest collector's.
    for _ in range(300):
        n = int(rng.integers(0, MAX_ENTRY_COUNT + 1))
        freqs = rng.integers(1, int(rng.choice([4, 1000, 10**9])), size=n).tolist()
        if rng.random() < 0.5:
            freqs.sort(reverse=True)
        assert code_lengths(freqs) == palette_oracle.code_lengths(freqs)


def test_two_equal_symbols():
    assert code_lengths([1, 1]) == [1, 1]


def test_single_symbol_gets_one_bit():
    assert code_lengths([42]) == [1]


def test_canonical_codes_prefix_free(rng):
    for _ in range(30):
        n = int(rng.integers(2, 40))
        freqs = rng.integers(1, 1000, size=n).tolist()
        lengths = code_lengths(freqs)
        assert build_table([(i, f) for i, f in enumerate(freqs)]).lengths.tolist() == lengths
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
        assert build_table(list(enumerate(freqs.tolist()))).lengths.tolist() == lengths.tolist()
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


def test_deep_ranking_halves_its_weights_rounding_up():
    # 72 Fibonacci weights give codes of up to 71 bits. The table is the
    # Huffman code of the weights after the fewest halvings, each rounding
    # up, that bring the longest code to 32 bits: here, eight.
    freqs = [1, 1]
    while len(freqs) < 72:
        freqs.append(freqs[-1] + freqs[-2])
    halved = [freqs[::-1]]
    for _ in range(8):
        halved.append([(f + 1) // 2 for f in halved[-1]])
    assert [max(code_lengths(f)) for f in halved[-2:]] == [33, FIELD_MAX_BITS]
    table = build_table(list(enumerate(halved[0])))
    assert table.lengths.tolist() == code_lengths(halved[-1])


def test_table_rejects_codes_over_a_field():
    with pytest.raises(ValueError, match="over 32 bits"):
        HuffmanTable([7, 3, 9], [1, 2, 33])
    blob = bytearray(build_table([(7, 50), (3, 20), (9, 5), (1, 1)]).to_bytes())
    assert HuffmanTable.from_bytes(bytes(blob)).lengths.max() == 3
    for length in range(FIELD_MAX_BITS + 1, 256):
        blob[-1] = length                                    # the last entry's length
        with pytest.raises(CorruptStreamError, match="over 32 bits"):
            HuffmanTable.from_bytes(bytes(blob))
    blob[-1] = FIELD_MAX_BITS
    assert HuffmanTable.from_bytes(bytes(blob)).lengths.max() == FIELD_MAX_BITS


@pytest.mark.parametrize("palette", [
    build_table([(7, 50), (3, 20), (9, 5), (1, 1)]),
    Ccd([7, 3, 9, 1]),
], ids=["huffman", "rccd"])
def test_from_bytes_rejects_every_truncation(palette):
    blob = palette.to_bytes()
    for cut in range(len(blob)):
        with pytest.raises(CorruptStreamError):
            type(palette).from_bytes(blob[:cut])
