from fractions import Fraction

import numpy as np
import pytest

import palette_oracle as oracle
from conftest import block_pool, ccd_from_blocks

from dcpbench import dcp_codecs, reference_codecs
from dcpbench.bitio import CorruptStreamError
from dcpbench.dcp_codecs import (
    BATCH_BLOCKS,
    CompressedBlock,
    adcp_optimal_ccd_size,
    advance_frame,
    dcp_compress_block,
    dcp_decompress_block,
    dcp_frame_cost,
    huffdcp_compress_block,
    huffdcp_decompress_block,
    huffdcp_decompress_blocks,
    huffdcp_frame_cost,
    vdcp_compress_block,
    vdcp_decompress_block,
    vdcp_frame_cost,
)
from dcpbench.fvc import Fvc, FvcConfig
from dcpbench.huffman import HuffmanTable, build_table
from dcpbench.palette import Ccd, Rccd
from dcpbench.runner import ExperimentConfig, replay
from dcpbench.schemes import SCHEMES, resolve
from dcpbench.surface import (
    Frame,
    SurfaceTrace,
    block_stack,
    block_valid_counts,
    sub_block_valid_counts,
)
from dcpbench.synth import SyntheticSpec, generate

GENERATORS = ("ui-like", "2d-like", "gradient", "noise")


def test_dcp_uniform_block_384_bits():
    ccd = Ccd(np.arange(64, dtype=np.uint32))
    block = np.full((8, 8), 11, dtype=np.uint32)
    comp = dcp_compress_block(block, ccd)
    assert comp.payload_bits == 16 * 4 * 6 == 384
    assert comp.csb == (1,) * 16


def test_dcp_single_miss_leaves_one_raw_sub_block():
    ccd = Ccd(np.arange(64, dtype=np.uint32))
    block = np.full((8, 8), 5, dtype=np.uint32)
    block[0, 0] = 0xDEADBEEF
    comp = dcp_compress_block(block, ccd)
    assert comp.csb.count(0) == 1
    assert comp.payload_bits == 15 * 24 + 128


def test_dcp_empty_palette_all_raw():
    block = np.arange(64, dtype=np.uint32).reshape(8, 8)
    comp = dcp_compress_block(block, Ccd([]))
    assert comp.csb == (0,) * 16
    assert comp.payload_bits == 2048
    out = dcp_decompress_block(comp, Ccd([]))
    assert np.array_equal(out, block)


def test_dcp_size_one_palette_zero_payload():
    ccd = Ccd([9])
    block = np.full((8, 8), 9, dtype=np.uint32)
    comp = dcp_compress_block(block, ccd)
    assert comp.payload_bits == 0
    assert np.array_equal(dcp_decompress_block(comp, ccd), block)


@pytest.mark.parametrize("size", [1, 2, 16, 64])
def test_round_trips_random_blocks(size, rng):
    blocks = block_pool(60, seed=size)
    ccd = ccd_from_blocks(blocks, size)
    table = build_table([(int(c), 10 + i) for i, c in enumerate(ccd.colors)][::-1])
    for block in blocks:
        assert np.array_equal(dcp_decompress_block(dcp_compress_block(block, ccd), ccd), block)
        assert np.array_equal(vdcp_decompress_block(vdcp_compress_block(block, ccd), ccd), block)
        assert np.array_equal(
            huffdcp_decompress_block(huffdcp_compress_block(block, table), table), block)


def test_vdcp_status_widths():
    ccd = Ccd(np.arange(100, 108, dtype=np.uint32))   # colors C0..C7
    block = np.full((8, 8), 100, dtype=np.uint32)     # all C0
    block[0:2, 0:2] = [[102, 103], [102, 103]]        # first sub-block C2,C3
    block[0:2, 2:4] = [[100, 101], [100, 101]]        # second C0,C1
    block[0:2, 4:6] = 0xDEADBEEF                      # third misses
    comp = vdcp_compress_block(block, ccd)
    assert comp.csb[0] == 2      # max index 3 -> 2 bits per pixel
    assert comp.csb[1] == 1      # max index 1 -> 1 bit
    assert comp.csb[2] == 7      # raw marker
    assert comp.csb[3] == 0      # all C0 -> zero bits
    bits = 4 * 2 + 4 * 1 + 128 + 0 + 12 * 0
    assert comp.payload_bits == bits
    assert np.array_equal(vdcp_decompress_block(comp, ccd), block)


def test_vdcp_rejects_oversized_palette():
    with pytest.raises(ValueError):
        vdcp_compress_block(np.zeros((8, 8), dtype=np.uint32),
                            Ccd(np.arange(128, dtype=np.uint32)))


def test_vdcp_never_wider_than_dcp(rng):
    blocks = block_pool(300, seed=9)
    ccd = ccd_from_blocks(blocks, 16)
    b = ccd.bits_per_code
    for block in blocks:
        d = dcp_compress_block(block, ccd)
        v = vdcp_compress_block(block, ccd)
        for ds, vs in zip(d.csb, v.csb):
            if ds == 1:
                assert vs <= b
            else:
                assert vs == 7


def test_adcp_worked_example():
    # masses 80/18/1/1 over a frame: the 2-entry palette wins at 1.62 bpp.
    n = 3200
    freqs = [2560, 576, 32, 32]
    assert adcp_optimal_ccd_size(freqs, n, max_size=64) == 2


def test_adcp_single_color_picks_one_entry():
    assert adcp_optimal_ccd_size([4096], 4096, max_size=64) == 1


def test_adcp_empty_disables():
    assert adcp_optimal_ccd_size([], 4096, max_size=64) == 0


def test_adcp_matches_exhaustive_oracle(rng):
    # Independent minimization with exact rational arithmetic.
    for _ in range(300):
        count = int(rng.integers(1, 65))
        freqs = sorted(rng.integers(1, 2000, size=count).tolist(), reverse=True)
        n = int(sum(freqs) + rng.integers(0, 5000))
        got = adcp_optimal_ccd_size(freqs, n, max_size=64)

        best = (Fraction(n * 32), -1)
        for i in range(7):
            covered = min(sum(freqs[: 1 << i]), n)
            bits = Fraction(covered * i + (n - covered) * 32)
            if bits < best[0]:
                best = (bits, i)
        want = 2 ** best[1] if best[1] >= 0 else 1
        assert got == want


def test_adcp_sampling_scaled_mass_clamps():
    # Scaled frequencies may exceed the frame; the clamp keeps bits >= 0.
    size = adcp_optimal_ccd_size([900 * 16, 200 * 16], 10000, max_size=64)
    assert size >= 1


def frame_cost_fixture(rng, width=64, height=40):
    blocks = block_pool((width // 8) * (height // 8), seed=21)
    rows = []
    nbx = width // 8
    for by in range(height // 8):
        rows.append(np.hstack(blocks[by * nbx:(by + 1) * nbx]))
    pixels = np.vstack(rows)
    return Frame(pixels), blocks


def test_frame_cost_matches_block_codecs(rng):
    frame, _ = frame_cost_fixture(rng)
    padded, valid = frame.padded()
    sb_real = sub_block_valid_counts(valid)
    ccd = ccd_from_blocks([padded], 16)
    table = build_table(
        [(int(c), 100 - i) for i, c in enumerate(ccd.colors)])

    block_real = block_valid_counts(valid)
    dcp_bits = dcp_frame_cost(padded, valid, sb_real, block_real, ccd)
    vdcp_bits = vdcp_frame_cost(padded, valid, sb_real, block_real, ccd)
    huff_bits = huffdcp_frame_cost(padded, valid, sb_real, block_real, table)
    nby, nbx = dcp_bits.shape
    for by in range(nby):
        for bx in range(nbx):
            block = padded[by * 8:(by + 1) * 8, bx * 8:(bx + 1) * 8]
            assert dcp_compress_block(block, ccd).payload_bits == dcp_bits[by, bx]
            assert vdcp_compress_block(block, ccd).payload_bits == vdcp_bits[by, bx]
            assert huffdcp_compress_block(block, table).payload_bits == huff_bits[by, bx]


def test_frame_cost_excludes_padding():
    # A 12x8 frame: the second block has 4 live columns; raw accounting
    # charges 32 bits per live pixel only.
    frame = Frame(np.arange(96, dtype=np.uint32).reshape(8, 12))
    padded, valid = frame.padded()
    sb_real = sub_block_valid_counts(valid)
    bits = dcp_frame_cost(padded, valid, sb_real, block_valid_counts(valid), Ccd([]))
    assert bits[0, 0] == 2048
    assert bits[0, 1] == 32 * 32
    assert int(bits.sum()) == 32 * 96


def replayed(frames, scheme, entries=64, **kw):
    """The ReplayFrames of a trace made of `frames`, under an `entries`-entry
    collector."""
    trace = SurfaceTrace([Frame(np.asarray(f, dtype=np.uint32)) for f in frames])
    cfg = ExperimentConfig(scheme=scheme, fvc=FvcConfig(entry_count=entries), **kw)
    return list(replay(trace, cfg))


def test_advance_frame_gates_on_coverage():
    # 100 samples of which 69 stay resident: coverage 0.69 < CT 0.7.
    # Singletons thrash the fourth slot.
    first = np.array([1] * 50 + [2] * 10 + [3] * 8 + list(range(100, 132))).reshape(10, 10)
    (m,) = replayed([first, first], "DCP", entries=4, coverage_threshold=0.7)
    assert m.coverage == pytest.approx(0.69)
    assert not m.enabled
    assert m.palette is None and m.palette_size == 4

    first2 = np.array([1] * 70 + [2] * 30).reshape(10, 10)
    (m2,) = replayed([first2, first2], "DCP", entries=2, coverage_threshold=0.7)
    assert m2.coverage == 1.0
    assert m2.enabled
    assert len(m2.palette) == 2


def test_advance_frame_builds_per_scheme():
    colors = np.arange(100, 110, dtype=np.uint32)
    pixels = np.repeat(colors, np.arange(10, 0, -1) * 8).reshape(8, -1)

    for scheme, expect in (("DCP", 8), ("VDCP", 8), ("ADCP", 8), ("HUFFDCP", 8)):
        fvc = Fvc(FvcConfig(entry_count=8))
        fvc.observe_frame(Frame(pixels))
        assert len(advance_frame(SCHEMES[scheme], fvc, pixels.size)) == expect
        # The collector is reset between collections: the second palette
        # holds only the second frame's colors.
        ms = replayed([pixels, pixels + 1000, pixels], scheme, entries=8)
        assert len(ms[0].palette) == expect
        assert ms[1].palette.colors.min() >= 1100

    # An empty ranking gives an empty table, not None.
    assert len(advance_frame(SCHEMES["HUFFDCP"], Fvc(FvcConfig(entry_count=8)), 4096)) == 0


def test_advance_frame_respects_explicit_size():
    fvc = Fvc(FvcConfig(entry_count=64))
    fvc.observe_frame(Frame(np.arange(64, dtype=np.uint32).reshape(8, 8)))
    assert len(advance_frame(SCHEMES["DCP"], fvc, 4096, ccd_size=4)) == 4


def test_collects_on_schedule(monkeypatch):
    observed = []
    real = Fvc.observe_frame

    def observe(fvc, frame):
        observed.append(int(frame.pixels[0, 0]))
        real(fvc, frame)

    monkeypatch.setattr(Fvc, "observe_frame", observe)
    replayed([np.full((8, 8), t) for t in range(7)], "DCP", frame_sampling=3)
    assert [t in observed for t in range(7)] == [
        True, False, False, True, False, False, True]


@pytest.mark.parametrize("codec", ["dcp", "vdcp", "huffdcp", "ras", "red", "hybrid"])
def test_batch_codec_matches_block_codec(codec):
    blocks = np.stack(block_pool(12, seed=8))
    ccd = ccd_from_blocks(list(blocks), 16)
    palette = build_table([(int(c), 40 - i) for i, c in enumerate(ccd.colors)]) \
        if codec == "huffdcp" else ccd
    comps = resolve(codec, "compress_blocks")(blocks, palette)
    assert comps == [oracle.compress_block(codec, block, palette) for block in blocks]
    module = dcp_codecs if codec in PALETTE_CODECS else reference_codecs
    one = getattr(module, f"{codec}_compress_block"), getattr(module, f"{codec}_decompress_block")
    assert comps == [one[0](block, palette) for block in blocks]
    decoded = resolve(codec, "decompress_blocks")(comps, palette)
    assert decoded.shape == (12, 8, 8) and np.array_equal(decoded, blocks)
    assert all(np.array_equal(one[1](c, palette), b) for c, b in zip(comps, blocks))


# ---------------------------------------------------------------------------
# Batch entries against the scalar oracle

PALETTE_CODECS = ("dcp", "vdcp", "huffdcp")


def _frame_blocks(gen: str, width=44, height=36, seed=7) -> np.ndarray:
    """The blocks of a seeded frame whose size is no multiple of 8."""
    trace = generate(SyntheticSpec(generator=gen, width=width, height=height, frames=2,
                                   seed=seed))
    padded, _ = trace.frames[1].padded()
    return block_stack(padded).reshape(-1, 8, 8)


def _palette_for(codec: str, blocks: np.ndarray, size=16):
    ccd = ccd_from_blocks(list(blocks), size)
    if codec == "huffdcp":
        return build_table([(int(c), 3 * len(ccd) - i) for i, c in enumerate(ccd.colors)])
    return ccd


def _fibonacci_table(count: int) -> HuffmanTable:
    """A table whose code lengths run 1..count-1: the deepest possible tree."""
    freqs = [1, 1]
    while len(freqs) < count:
        freqs.append(freqs[-1] + freqs[-2])
    colors = (0xFF000000 + np.arange(count)).tolist()
    return build_table(list(zip(colors, freqs[::-1])))


def _assert_matches_oracle(codec: str, blocks: np.ndarray, palette):
    comps = resolve(codec, "compress_blocks")(blocks, palette)
    expected = [oracle.compress_block(codec, block, palette) for block in blocks]
    assert comps == expected                 # csb, payload bytes, both bit counts
    decoded = resolve(codec, "decompress_blocks")(comps, palette)
    assert decoded.dtype == np.uint32 and np.array_equal(decoded, blocks)
    assert np.array_equal(decoded, [oracle.decompress_block(codec, c, palette)
                                    for c in expected])
    return comps, decoded


@pytest.mark.parametrize("codec", PALETTE_CODECS)
@pytest.mark.parametrize("gen", GENERATORS)
def test_palette_batch_matches_oracle(codec, gen):
    blocks = _frame_blocks(gen)
    (m,) = replay(generate(SyntheticSpec(generator=gen, width=44, height=36, frames=2,
                                         seed=7)),
                  ExperimentConfig(scheme={"dcp": "DCP", "vdcp": "VDCP",
                                           "huffdcp": "HUFFDCP"}[codec]))
    for palette in (m.palette, _palette_for(codec, blocks)):
        comps, decoded = _assert_matches_oracle(codec, blocks, palette)
        for i in range(0, len(blocks), 5):       # n=1 equals the block in a batch
            one = resolve(codec, "compress_blocks")(blocks[i:i + 1], palette)
            assert one == comps[i:i + 1]
            assert np.array_equal(resolve(codec, "decompress_blocks")(one, palette)[0],
                                  decoded[i])


@pytest.mark.parametrize("codec", PALETTE_CODECS)
def test_palette_batch_edge_palettes(codec):
    blocks = np.concatenate([_frame_blocks(gen, 24, 16) for gen in GENERATORS])
    palettes = [None, Ccd([]) if codec != "huffdcp" else HuffmanTable([], [])]
    one = _palette_for(codec, blocks, size=1)                 # 0-bit codes (1 bit for Huffman)
    palettes.append(one)
    palettes.append(_palette_for(codec, blocks, size=64))     # 6-bit codes, VDCP's limit
    assert [len(p) for p in palettes[2:]] == [1, 64]
    for palette in palettes:
        comps, _ = _assert_matches_oracle(codec, blocks, palette)
        if palette is None or len(palette) == 0:
            assert all(c.payload_bits == 2048 for c in comps)
    if codec == "dcp":
        uniform = np.full((1, 8, 8), one.colors[0], dtype=np.uint32)
        assert _assert_matches_oracle(codec, uniform, one)[0][0].payload_bits == 0


def test_huffdcp_codes_wider_than_a_machine_word():
    table = _fibonacci_table(72)
    assert int(table.lengths.max()) > 64
    colors = table.colors
    rng = np.random.default_rng(4)
    # Every color, the deepest ones in every sub-block position, plus misses.
    deep = colors[-8:]
    blocks = np.concatenate([
        colors[:64].reshape(1, 8, 8),
        rng.choice(deep, size=(6, 8, 8)),
        rng.choice(colors, size=(40, 8, 8)),
    ]).astype(np.uint32)
    blocks[10, 0, 0] = 7                                     # one raw sub-block
    comps, _ = _assert_matches_oracle("huffdcp", blocks, table)
    assert max(c.payload_bits for c in comps) > 64 * 64
    # The container finds the same stream ends.
    payload = b"".join(c.payload for c in comps)
    csb = np.array([c.csb for c in comps])
    assert resolve("huffdcp", "stream_bits")(csb, payload, table) == \
        [c.payload_bits for c in comps]
    rng = np.random.default_rng(6)
    for comp in comps[:12]:
        for bad in _damaged("huffdcp", comp, rng):
            want = _outcome(oracle.decompress_block, "huffdcp", bad, table)
            assert _same(_outcome(lambda c: huffdcp_decompress_blocks([c], table)[0], bad),
                         want)


@pytest.mark.parametrize("codec", PALETTE_CODECS + ("red",))
def test_batch_entries_take_empty_and_chunked_stacks(codec):
    assert resolve(codec, "compress_blocks")(np.empty((0, 8, 8), np.uint32), None) == []
    assert resolve(codec, "decompress_blocks")([], None).shape == (0, 8, 8)
    blocks = np.concatenate([_frame_blocks(gen, 96, 88) for gen in GENERATORS])
    assert len(blocks) > 4 * BATCH_BLOCKS
    palette = _palette_for(codec, blocks) if codec != "red" else None
    comps = resolve(codec, "compress_blocks")(blocks, palette)
    picked = slice(BATCH_BLOCKS - 6, BATCH_BLOCKS + 6)      # across a chunk boundary
    assert comps[picked] == [oracle.compress_block(codec, b, palette) for b in blocks[picked]]
    assert np.array_equal(resolve(codec, "decompress_blocks")(comps, palette), blocks)


# ---------------------------------------------------------------------------
# Corruption parity: damaged streams fail exactly where the oracle fails

def _damaged(codec: str, comp: CompressedBlock, rng, cuts=4, flips=8):
    """Seeded truncations (to a bit length, the bytes cut to match), single
    and double bit flips, and relabelled status entries of one stream."""
    for nbits in rng.integers(0, max(comp.payload_bits, 1), size=cuts).tolist():
        yield CompressedBlock(comp.csb, comp.payload[:(nbits + 7) // 8], nbits, comp.cost_bits)
    for _ in range(flips):
        if not comp.payload_bits:
            break
        blob = bytearray(comp.payload)
        for bit in rng.integers(0, comp.payload_bits, size=int(rng.integers(1, 3))).tolist():
            blob[bit // 8] ^= 0x80 >> (bit % 8)
        yield CompressedBlock(comp.csb, bytes(blob), comp.payload_bits, comp.cost_bits)
    levels = {"dcp": 2, "vdcp": 8, "huffdcp": 2, "red": 4}[codec]
    for _ in range(2):
        csb = np.array(comp.csb)
        at = rng.integers(0, len(csb), size=int(rng.integers(1, 3)))
        csb[at] = rng.integers(0, levels, size=at.size)
        yield CompressedBlock(tuple(csb.tolist()), comp.payload, comp.payload_bits,
                              comp.cost_bits)


def _outcome(decode, *args):
    """The decoded blocks, or CorruptStreamError; any other exception fails."""
    try:
        return decode(*args)
    except CorruptStreamError:
        return CorruptStreamError


def _same(a, b) -> bool:
    if a is CorruptStreamError or b is CorruptStreamError:
        return a is b
    return np.array_equal(a, b)


def _narrowed(codec: str, palette):
    """A palette that decodes the same streams with entries missing: the
    first 12 of 16 colors, or a Huffman table without its last entries."""
    if codec == "huffdcp":
        return HuffmanTable(palette.colors[:-3].tolist(), palette.lengths[:-3].tolist())
    return Rccd(palette.colors[:12]) if palette is not None else None


@pytest.mark.parametrize("codec", PALETTE_CODECS + ("red",))
def test_damaged_block_streams_fail_like_the_oracle(codec):
    rng = np.random.default_rng(17)
    blocks = np.concatenate([_frame_blocks(gen, 24, 16, seed=5) for gen in GENERATORS])
    palette = _palette_for(codec, blocks) if codec != "red" else None
    comps = resolve(codec, "compress_blocks")(blocks, palette)
    decode = resolve(codec, "decompress_blocks")
    cases = [(d, palette) for comp in comps for d in _damaged(codec, comp, rng)]
    if codec != "red":
        cases += [(comp, _narrowed(codec, palette)) for comp in comps]
    outcomes = {"raise": 0, "decode": 0}
    for comp, pal in cases:
        want = _outcome(oracle.decompress_block, codec, comp, pal)
        outcomes["raise" if want is CorruptStreamError else "decode"] += 1
        assert _same(_outcome(lambda c: decode([c], pal)[0], comp), want), comp
    assert min(outcomes.values()) > 20, outcomes
    # A batch fails when any of its streams does, and is the oracle's otherwise.
    for lo in range(0, len(cases), 7):
        group = [c for c, pal in cases[lo:lo + 7] if pal is palette]
        want = [_outcome(oracle.decompress_block, codec, c, palette) for c in group]
        got = _outcome(decode, group, palette)
        if any(w is CorruptStreamError for w in want):
            assert got is CorruptStreamError
        else:
            assert np.array_equal(got, np.array(want).reshape(-1, 8, 8))
