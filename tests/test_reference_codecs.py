import numpy as np
import pytest

import palette_oracle
import ras_oracle as oracle
from conftest import assert_same_blocks, block_pool, ccd_from_blocks, make_block, split_blocks
from palette_oracle import BitReader, BitWriter
from ras_oracle import (
    golomb_rice_decode,
    golomb_rice_encode,
    golomb_rice_length,
    med_predict,
    unzigzag,
    zigzag,
)

from dcpbench.bandwidth import charged_bursts
from dcpbench.bitio import CorruptStreamError
from dcpbench import reference_codecs
from dcpbench.dcp_codecs import (
    BATCH_BLOCKS,
    CompressedBlocks,
    vdcp_compress_blocks,
    vdcp_frame_cost,
)
from dcpbench.palette import Ccd
from dcpbench.reference_codecs import (
    GR_K_RAW,
    HDCP_RAS_BASE,
    RED_C4,
    RED_C8,
    RED_RAW,
    hybrid_compress_block,
    hybrid_compress_blocks,
    hybrid_decompress_block,
    hybrid_decompress_blocks,
    hybrid_frame_cost,
    med_zigzag,
    ras_compress_block,
    ras_compress_blocks,
    ras_decompress_block,
    ras_decompress_blocks,
    ras_frame_cost,
    red_compress_block,
    red_compress_blocks,
    red_decompress_block,
    red_decompress_blocks,
    red_frame_cost,
)
from dcpbench.surface import (
    Frame,
    block_stack,
    block_valid_counts,
    live_mask,
    sub_block_valid_counts,
)
from dcpbench.synth import SyntheticSpec, generate

GENERATORS = ("ui-like", "2d-like", "gradient", "noise")


# ---------------------------------------------------------------------------
# Golomb-Rice

def test_gr_value_zero_k_zero_is_one_bit():
    w = BitWriter()
    golomb_rice_encode(w, 0, 0)
    assert w.bit_length == 1 and w.to_bytes() == b"\x00"


def test_gr_value_five_k_two():
    # q=1, r=1: bits "10" + "01".
    w = BitWriter()
    golomb_rice_encode(w, 5, 2)
    assert w.bit_length == 4
    assert format(int.from_bytes(w.to_bytes(), "big") >> 4, "04b") == "1001"
    assert golomb_rice_length(5, 2) == 4


def test_gr_round_trip_exhaustive():
    for k in range(7):
        w = BitWriter()
        values = list(range(0, 600)) + [2 ** i for i in range(10)]
        for v in values:
            golomb_rice_encode(w, v, k)
        r = BitReader(w.to_bytes(), w.bit_length)
        assert [golomb_rice_decode(r, k) for _ in values] == values


def test_gr_unary_cap_guards_corruption():
    r = BitReader(b"\xff" * 600)
    with pytest.raises(CorruptStreamError):
        golomb_rice_decode(r, 0, cap=64)


def test_zigzag_inverse():
    for v in range(-300, 300):
        assert unzigzag(zigzag(v)) == v
    assert [zigzag(v) for v in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]


def test_med_predictor_cases():
    assert med_predict(10, 20, 25) == 10     # c above both: horizontal edge
    assert med_predict(10, 20, 5) == 20      # c below both: vertical edge
    assert med_predict(10, 20, 15) == 15     # smooth area: planar fit


def test_med_residuals_match_scalar(rng):
    # 0 and 255 next to each other push a + b - c to both ends, -255..510.
    plane = rng.choice(np.array([0, 255, 1, 254, 128]), size=(16, 24))
    plane[::3] = rng.integers(0, 256, size=(6, 24))
    plane[1, 1:3], plane[2, 1:3] = (255, 0), (0, 0)      # c=255 above-left of a, b = 0
    plane[9, 9:11], plane[10, 9:11] = (0, 255), (255, 0)  # c=0, a=b=255: a+b-c = 510
    plane[12, 12:14], plane[13, 12:14] = (0, 0), (0, 255)  # residual +255 -> 510
    plane[4, 4:6], plane[5, 4:6] = (255, 255), (255, 0)    # residual -255 -> 509
    zz = med_zigzag(plane.astype(np.int16))
    assert zz.dtype == np.uint16
    assert zz.tolist() == oracle.med_zigzag_plane(plane)
    assert (int(zz[13, 13]), int(zz[5, 5])) == (510, 509)
    # Leading axes are independent planes.
    stack = np.stack([plane, 255 - plane]).astype(np.int16)
    assert np.array_equal(med_zigzag(stack)[0], zz)
    assert med_zigzag(stack)[1].tolist() == oracle.med_zigzag_plane(255 - plane)


# ---------------------------------------------------------------------------
# RED

def _red_class_bits(block):
    """(class, charged bits) of one block through the batch entry."""
    comp = red_compress_blocks(block[None])
    return int(comp.csb[0, 0]), int(comp.cost_bits[0])


def test_red_uniform_block_is_c8():
    block = np.full((8, 8), 0xABCD, dtype=np.uint32)
    assert _red_class_bits(block) == palette_oracle.red_classify_block(block) == (RED_C8, 256)


def test_red_quad_checkerboard_is_c4():
    # Alternating 2x2 solid quads satisfy 2x2 uniformity but never 4x2.
    quads = np.indices((4, 4)).sum(axis=0) % 2
    block = np.kron(quads, np.ones((2, 2), dtype=int)).astype(np.uint32) + 7
    assert _red_class_bits(block) == palette_oracle.red_classify_block(block) == (RED_C4, 512)


def test_red_distinct_colors_raw():
    block = np.arange(64, dtype=np.uint32).reshape(8, 8)
    assert _red_class_bits(block) == palette_oracle.red_classify_block(block) == (RED_RAW, 2048)


def test_red_round_trips():
    blocks = [
        np.full((8, 8), 3, dtype=np.uint32),
        np.kron(np.arange(16).reshape(4, 4), np.ones((2, 2), dtype=int)).astype(np.uint32),
        np.arange(64, dtype=np.uint32).reshape(8, 8),
    ]
    for block in blocks:
        assert np.array_equal(red_decompress_block(red_compress_block(block)), block)


def test_red_class_ordering_invariant(rng):
    for _ in range(50):
        block = make_block(str(rng.choice(["uniform", "palette", "gradient"])), rng)
        cls, bits = _red_class_bits(block)
        assert (cls, bits) == palette_oracle.red_classify_block(block)
        if cls == RED_C8:   # C8 implies C4
            r4 = block.reshape(4, 2, 4, 2)
            assert bool((r4 == r4[:, :1, :, :1]).all())


@pytest.mark.parametrize("gen", GENERATORS)
def test_red_batch_matches_oracle(gen):
    _, _, blocks, _ = _frame_blocks(gen)
    quads = np.indices((4, 4)).sum(axis=0) % 2
    forced = np.stack([np.full((8, 8), 9, dtype=np.uint32),                  # C8
                       np.kron(quads, np.ones((2, 2), dtype=np.uint32)) + 7,  # C4
                       np.arange(64, dtype=np.uint32).reshape(8, 8)])        # raw
    blocks = np.concatenate([blocks, forced])
    comp = red_compress_blocks(blocks)
    assert_same_blocks(comp, palette_oracle.compress_blocks("red", blocks, Ccd()))
    assert comp.csb[-3:].tolist() == [[RED_C8], [RED_C4], [RED_RAW]]
    decoded = red_decompress_blocks(comp.csb, comp.payload)
    assert np.array_equal(decoded, blocks)
    assert np.array_equal(decoded,
                          palette_oracle.decompress_streams("red", comp.csb, comp.payload))
    singles = split_blocks(comp)
    for i in range(0, len(blocks), 5):
        assert_same_blocks(red_compress_block(blocks[i]), singles[i])
        assert np.array_equal(red_decompress_block(singles[i]), decoded[i])


def test_red_frame_cost_matches_blocks(rng):
    blocks = [make_block(k, rng) for k in ("uniform", "palette", "gradient", "ui") for _ in range(4)]
    pixels = np.vstack([np.hstack(blocks[i * 4:(i + 1) * 4]) for i in range(4)])
    frame = Frame(pixels)
    padded, valid = frame.padded(), live_mask(frame.width, frame.height)
    bits, classes = red_frame_cost(padded, valid, sub_block_valid_counts(valid),
                                   block_valid_counts(valid))
    for by in range(4):
        for bx in range(4):
            block = padded[by * 8:(by + 1) * 8, bx * 8:(bx + 1) * 8]
            cls, charged = palette_oracle.red_classify_block(block)
            assert classes[by, bx] == cls
            assert bits[by, bx] == charged


# ---------------------------------------------------------------------------
# RAS

def test_ras_uniform_midgray_charges_one_quarter():
    # All residuals zero: 64 one-bit codes plus the 3-bit k per channel,
    # 4 x (3 + 64) = 268 bits, charged at the 512-bit class.
    block = np.full((8, 8), 0x80808080, dtype=np.uint32)
    rb = ras_compress_block(block)
    assert rb.payload_bits.tolist() == [4 * (3 + 64)] == [268]
    assert rb.cost_bits.tolist() == [512] and rb.csb.tolist() == [[0]]
    assert np.array_equal(ras_decompress_block(rb), block)


def test_ras_noise_block_goes_raw(rng):
    for seed in range(5):
        local = np.random.default_rng(seed)
        block = local.integers(0, 1 << 32, size=(8, 8), dtype=np.uint64).astype(np.uint32)
        rb = ras_compress_block(block)
        assert rb.cost_bits.tolist() == [2048] and rb.csb.tolist() == [[3]]
        assert np.array_equal(ras_decompress_block(rb), block)


def test_ras_round_trip_every_class(rng):
    seen = set()
    blocks = block_pool(200, seed=3)
    blocks.append(np.full((8, 8), 0x80808080, dtype=np.uint32))   # class 0
    noise = np.random.default_rng(0).integers(0, 1 << 32, size=(8, 8), dtype=np.uint64)
    blocks.append(noise.astype(np.uint32))                        # class 3
    for block in blocks:
        rb = ras_compress_block(block)
        seen.add(int(rb.csb[0, 0]))
        assert np.array_equal(ras_decompress_block(rb), block)
        assert rb.cost_bits[0] >= rb.payload_bits[0] or rb.csb[0, 0] == 3
    assert seen == {0, 1, 2, 3}


def test_ras_charge_never_undercharges(rng):
    for block in block_pool(120, seed=5):
        rb = ras_compress_block(block)
        if rb.csb[0, 0] < 3:
            assert rb.cost_bits[0] >= rb.payload_bits[0]
            assert rb.cost_bits[0] in (512, 1024, 1536)


def test_ras_frame_cost_matches_blocks(rng):
    blocks = block_pool(16, seed=11)
    pixels = np.vstack([np.hstack(blocks[i * 4:(i + 1) * 4]) for i in range(4)])
    frame = Frame(pixels)
    padded, valid = frame.padded(), live_mask(frame.width, frame.height)
    charged, classes = ras_frame_cost(padded, valid, sub_block_valid_counts(valid),
                                      block_valid_counts(valid))
    for by in range(4):
        for bx in range(4):
            block = padded[by * 8:(by + 1) * 8, bx * 8:(bx + 1) * 8]
            rb = ras_compress_block(block)
            assert charged[by, bx] == rb.cost_bits[0]
            assert classes[by, bx] == rb.csb[0, 0]


# ---------------------------------------------------------------------------
# Hybrid

def test_hybrid_uniform_palette_block_prefers_vdcp():
    ccd = Ccd(np.arange(100, 116, dtype=np.uint32))
    block = np.full((8, 8), 100, dtype=np.uint32)   # palette index 0
    hb = hybrid_compress_block(block, ccd)
    assert hb.csb[0, 0] < HDCP_RAS_BASE
    assert np.array_equal(hybrid_decompress_block(hb, ccd), block)


def test_hybrid_gradient_block_prefers_ras():
    ccd = Ccd(np.arange(100, 116, dtype=np.uint32))
    block = make_block("gradient", np.random.default_rng(2))
    hb = hybrid_compress_block(block, ccd)
    assert hb.csb[0, 0] >= HDCP_RAS_BASE
    rb = ras_compress_block(block)
    assert hb.csb.tolist() == [[8 + rb.csb[0, 0]] * 16]
    assert (hb.payload, hb.cost_bits.tolist()) == (rb.payload, rb.cost_bits.tolist())
    assert np.array_equal(hybrid_decompress_block(hb, ccd), block)


def test_hybrid_cost_is_min_of_both(rng):
    blocks = block_pool(16, seed=17)
    pixels = np.vstack([np.hstack(blocks[i * 4:(i + 1) * 4]) for i in range(4)])
    frame = Frame(pixels)
    padded, valid = frame.padded(), live_mask(frame.width, frame.height)
    sb_real = sub_block_valid_counts(valid)
    block_real = block_valid_counts(valid)
    ccd = ccd_from_blocks(blocks, 16)
    bits, wins = hybrid_frame_cost(padded, valid, sb_real, block_real, ccd)
    bursts = charged_bursts(bits, 32 * block_real)
    vbits = vdcp_frame_cost(padded, valid, sb_real, block_real, ccd)
    vbursts = np.minimum((vbits + 127) // 128, (32 * block_real + 127) // 128)
    rcharged, _ = ras_frame_cost(padded, valid, sb_real, block_real)
    rbursts = (rcharged + 127) // 128
    assert np.array_equal(bursts, np.minimum(vbursts, rbursts))
    assert np.array_equal(wins, vbursts <= rbursts)


# ---------------------------------------------------------------------------
# Batched RAS/HDCP codecs against the scalar oracle

def _forced_raw_blocks():
    """A block with one raw channel (k=7) and one raw block (class 3)."""
    local = np.random.default_rng(21)
    noise = local.integers(0, 256, size=(8, 8), dtype=np.uint32)
    raw_channel = noise | np.uint32(0x40302000)             # R is noise, G/B/A flat
    raw_block = local.integers(0, 1 << 32, size=(8, 8), dtype=np.uint64).astype(np.uint32)
    return np.stack([raw_channel, raw_block])


def _frame_blocks(gen: str, width=44, height=36, seed=7):
    """A seeded frame whose size is no multiple of 8, as (padded, block
    stack, fully-live mask), plus the two forced-raw blocks."""
    trace = generate(SyntheticSpec(generator=gen, width=width, height=height, frames=2,
                                   seed=seed))
    padded, valid = trace.frames[1].padded(), live_mask(trace.width, trace.height)
    blocks = block_stack(padded).reshape(-1, 8, 8)
    live = block_valid_counts(valid).reshape(-1) == 64
    return padded, valid, np.concatenate([blocks, _forced_raw_blocks()]), live


def _first_k(comp: CompressedBlocks) -> int:
    return comp.payload[0] >> 5


@pytest.mark.parametrize("gen", GENERATORS)
def test_ras_batch_matches_oracle(gen):
    padded, valid, blocks, live = _frame_blocks(gen)
    assert not live.all()                                    # partially live edge blocks
    comp = ras_compress_blocks(blocks)
    expected = palette_oracle.compress_blocks("ras", blocks, Ccd())
    assert_same_blocks(comp, expected)                       # csb, payload, both bit counts
    singles = split_blocks(comp)
    raw_channel, raw_block = singles[-2:]
    assert _first_k(raw_channel) == GR_K_RAW and raw_channel.csb[0, 0] < 3
    assert raw_block.csb.tolist() == [[3]] and raw_block.payload_bits.tolist() == [2048]

    decoded = ras_decompress_blocks(comp.csb, comp.payload)
    assert decoded.dtype == np.uint32 and np.array_equal(decoded, blocks)
    assert np.array_equal(decoded, palette_oracle.decompress_streams("ras", expected.csb,
                                                                     expected.payload))
    for i in range(0, len(blocks), 5):                       # n=1 equals the block in a batch
        assert_same_blocks(ras_compress_block(blocks[i]), singles[i])
        assert np.array_equal(ras_decompress_block(singles[i]), decoded[i])

    block_real = block_valid_counts(valid)
    charged, classes = ras_frame_cost(padded, valid, sub_block_valid_counts(valid), block_real)
    for i in np.flatnonzero(live):
        by, bx = divmod(int(i), block_real.shape[1])
        assert classes[by, bx] == expected.csb[i, 0]
        assert charged[by, bx] == expected.cost_bits[i]


def test_ras_stacks_of_any_size_match_oracle():
    # Each chunk is costed as one strip of blocks side by side: stacks of one
    # block, of one under, at and over a chunk, and of five chunks, drawn
    # from scattered frame positions, encode as the oracle does block by block.
    pool = np.concatenate([_frame_blocks(gen, 96, 88, seed=9)[2] for gen in GENERATORS])
    rng = np.random.default_rng(12)
    picked = rng.choice(len(pool), 320, replace=False)
    expected = {i: oracle.ras_compress_block(pool[i]) for i in picked.tolist()}
    for n in (1, 63, 64, 65, 320):
        at = rng.choice(picked, n, replace=False)
        assert_same_blocks(ras_compress_blocks(pool[at]),
                           palette_oracle.stack([expected[i] for i in at.tolist()], 1))


@pytest.mark.parametrize("gen", GENERATORS)
def test_hybrid_batch_matches_oracle(gen):
    _, _, blocks, _ = _frame_blocks(gen, seed=3)
    ccd = ccd_from_blocks(list(blocks), 16)
    comp = hybrid_compress_blocks(blocks, ccd)
    expected = palette_oracle.compress_blocks("hybrid", blocks, ccd)
    assert_same_blocks(comp, expected)
    decoded = hybrid_decompress_blocks(comp.csb, comp.payload, ccd)
    assert np.array_equal(decoded, blocks)
    assert np.array_equal(decoded, palette_oracle.decompress_streams(
        "hybrid", expected.csb, expected.payload, ccd))
    singles = split_blocks(comp)
    for i in range(0, len(blocks), 5):
        assert_same_blocks(hybrid_compress_block(blocks[i], ccd), singles[i])
        assert np.array_equal(hybrid_decompress_block(singles[i], ccd), decoded[i])


def test_hybrid_chunks_of_both_winners_match_oracle():
    # ui-like and 2d-like blocks in turn, over a palette of ui-like colors:
    # every chunk holds blocks each codec wins, so each chunk's streams are
    # gathered from both codecs' payloads.
    ui, art = (_frame_blocks(gen, 96, 88, seed=3)[2][:80] for gen in ("ui-like", "2d-like"))
    blocks = np.stack([ui, art], axis=1).reshape(-1, 8, 8)
    ccd = ccd_from_blocks(list(ui), 16)
    comp = hybrid_compress_blocks(blocks, ccd)
    ras_won = comp.csb[:, 0] >= HDCP_RAS_BASE
    assert len(blocks) > 2 * BATCH_BLOCKS
    for lo in range(0, len(blocks), BATCH_BLOCKS):
        assert 0 < ras_won[lo:lo + BATCH_BLOCKS].sum() < len(ras_won[lo:lo + BATCH_BLOCKS])
    singles = split_blocks(comp)
    for i, block in enumerate(blocks):
        assert_same_blocks(singles[i], oracle.hybrid_compress_block(block, ccd))
    assert np.array_equal(hybrid_decompress_blocks(comp.csb, comp.payload, ccd), blocks)


def _tied_block():
    """A block both codecs charge 4 bursts: VDCP 15 sub-blocks of 6-bit
    codes and one raw (488 bits), RAS size class 0 (512 bits)."""
    colors = (0xFF000000 + 1000 * np.arange(64)).astype(np.uint32)
    colors[40] = 0x80808080
    block = np.full((8, 8), 0x80808080, dtype=np.uint32)
    block[2:4, 4:6] = 0x80808081
    return block, Ccd(colors)


def _hybrid_stacks():
    """(name, blocks, ccd, outcome) stacks, with a palette and with an
    empty one.
    `outcome` is what the stack's blocks come to: all "vdcp" or "ras" won,
    all "tie" (equal bursts, so VDCP won), "mixed" for some of each, or
    "empty"."""
    for gen in ("ui-like", "2d-like", "noise"):
        blocks = np.concatenate([_frame_blocks(gen, 96, 88, seed=s)[2] for s in (3, 4)])
        yield gen, blocks, ccd_from_blocks(list(blocks), 16), "mixed"
        yield gen + "-no-palette", blocks, Ccd(), "mixed"
    tied, ccd = _tied_block()
    yield "tied", np.stack([tied] * 3), ccd, "tie"
    yield "raw-tied", np.stack(block_pool(70, seed=4, kinds=("random",))), Ccd(), "tie"
    palette_blocks = np.stack(block_pool(70, seed=5, kinds=("uniform", "ui")))
    yield "all-vdcp", palette_blocks, ccd_from_blocks(list(palette_blocks), 64), "vdcp"
    yield "all-ras", np.stack(block_pool(70, seed=6, kinds=("gradient",))), Ccd(), "ras"
    yield "empty", np.empty((0, 8, 8), dtype=np.uint32), Ccd(), "empty"


@pytest.mark.parametrize("name, blocks, ccd, outcome", list(_hybrid_stacks()),
                         ids=[case[0] for case in _hybrid_stacks()])
def test_hybrid_encodes_each_block_once_with_its_winner(name, blocks, ccd, outcome, monkeypatch):
    vdcp, ras = vdcp_compress_blocks(blocks, ccd), ras_compress_blocks(blocks)
    v, r = charged_bursts(vdcp.cost_bits), charged_bursts(ras.cost_bits)
    assert {"mixed": 0 < (r < v).sum() < len(blocks), "vdcp": (v < r).all(),
            "ras": (r < v).all(), "tie": (v == r).all(), "empty": not blocks.size}[outcome]
    # The rule of encoding every block with both codecs, ties to VDCP.
    expected = palette_oracle.stack(
        [vb if vdcp_won else CompressedBlocks(np.full((1, 16), HDCP_RAS_BASE + rb.csb[0, 0]),
                                              rb.payload, rb.payload_bits, rb.cost_bits)
         for vb, rb, vdcp_won in zip(split_blocks(vdcp), split_blocks(ras), (v <= r).tolist())],
        16)
    packed = []
    real = reference_codecs.ras_compress_blocks

    def counting(stack, palette=None):
        packed.append(np.array(stack))
        return real(stack, palette)

    monkeypatch.setattr(reference_codecs, "ras_compress_blocks", counting)
    assert_same_blocks(hybrid_compress_blocks(blocks, ccd), expected)   # every field
    # RAS encodes the blocks it wins, and no others.
    assert np.array_equal(np.concatenate(packed), blocks[r < v])


def test_ras_decoder_rejects_a_payload_cut_short():
    comp = ras_compress_block(np.full((8, 8), 0x80808080, dtype=np.uint32))
    with pytest.raises(CorruptStreamError, match="exhausted"):
        ras_decompress_blocks(comp.csb, comp.payload[:-1])


# ---------------------------------------------------------------------------
# Corruption parity: damaged streams fail exactly where the oracle fails

def _damaged_streams(csb: np.ndarray, payload: bytes, rng, cuts: int, flips: int):
    """Seeded byte truncations and single- and double-bit flips of a payload
    of several blocks' streams, and each block under each other RAS size
    class, as (status rows, payload) pairs."""
    hdcp = csb.shape[1] == 16
    for i, row in enumerate(csb.tolist()):
        ras_class = row[0] - HDCP_RAS_BASE if hdcp else row[0]
        if ras_class >= 0:
            for other in {0, 1, 2, 3} - {ras_class}:
                bad = csb.copy()
                bad[i] = (HDCP_RAS_BASE if hdcp else 0) + other
                yield bad, payload
    for n in rng.integers(0, len(payload), size=cuts).tolist():
        yield csb, payload[:n]
    for _ in range(flips):
        blob = bytearray(payload)
        for bit in rng.integers(0, 8 * len(payload), size=int(rng.integers(1, 3))).tolist():
            blob[bit // 8] ^= 0x80 >> (bit % 8)
        yield csb, bytes(blob)


def _outcome(decode, *args):
    """The decoded block, or CorruptStreamError; any other exception fails."""
    try:
        return decode(*args)
    except CorruptStreamError:
        return CorruptStreamError


def _same(a, b) -> bool:
    if a is CorruptStreamError or b is CorruptStreamError:
        return a is b
    return np.array_equal(a, b)


@pytest.mark.parametrize("codec", ["ras", "hybrid"])
def test_damaged_block_streams_fail_like_the_oracle(codec):
    # Payloads of three blocks' streams, so damage to one shifts the next
    # as it does in a container; the outcome is the oracle's, exactly.
    rng = np.random.default_rng(99)
    blocks = np.concatenate([_frame_blocks(gen, 24, 16, seed=5)[2] for gen in GENERATORS])
    ccd = ccd_from_blocks(list(blocks), 16)
    compress = ras_compress_blocks if codec == "ras" else hybrid_compress_blocks
    decode = ras_decompress_blocks if codec == "ras" else hybrid_decompress_blocks
    outcomes = {"raise": 0, "decode": 0}
    for lo in range(0, len(blocks), 3):
        part = compress(blocks[lo:lo + 3], ccd)
        for csb, payload in _damaged_streams(part.csb, part.payload, rng, cuts=12, flips=24):
            want = _outcome(palette_oracle.decompress_streams, codec, csb, payload, ccd)
            outcomes["raise" if want is CorruptStreamError else "decode"] += 1
            assert _same(_outcome(decode, csb, payload, ccd), want), (csb, payload)
    assert min(outcomes.values()) > 20, outcomes
