import numpy as np
import pytest

import palette_oracle
import ras_oracle as oracle
from conftest import block_pool, ccd_from_blocks, make_block
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
from dcpbench.dcp_codecs import CompressedBlock, vdcp_frame_cost
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
    ras_stream_bits,
    red_classify_block,
    red_compress_block,
    red_compress_blocks,
    red_decompress_block,
    red_decompress_blocks,
    red_frame_cost,
)
from dcpbench.surface import Frame, block_stack, block_valid_counts, sub_block_valid_counts
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

def test_red_uniform_block_is_c8():
    block = np.full((8, 8), 0xABCD, dtype=np.uint32)
    assert red_classify_block(block) == (RED_C8, 256)


def test_red_quad_checkerboard_is_c4():
    # Alternating 2x2 solid quads satisfy 2x2 uniformity but never 4x2.
    quads = np.indices((4, 4)).sum(axis=0) % 2
    block = np.kron(quads, np.ones((2, 2), dtype=int)).astype(np.uint32) + 7
    cls, bits = red_classify_block(block)
    assert (cls, bits) == (RED_C4, 512)


def test_red_distinct_colors_raw():
    block = np.arange(64, dtype=np.uint32).reshape(8, 8)
    assert red_classify_block(block) == (RED_RAW, 2048)


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
        cls, bits = red_classify_block(block)
        assert bits == {RED_C8: 256, RED_C4: 512, RED_RAW: 2048}[cls]
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
    comps = red_compress_blocks(blocks)
    expected = [palette_oracle.red_compress_block(block) for block in blocks]
    assert comps == expected
    assert [c.csb for c in comps[-3:]] == [(RED_C8,), (RED_C4,), (RED_RAW,)]
    decoded = red_decompress_blocks(comps)
    assert np.array_equal(decoded, blocks)
    assert np.array_equal(decoded, [palette_oracle.decompress_block("red", c) for c in comps])
    for i in range(0, len(blocks), 5):
        assert red_compress_block(blocks[i]) == comps[i]
        assert np.array_equal(red_decompress_block(comps[i]), decoded[i])


def test_red_frame_cost_matches_blocks(rng):
    blocks = [make_block(k, rng) for k in ("uniform", "palette", "gradient", "ui") for _ in range(4)]
    pixels = np.vstack([np.hstack(blocks[i * 4:(i + 1) * 4]) for i in range(4)])
    frame = Frame(pixels)
    padded, valid = frame.padded()
    bits, classes = red_frame_cost(padded, valid, sub_block_valid_counts(valid),
                                   block_valid_counts(valid))
    for by in range(4):
        for bx in range(4):
            block = padded[by * 8:(by + 1) * 8, bx * 8:(bx + 1) * 8]
            cls, charged = red_classify_block(block)
            assert classes[by, bx] == cls
            assert bits[by, bx] == charged


# ---------------------------------------------------------------------------
# RAS

def test_ras_uniform_midgray_charges_one_quarter():
    # All residuals zero: 64 one-bit codes plus the 3-bit k per channel,
    # 4 x (3 + 64) = 268 bits, charged at the 512-bit class.
    block = np.full((8, 8), 0x80808080, dtype=np.uint32)
    rb = ras_compress_block(block)
    assert rb.payload_bits == 4 * (3 + 64) == 268
    assert rb.cost_bits == 512 and rb.csb[0] == 0
    assert np.array_equal(ras_decompress_block(rb), block)


def test_ras_noise_block_goes_raw(rng):
    for seed in range(5):
        local = np.random.default_rng(seed)
        block = local.integers(0, 1 << 32, size=(8, 8), dtype=np.uint64).astype(np.uint32)
        rb = ras_compress_block(block)
        assert rb.cost_bits == 2048 and rb.csb[0] == 3
        assert np.array_equal(ras_decompress_block(rb), block)


def test_ras_round_trip_every_class(rng):
    seen = set()
    blocks = block_pool(200, seed=3)
    blocks.append(np.full((8, 8), 0x80808080, dtype=np.uint32))   # class 0
    noise = np.random.default_rng(0).integers(0, 1 << 32, size=(8, 8), dtype=np.uint64)
    blocks.append(noise.astype(np.uint32))                        # class 3
    for block in blocks:
        rb = ras_compress_block(block)
        seen.add(rb.csb[0])
        assert np.array_equal(ras_decompress_block(rb), block)
        assert rb.cost_bits >= rb.payload_bits or rb.csb[0] == 3
    assert seen == {0, 1, 2, 3}


def test_ras_charge_never_undercharges(rng):
    for block in block_pool(120, seed=5):
        rb = ras_compress_block(block)
        if rb.csb[0] < 3:
            assert rb.cost_bits >= rb.payload_bits
            assert rb.cost_bits in (512, 1024, 1536)


def test_ras_frame_cost_matches_blocks(rng):
    blocks = block_pool(16, seed=11)
    pixels = np.vstack([np.hstack(blocks[i * 4:(i + 1) * 4]) for i in range(4)])
    frame = Frame(pixels)
    padded, valid = frame.padded()
    charged, classes = ras_frame_cost(padded, valid, sub_block_valid_counts(valid),
                                      block_valid_counts(valid))
    for by in range(4):
        for bx in range(4):
            block = padded[by * 8:(by + 1) * 8, bx * 8:(bx + 1) * 8]
            rb = ras_compress_block(block)
            assert charged[by, bx] == rb.cost_bits
            assert classes[by, bx] == rb.csb[0]


# ---------------------------------------------------------------------------
# Hybrid

def test_hybrid_uniform_palette_block_prefers_vdcp():
    ccd = Ccd(np.arange(100, 116, dtype=np.uint32))
    block = np.full((8, 8), 100, dtype=np.uint32)   # palette index 0
    hb = hybrid_compress_block(block, ccd)
    assert hb.csb[0] < HDCP_RAS_BASE
    assert np.array_equal(hybrid_decompress_block(hb, ccd), block)


def test_hybrid_gradient_block_prefers_ras():
    ccd = Ccd(np.arange(100, 116, dtype=np.uint32))
    block = make_block("gradient", np.random.default_rng(2))
    hb = hybrid_compress_block(block, ccd)
    assert hb.csb[0] >= HDCP_RAS_BASE
    rb = ras_compress_block(block)
    assert hb.csb == (8 + rb.csb[0],) * 16
    assert (hb.payload, hb.cost_bits) == (rb.payload, rb.cost_bits)
    assert np.array_equal(hybrid_decompress_block(hb, ccd), block)


def test_hybrid_cost_is_min_of_both(rng):
    blocks = block_pool(16, seed=17)
    pixels = np.vstack([np.hstack(blocks[i * 4:(i + 1) * 4]) for i in range(4)])
    frame = Frame(pixels)
    padded, valid = frame.padded()
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
    padded, valid = trace.frames[1].padded()
    blocks = block_stack(padded).reshape(-1, 8, 8)
    live = block_valid_counts(valid).reshape(-1) == 64
    return padded, valid, np.concatenate([blocks, _forced_raw_blocks()]), live


def _first_k(comp: CompressedBlock) -> int:
    return comp.payload[0] >> 5


@pytest.mark.parametrize("gen", GENERATORS)
def test_ras_batch_matches_oracle(gen):
    padded, valid, blocks, live = _frame_blocks(gen)
    assert not live.all()                                    # partially live edge blocks
    comps = ras_compress_blocks(blocks)
    expected = [oracle.ras_compress_block(block) for block in blocks]
    assert comps == expected                                 # csb, payload, both bit counts
    raw_channel, raw_block = comps[-2:]
    assert _first_k(raw_channel) == GR_K_RAW and raw_channel.csb[0] < 3
    assert raw_block.csb == (3,) and raw_block.payload_bits == 2048

    decoded = ras_decompress_blocks(comps)
    assert decoded.dtype == np.uint32 and np.array_equal(decoded, blocks)
    assert np.array_equal(decoded, [oracle.ras_decompress_block(c) for c in expected])
    for i in range(0, len(blocks), 5):                       # n=1 equals the block in a batch
        assert ras_compress_block(blocks[i]) == comps[i]
        assert np.array_equal(ras_decompress_block(comps[i]), decoded[i])
    # The container's parse finds every stream's end.
    csb = np.array([c.csb for c in comps])
    assert ras_stream_bits(csb, b"".join(c.payload for c in comps)) == \
        [c.payload_bits for c in comps]

    block_real = block_valid_counts(valid)
    charged, classes = ras_frame_cost(padded, valid, sub_block_valid_counts(valid), block_real)
    for i in np.flatnonzero(live):
        by, bx = divmod(int(i), block_real.shape[1])
        assert classes[by, bx] == expected[i].csb[0]
        assert charged[by, bx] == expected[i].cost_bits


@pytest.mark.parametrize("gen", GENERATORS)
def test_hybrid_batch_matches_oracle(gen):
    _, _, blocks, _ = _frame_blocks(gen, seed=3)
    ccd = ccd_from_blocks(list(blocks), 16)
    comps = hybrid_compress_blocks(blocks, ccd)
    expected = [oracle.hybrid_compress_block(block, ccd) for block in blocks]
    assert comps == expected
    decoded = hybrid_decompress_blocks(comps, ccd)
    assert np.array_equal(decoded, blocks)
    assert np.array_equal(decoded, [oracle.hybrid_decompress_block(c, ccd) for c in expected])
    for i in range(0, len(blocks), 5):
        assert hybrid_compress_block(blocks[i], ccd) == comps[i]
        assert np.array_equal(hybrid_decompress_block(comps[i], ccd), decoded[i])


def test_batch_entries_take_empty_and_chunked_stacks():
    assert ras_compress_blocks(np.empty((0, 8, 8), dtype=np.uint32)) == []
    assert ras_decompress_blocks([]).shape == (0, 8, 8)
    # More blocks than one internal chunk.
    blocks = np.concatenate([_frame_blocks(gen, 96, 88)[2] for gen in GENERATORS])
    assert len(blocks) > 256
    comps = ras_compress_blocks(blocks)
    assert comps[250:262] == [oracle.ras_compress_block(b) for b in blocks[250:262]]
    assert np.array_equal(ras_decompress_blocks(comps), blocks)


def test_ras_decoder_rejects_declared_bits_past_payload():
    comp = ras_compress_block(np.full((8, 8), 0x80808080, dtype=np.uint32))
    with pytest.raises(CorruptStreamError):
        ras_decompress_blocks([CompressedBlock(comp.csb, comp.payload[:-1],
                                               comp.payload_bits, comp.cost_bits)])


# ---------------------------------------------------------------------------
# Corruption parity: damaged streams fail exactly where the oracle fails

def _damaged_streams(comp: CompressedBlock, rng, cuts: int, flips: int):
    """Seeded truncations (to a bit length, the bytes cut to match),
    single- and double-bit flips of one block's stream, and the stream under
    each other RAS size class."""
    ras_class = comp.csb[0] - HDCP_RAS_BASE if len(comp.csb) == 16 else comp.csb[0]
    if ras_class >= 0:
        base = HDCP_RAS_BASE if len(comp.csb) == 16 else 0
        for other in {0, 1, 2, 3} - {ras_class}:
            yield CompressedBlock((base + other,) * len(comp.csb), comp.payload,
                                  comp.payload_bits, comp.cost_bits)
    for nbits in rng.integers(0, comp.payload_bits, size=cuts).tolist():
        yield CompressedBlock(comp.csb, comp.payload[:(nbits + 7) // 8], nbits, comp.cost_bits)
    for _ in range(flips):
        blob = bytearray(comp.payload)
        for bit in rng.integers(0, comp.payload_bits, size=int(rng.integers(1, 3))).tolist():
            blob[bit // 8] ^= 0x80 >> (bit % 8)
        yield CompressedBlock(comp.csb, bytes(blob), comp.payload_bits, comp.cost_bits)


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
    rng = np.random.default_rng(99)
    blocks = np.concatenate([_frame_blocks(gen, 24, 16, seed=5)[2] for gen in GENERATORS])
    ccd = ccd_from_blocks(list(blocks), 16)
    if codec == "ras":
        comps = ras_compress_blocks(blocks)
        decode_one = oracle.ras_decompress_block
        decode_batch = ras_decompress_blocks
    else:
        comps = hybrid_compress_blocks(blocks, ccd)
        decode_one = oracle.hybrid_decompress_block
        decode_batch = hybrid_decompress_blocks
    damaged = [d for comp in comps for d in _damaged_streams(comp, rng, cuts=6, flips=12)]
    outcomes = {"raise": 0, "decode": 0}
    expected = []
    for comp in damaged:
        want = _outcome(decode_one, comp, ccd)
        expected.append(want)
        outcomes["raise" if want is CorruptStreamError else "decode"] += 1
        assert _same(_outcome(lambda c: decode_batch([c], ccd)[0], comp), want)
    assert min(outcomes.values()) > 20, outcomes
    # A batch fails when any of its streams does, and is the oracle's otherwise.
    for lo in range(0, len(damaged), 7):
        want = expected[lo:lo + 7]
        got = _outcome(decode_batch, damaged[lo:lo + 7], ccd)
        if any(w is CorruptStreamError for w in want):
            assert got is CorruptStreamError
        else:
            assert np.array_equal(got, want)
