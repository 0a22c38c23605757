import numpy as np
import pytest

from conftest import block_pool, ccd_from_blocks, make_block

from dcpbench.bitio import BitReader, BitWriter, CorruptStreamError
from dcpbench.reference_codecs import (
    HDCP_RAS_BASE,
    RED_C4,
    RED_C8,
    RED_RAW,
    golomb_rice_decode,
    golomb_rice_encode,
    golomb_rice_length,
    hybrid_compress_block,
    hybrid_decompress_block,
    hybrid_frame_cost,
    med_predict,
    med_residuals,
    ras_compress_block,
    ras_decompress_block,
    ras_frame_cost,
    red_classify_block,
    red_compress_block,
    red_decompress_block,
    red_frame_cost,
    unzigzag,
    zigzag,
)
from dcpbench.dcp_codecs import vdcp_frame_cost
from dcpbench.palette import Ccd
from dcpbench.surface import Frame, block_valid_counts, sub_block_valid_counts


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
    plane = rng.integers(0, 256, size=(16, 16)).astype(np.uint32)
    zz = med_residuals(plane)
    p = plane.astype(int)
    for y in range(16):
        for x in range(16):
            a = p[y][x - 1] if x % 8 else 128
            b = p[y - 1][x] if y % 8 else 128
            c = p[y - 1][x - 1] if (x % 8 and y % 8) else 128
            assert zz[y, x] == zigzag(p[y][x] - med_predict(a, b, c))


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
    charged, true_bits, classes = ras_frame_cost(padded, block_valid_counts(valid))
    for by in range(4):
        for bx in range(4):
            block = padded[by * 8:(by + 1) * 8, bx * 8:(bx + 1) * 8]
            rb = ras_compress_block(block)
            assert charged[by, bx] == rb.cost_bits
            assert classes[by, bx] == rb.csb[0]
            if rb.csb[0] < 3:
                assert true_bits[by, bx] == rb.payload_bits


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
    bits, bursts, wins = hybrid_frame_cost(padded, sb_real, block_real, ccd)
    vbits = vdcp_frame_cost(padded, sb_real, ccd)
    vbursts = np.minimum((vbits + 127) // 128, (32 * block_real + 127) // 128)
    rcharged, _, _ = ras_frame_cost(padded, block_real)
    rbursts = (rcharged + 127) // 128
    assert np.array_equal(bursts, np.minimum(vbursts, rbursts))
    assert np.array_equal(wins, vbursts <= rbursts)
