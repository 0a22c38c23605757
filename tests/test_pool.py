"""`surface.pool` and every frame-cost engine against the reshape-reduce
formulation they replaced, which lives on here as the oracle.

The oracle engines are the engines as they were before `pool`: every tile
reduced by `reshape(..., h // f, f, w // f, f).<reduce>(axis=(1, 3))`, the
MED clip as one `np.clip`, and the Golomb-Rice block sums as two reshaped
sums. Frames are not block multiples, so edge blocks with padded pixels
reach every engine, and the engines run in bands of block rows as the
runner runs them.
"""

import numpy as np
import pytest

from conftest import make_block, rand_palette

from dcpbench import dcp_codecs, reference_codecs
from dcpbench.bandwidth import charged_bursts
from dcpbench.huffman import build_table
from dcpbench.palette import Ccd
from dcpbench.schemes import CCD, HUFFMAN, SCHEMES, resolve
from dcpbench.surface import Frame, block_valid_counts, pool, sub_block_valid_counts
from dcpbench.synth import GENERATORS, SyntheticSpec, generate

# ---------------------------------------------------------------------------
# The oracle: the reshape-reduce engines


def _tiles(x, fy, fx):
    *lead, h, w = x.shape
    return x.reshape(*lead, h // fy, fy, w // fx, fx)


def _tile_axes(x):
    return (x.ndim - 3, x.ndim - 1)


_REDUCE = {
    np.logical_and: lambda t: t.all(axis=_tile_axes(t)),
    np.logical_or: lambda t: t.any(axis=_tile_axes(t)),
    np.add: lambda t: t.sum(axis=_tile_axes(t), dtype=np.int64),
    np.maximum: lambda t: t.max(axis=_tile_axes(t)),
}


def oracle_pool(x, op, fy, fx):
    return _REDUCE[op](_tiles(x, fy, fx))


def oracle_sub_block_all(mask):
    return oracle_pool(mask, np.logical_and, 2, 2)


def oracle_sub_block_sum(values):
    return oracle_pool(values, np.add, 2, 2)


def oracle_block_sum(sb_values):
    return oracle_pool(sb_values, np.add, 4, 4)


def oracle_valid_counts(valid):
    return oracle_pool(valid, np.add, 2, 2), oracle_pool(valid, np.add, 8, 8)


def oracle_dcp(padded, sb_real, ccd):
    if ccd is None or len(ccd) == 0:
        return oracle_block_sum(32 * sb_real)
    _, hit = ccd.lookup(padded)
    compressible = oracle_sub_block_all(hit)
    return oracle_block_sum(np.where(compressible, ccd.bits_per_code * sb_real, 32 * sb_real))


def oracle_vdcp(padded, sb_real, ccd):
    if ccd is None or len(ccd) == 0:
        return oracle_block_sum(32 * sb_real)
    codes, hit = ccd.lookup(padded)
    compressible = oracle_sub_block_all(hit)
    m = oracle_pool(codes, np.maximum, 2, 2)
    v = dcp_codecs._VDCP_WIDTH[np.clip(m, 0, dcp_codecs.VDCP_MAX_CCD - 1)]
    return oracle_block_sum(np.where(compressible, v * sb_real, 32 * sb_real))


def oracle_huffdcp(padded, valid, sb_real, table):
    if table is None or len(table) == 0:
        return oracle_block_sum(32 * sb_real)
    entries, hit = table.lookup(padded)
    compressible = oracle_sub_block_all(hit)
    code_bits = oracle_sub_block_sum(np.where(valid & hit, table.lengths[entries], 0))
    return oracle_block_sum(np.where(compressible, code_bits, 32 * sb_real))


def oracle_red(padded, valid, sb_real, block_real):
    h, w = padded.shape
    nby, nbx = h // 8, w // 8
    r8 = padded.reshape(h // 2, 2, w // 4, 4)
    u8 = (r8 == r8[:, :1, :, :1]).all(axis=(1, 3))
    c8_ok = u8.reshape(nby, 4, nbx, 2).all(axis=(1, 3))
    r4 = padded.reshape(h // 2, 2, w // 2, 2)
    u4 = (r4 == r4[:, :1, :, :1]).all(axis=(1, 3))
    c4_ok = u4.reshape(nby, 4, nbx, 4).all(axis=(1, 3))
    live8 = valid.reshape(h // 2, 2, w // 4, 4).any(axis=(1, 3))
    real_r8 = live8.reshape(nby, 4, nbx, 2).sum(axis=(1, 3), dtype=np.int64)
    real_r4 = (sb_real > 0).reshape(nby, 4, nbx, 4).sum(axis=(1, 3), dtype=np.int64)
    bits = np.where(c8_ok, 32 * real_r8, np.where(c4_ok, 32 * real_r4, 32 * block_real))
    classes = np.where(c8_ok, reference_codecs.RED_C8,
                       np.where(c4_ok, reference_codecs.RED_C4, reference_codecs.RED_RAW))
    return bits, classes


def oracle_red_classes(blocks):
    r8 = blocks.reshape(-1, 4, 2, 2, 4)
    c8 = (r8 == r8[:, :, :1, :, :1]).all(axis=(1, 2, 3, 4))
    r4 = blocks.reshape(-1, 4, 2, 4, 2)
    c4 = (r4 == r4[:, :, :1, :, :1]).all(axis=(1, 2, 3, 4))
    return np.where(c8, reference_codecs.RED_C8,
                    np.where(c4, reference_codecs.RED_C4, reference_codecs.RED_RAW))


def oracle_med_zigzag(x):
    a = np.empty_like(x)
    a[..., 1:] = x[..., :-1]
    a[..., ::8] = 128
    b = np.empty_like(x)
    b[..., 1:, :] = x[..., :-1, :]
    b[..., ::8, :] = 128
    c = np.empty_like(b)
    c[..., 1:] = b[..., :-1]
    c[..., ::8] = 128
    pred = np.clip(a + b - c, np.minimum(a, b), np.maximum(a, b))
    r = x - pred
    return ((r << 1) ^ (r >> 15)).view(np.uint16)


def oracle_gr_bits(zz):
    return np.stack([oracle_pool(zz >> k, np.add, 8, 8) + 64 * (1 + k)
                     for k in range(reference_codecs.GR_K_MAX + 1)])


def oracle_ras(padded, block_real):
    zz = oracle_med_zigzag(reference_codecs._channels(padded))
    gr = oracle_gr_bits(zz).min(axis=0)
    total = 12 + np.minimum(gr, reference_codecs.RAW_CHANNEL_BITS).sum(axis=0)
    raw = total > 1536
    charged = np.where(raw, reference_codecs.RAW_BLOCK_BITS, ((total + 511) // 512) * 512)
    classes = charged // 512 - 1
    return np.minimum(charged, ((32 * block_real + 127) // 128) * 128), classes


def oracle_hybrid(padded, sb_real, block_real, ccd):
    vbits = oracle_vdcp(padded, sb_real, ccd)
    v_bursts = charged_bursts(vbits, 32 * block_real)
    r_charged = oracle_ras(padded, block_real)[0]
    r_bursts = charged_bursts(r_charged, 32 * block_real)
    wins = v_bursts <= r_bursts
    return np.where(wins, vbits, r_charged), wins


# ---------------------------------------------------------------------------
# The pooling kernel

OPS = [np.logical_and, np.logical_or, np.add, np.maximum]
TILES = [(1, 2), (2, 1), (2, 2), (4, 2), (4, 4), (8, 8), (1, 8)]


def _operand(op, rng, shape):
    if op in (np.logical_and, np.logical_or):
        return rng.random(shape) < 0.8 if op is np.logical_and else rng.random(shape) < 0.05
    return rng.integers(-1, 64, size=shape)


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.__name__)
@pytest.mark.parametrize("shape", [(64, 48), (48, 104), (5, 8, 8)], ids=str)
@pytest.mark.parametrize("fy,fx", TILES)
def test_pool_matches_reshape_reduce(op, shape, fy, fx):
    rng = np.random.default_rng(11)
    x = _operand(op, rng, shape)
    got = pool(x, op, fy, fx)
    want = oracle_pool(x, op, fy, fx)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("fy,fx", [(2, 2), (8, 8), (4, 2)])
def test_pool_narrow_dtype_counts(fy, fx):
    rng = np.random.default_rng(3)
    valid = rng.random((40, 64)) < 0.7
    got = pool(valid, np.add, fy, fx, dtype=np.int8)
    assert got.dtype == np.int8
    np.testing.assert_array_equal(got, oracle_pool(valid, np.add, fy, fx))


# ---------------------------------------------------------------------------
# The engines, on non-aligned frames and in bands

SIZES = [(100, 60), (61, 45)]
BANDS = [1, 3, None]            # block rows per band; None is the whole frame


def _frames(generator, width, height):
    trace = generate(SyntheticSpec(generator=generator, width=width, height=height,
                                   frames=2, seed=17))
    return trace.frames[0], trace.frames[1]


def _top_colors(frame, n):
    colors, counts = np.unique(frame.pixels, return_counts=True)
    order = np.lexsort((colors, -counts))[:n]
    return [(int(colors[i]), int(counts[i])) for i in order]


def _banded(engine, rows, palette, padded, valid, sb_real, block_real):
    """An engine over bands of `rows` block rows, each output concatenated."""
    nby = block_real.shape[0]
    rows = rows or nby
    parts = [engine(padded[lo * 8:(lo + rows) * 8], valid[lo * 8:(lo + rows) * 8],
                    sb_real[lo * 4:(lo + rows) * 4], block_real[lo:lo + rows], palette)
             for lo in range(0, nby, rows)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def _assert_same(got, want):
    got = got if isinstance(got, tuple) else (got,)
    want = want if isinstance(want, tuple) else (want,)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("width,height", SIZES)
def test_valid_counts_match_oracle(generator, width, height):
    _, frame = _frames(generator, width, height)
    _, valid = frame.padded()
    sb_want, block_want = oracle_valid_counts(valid)
    np.testing.assert_array_equal(sub_block_valid_counts(valid), sb_want)
    block_real = block_valid_counts(valid)
    assert block_real.dtype == np.int64
    np.testing.assert_array_equal(block_real, block_want)
    assert int(block_real.sum()) == width * height


@pytest.mark.parametrize("rows", BANDS, ids=lambda r: f"band{r or 'all'}")
@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("width,height", SIZES)
def test_engines_match_oracle(generator, width, height, rows):
    warm, frame = _frames(generator, width, height)
    padded, valid = frame.padded()
    sb_real = sub_block_valid_counts(valid)
    block_real = block_valid_counts(valid)
    sb_old, block_old = oracle_valid_counts(valid)
    ranked = _top_colors(warm, 64)
    palettes = {
        CCD: [None, Ccd([]), Ccd([c for c, _ in ranked[:1]]), Ccd([c for c, _ in ranked[:16]]),
              Ccd([c for c, _ in ranked])],
        HUFFMAN: [None, build_table(ranked[:1]), build_table(ranked)],
        None: [None],
    }
    oracles = {
        "dcp": lambda ccd: oracle_dcp(padded, sb_old, ccd),
        "vdcp": lambda ccd: oracle_vdcp(padded, sb_old, ccd),
        "hybrid": lambda ccd: oracle_hybrid(padded, sb_old, block_old, ccd),
        "huffdcp": lambda table: oracle_huffdcp(padded, valid, sb_old, table),
        "ras": lambda _: oracle_ras(padded, block_old),
        "red": lambda _: oracle_red(padded, valid, sb_old, block_old),
    }
    # One scheme per family (ADCP shares DCP's engine), reached as the
    # runner reaches it.
    for scheme in {s.codec: s for s in SCHEMES.values()}.values():
        engine = resolve(scheme.codec, "frame_cost")
        for palette in palettes[scheme.palette]:
            _assert_same(_banded(engine, rows, palette, padded, valid, sb_real, block_real),
                         oracles[scheme.codec](palette))


def test_red_edge_blocks_charge_live_regions_only():
    # A uniform 58x45 frame: every block is C8, and an edge block charges
    # only its 2x4 regions that hold a live pixel. Block column 7 has two
    # live columns (one region column), block row 5 five live rows (three
    # region rows).
    frame = Frame(np.full((45, 58), 0xFF336699, dtype=np.uint32))
    padded, valid = frame.padded()
    bits, classes = reference_codecs.red_frame_cost(
        padded, valid, sub_block_valid_counts(valid), block_valid_counts(valid))
    want_bits, want_classes = oracle_red(padded, valid, *oracle_valid_counts(valid))
    np.testing.assert_array_equal(bits, want_bits)
    np.testing.assert_array_equal(classes, want_classes)
    assert (classes == reference_codecs.RED_C8).all()
    assert [bits[0, 0], bits[0, 7], bits[5, 0], bits[5, 7]] == [256, 128, 192, 96]


def _red_stack(rng):
    """Blocks of each RED class, and blocks one pixel off a class."""
    palette = rand_palette(rng, 8)
    blocks = [make_block(kind, rng, palette) for kind in ("uniform", "palette", "random")]
    cells = palette[rng.integers(0, 8, size=(4, 4))]
    c4 = np.repeat(np.repeat(cells, 2, axis=0), 2, axis=1)
    c8 = np.repeat(np.repeat(cells[:, :2], 2, axis=0), 4, axis=1)
    blocks += [c4, c8]
    for y, x in [(0, 0), (1, 1), (7, 7), (3, 4), (6, 1)]:
        for base in (c4, c8, blocks[0]):
            off = base.copy()
            off[y, x] ^= 1
            blocks.append(off)
    return np.stack(blocks).astype(np.uint32)


def test_red_classes_match_oracle_on_stacks():
    rng = np.random.default_rng(23)
    blocks = _red_stack(rng)
    got = reference_codecs._red_classes(blocks)
    np.testing.assert_array_equal(got, oracle_red_classes(blocks))
    assert set(got.tolist()) == {reference_codecs.RED_C8, reference_codecs.RED_C4,
                                 reference_codecs.RED_RAW}
    np.testing.assert_array_equal(reference_codecs._red_classes(blocks.reshape(-1, 64)), got)


@pytest.mark.parametrize("generator", GENERATORS)
def test_ras_kernels_match_oracle_on_stacks(generator):
    _, frame = _frames(generator, 61, 45)
    padded, _ = frame.padded()
    blocks = padded.reshape(6, 8, 8, 8).swapaxes(1, 2).reshape(-1, 8, 8)
    for x in (reference_codecs._channels(blocks), reference_codecs._channels(padded)):
        zz = reference_codecs.med_zigzag(x)
        np.testing.assert_array_equal(zz, oracle_med_zigzag(x))
        np.testing.assert_array_equal(reference_codecs._gr_bits(zz), oracle_gr_bits(zz))
