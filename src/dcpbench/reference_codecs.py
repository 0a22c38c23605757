"""Comparison codecs: RED uniform-region check, RAS neighbor prediction with
Golomb-Rice residual coding, and the per-block VDCP/RAS hybrid.

Both reference codecs are block self-contained: no pixel outside the 8x8
block is ever consulted, preserving random block access. RAS predicts each
channel sample with the median edge detector, using the constant 128 where
the left / above / above-left neighbor falls outside the block.

This module owns the RAS, RED and HDCP block formats. Their compressors
return the same `CompressedBlock` as the palette codecs, with one status
entry per block for RAS (its size class) and RED (its class) and 16 for
HDCP; `READERS` decodes each in place from a `BitReader`, and
`dcp_codecs.read_block` is the one entry point to them.
"""

from __future__ import annotations

import numpy as np

from .bandwidth import charged_bursts
from .bitio import BitReader, BitWriter, CorruptStreamError
from .dcp_codecs import (
    VDCP_RAW,
    CompressedBlock,
    read_block,
    vdcp_compress_block,
    vdcp_frame_cost,
)
from .palette import Ccd, Rccd

GR_K_MAX = 6
GR_K_RAW = 7                   # "special mode": channel stored raw
RAW_CHANNEL_BITS = 512         # 64 samples x 8 bits
RAW_BLOCK_BITS = 2048
_CHANNEL_SHIFTS = (0, 8, 16, 24)      # R, G, B, A


# ---------------------------------------------------------------------------
# Golomb-Rice primitives

def zigzag(value: int) -> int:
    return 2 * value if value >= 0 else -2 * value - 1


def unzigzag(z: int) -> int:
    return z // 2 if z % 2 == 0 else -(z + 1) // 2


def golomb_rice_length(value: int, k: int) -> int:
    return (value >> k) + 1 + k


def golomb_rice_encode(writer: BitWriter, value: int, k: int) -> None:
    """Quotient in unary (q ones, then a zero), remainder in k bits."""
    if value < 0:
        raise ValueError("Golomb-Rice encodes non-negative integers")
    writer.write_unary(value >> k)
    if k:
        writer.write(value & ((1 << k) - 1), k)


def golomb_rice_decode(reader: BitReader, k: int, cap: int = 4096) -> int:
    q = reader.read_unary(cap)
    r = reader.read(k) if k else 0
    return (q << k) | r


def _read_pixels(reader: BitReader, count: int) -> np.ndarray:
    """`count` raw 32-bit pixels, read as one field."""
    data = reader.read(32 * count).to_bytes(4 * count, "big")
    return np.frombuffer(data, dtype=">u4").astype(np.uint32)


# ---------------------------------------------------------------------------
# Median edge detector

def med_predict(a: int, b: int, c: int) -> int:
    """Predict from left (a), above (b), above-left (c)."""
    if c >= max(a, b):
        return min(a, b)
    if c <= min(a, b):
        return max(a, b)
    return a + b - c


def med_residuals(plane: np.ndarray) -> np.ndarray:
    """Zigzag-mapped MED residuals of an 8-bit plane, vectorized.

    The plane height/width must be multiples of 8; neighbors are taken
    block-locally, with 128 substituted on block borders. Works for a
    single 8x8 block and for a whole padded frame alike.
    """
    p = plane.astype(np.int64)
    a = np.empty_like(p)
    a[:, 1:] = p[:, :-1]
    a[:, 0::8] = 128
    b = np.empty_like(p)
    b[1:, :] = p[:-1, :]
    b[0::8, :] = 128
    c = np.empty_like(p)
    c[1:, 1:] = p[:-1, :-1]
    c[0::8, :] = 128
    c[:, 0::8] = 128
    mx = np.maximum(a, b)
    mn = np.minimum(a, b)
    pred = np.where(c >= mx, mn, np.where(c <= mn, mx, a + b - c))
    res = p - pred
    return np.where(res >= 0, 2 * res, -2 * res - 1)


# ---------------------------------------------------------------------------
# RED: uniform-region classification

RED_C8, RED_C4, RED_RAW = 0, 1, 2
# 8 region colors, 16 sub-block colors, or 64 raw pixels, 32 bits each.
RED_CHARGED_BITS = {RED_C8: 256, RED_C4: 512, RED_RAW: 2048}


def _red_regions8(block: np.ndarray) -> np.ndarray:
    # Eight 4-wide x 2-tall regions: (region_row, row, region_col, col).
    return block.reshape(4, 2, 2, 4)


def _red_regions4(block: np.ndarray) -> np.ndarray:
    return block.reshape(4, 2, 4, 2)


def red_classify_block(block: np.ndarray) -> tuple[int, int]:
    """(class, charged bits). C8 compresses 1:8, C4 1:4, else raw."""
    r8 = _red_regions8(block)
    if bool((r8 == r8[:, :1, :, :1]).all()):
        return RED_C8, RED_CHARGED_BITS[RED_C8]
    r4 = _red_regions4(block)
    if bool((r4 == r4[:, :1, :, :1]).all()):
        return RED_C4, RED_CHARGED_BITS[RED_C4]
    return RED_RAW, RED_CHARGED_BITS[RED_RAW]


def red_compress_block(block: np.ndarray, palette=None) -> CompressedBlock:
    """The class's region colors as 32-bit words; `palette` is unused."""
    cls, bits = red_classify_block(block)
    if cls == RED_C8:
        colors = _red_regions8(block)[:, 0, :, 0]
    elif cls == RED_C4:
        colors = _red_regions4(block)[:, 0, :, 0]
    else:
        colors = block
    return CompressedBlock((cls,), colors.astype(">u4").tobytes(), bits, bits)


def red_decompress_block(comp: CompressedBlock, palette=None) -> np.ndarray:
    return read_block("red", BitReader(comp.payload, comp.payload_bits), comp.csb)


def _read_red(reader: BitReader, csb, palette=None) -> np.ndarray:
    bits = RED_CHARGED_BITS.get(csb[0])
    if bits is None:
        raise CorruptStreamError(f"RED status {csb[0]} is not a class")
    colors = _read_pixels(reader, bits // 32)
    if csb[0] == RED_C8:
        return np.repeat(np.repeat(colors.reshape(4, 2), 2, axis=0), 4, axis=1)
    if csb[0] == RED_C4:
        return np.repeat(np.repeat(colors.reshape(4, 4), 2, axis=0), 2, axis=1)
    return colors.reshape(8, 8)


def red_frame_cost(padded: np.ndarray, valid: np.ndarray, sb_real: np.ndarray,
                   block_real: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(accounting bits per block, class per block)."""
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
    bits = np.where(c8_ok, 32 * real_r8,
                    np.where(c4_ok, 32 * real_r4, 32 * block_real))
    classes = np.where(c8_ok, RED_C8, np.where(c4_ok, RED_C4, RED_RAW))
    return bits, classes


# ---------------------------------------------------------------------------
# RAS: MED prediction + Golomb-Rice, quantized to four block sizes
#
# The status entry is the size class, 0..3 for 512/1024/1536/2048 charged
# bits; class 3 stores the 64 pixels raw.

RAS_RAW_CLASS = 3


def _quantize_512(bits: int | np.ndarray):
    return ((bits + 511) // 512) * 512


def _choose_k(zz: np.ndarray) -> tuple[int, int]:
    """Smallest k in 0..6 minimizing the channel's encoded bits."""
    best_k, best_bits = 0, None
    for k in range(GR_K_MAX + 1):
        bits = int((zz >> k).sum()) + zz.size * (1 + k)
        if best_bits is None or bits < best_bits:
            best_k, best_bits = k, bits
    return best_k, best_bits


def ras_compress_block(block: np.ndarray, palette=None) -> CompressedBlock:
    """Encode one block: per channel a 3-bit k then the sample stream.

    A channel whose best Golomb-Rice size exceeds its raw size (512 bits)
    stores raw samples under k=7. A block whose channel total exceeds 1536
    bits is stored as 64 raw pixels and charged the full 2048. `palette` is
    unused.
    """
    planes = [((block >> s) & np.uint32(0xFF)).astype(np.int64) for s in _CHANNEL_SHIFTS]
    choices = []
    total = 0
    for plane in planes:
        zz = med_residuals(plane).reshape(-1)
        k, gr_bits = _choose_k(zz)
        if gr_bits > RAW_CHANNEL_BITS:
            choices.append((GR_K_RAW, plane.reshape(-1)))
            total += 3 + RAW_CHANNEL_BITS
        else:
            choices.append((k, zz))
            total += 3 + gr_bits
    if total > 1536:
        w = BitWriter()
        for p in block.reshape(-1).tolist():
            w.write(p, 32)
        return CompressedBlock((RAS_RAW_CLASS,), w.to_bytes(), w.bit_length, RAW_BLOCK_BITS)
    w = BitWriter()
    for k, samples in choices:
        w.write(k, 3)
        if k == GR_K_RAW:
            for v in samples.tolist():
                w.write(v, 8)
        else:
            for z in samples.tolist():
                golomb_rice_encode(w, z, k)
    charged = int(_quantize_512(total))
    return CompressedBlock((charged // 512 - 1,), w.to_bytes(), w.bit_length, charged)


def ras_decompress_block(comp: CompressedBlock, palette=None) -> np.ndarray:
    return read_block("ras", BitReader(comp.payload, comp.payload_bits), comp.csb)


def _read_ras(r: BitReader, csb, palette=None) -> np.ndarray:
    size_class = csb[0]
    if size_class == RAS_RAW_CLASS:
        return _read_pixels(r, 64).reshape(8, 8)
    start = r.tell()
    planes = []
    for _ in range(4):
        k = r.read(3)
        if k == GR_K_RAW:
            vals = [[r.read(8) for _ in range(8)] for _ in range(8)]
            planes.append(vals)
            continue
        if k > GR_K_MAX:
            raise CorruptStreamError(f"invalid Golomb-Rice parameter {k}")
        vals = [[0] * 8 for _ in range(8)]
        for y in range(8):
            for x in range(8):
                res = unzigzag(golomb_rice_decode(r, k))
                a = vals[y][x - 1] if x else 128
                b = vals[y - 1][x] if y else 128
                c = vals[y - 1][x - 1] if x and y else 128
                vals[y][x] = res + med_predict(a, b, c)
        planes.append(vals)
    # The stream is exactly the bits its size class was charged for, less
    # under 512; anything else means the status or the stream is corrupt.
    if not size_class * 512 < r.tell() - start <= (size_class + 1) * 512:
        raise CorruptStreamError(
            f"RAS stream of {r.tell() - start} bits does not fit size class {size_class}")
    samples = np.array(planes, dtype=np.int64)
    if samples.min() < 0 or samples.max() > 255:
        raise CorruptStreamError("RAS sample outside 0..255")
    shifts = np.array(_CHANNEL_SHIFTS, dtype=np.int64).reshape(4, 1, 1)
    return (samples << shifts).sum(axis=0).astype(np.uint32)


def _block_sum(values: np.ndarray) -> np.ndarray:
    h, w = values.shape
    return values.reshape(h // 8, 8, w // 8, 8).sum(axis=(1, 3), dtype=np.int64)


def ras_frame_cost(padded: np.ndarray, block_real: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(charged bits, true stream bits, size class) per block, vectorized.

    Matches ras_compress_block exactly on fully live blocks. Edge blocks
    cap their charge at the burst-rounded raw size of their live pixels so
    padding never inflates the accounting.
    """
    h, w = padded.shape
    nby, nbx = h // 8, w // 8
    total = np.zeros((nby, nbx), dtype=np.int64)
    for shift in _CHANNEL_SHIFTS:
        plane = (padded >> np.uint32(shift)) & np.uint32(0xFF)
        zz = med_residuals(plane)
        per_k = np.stack([_block_sum(zz >> k) + 64 * (1 + k) for k in range(GR_K_MAX + 1)])
        gr_best = per_k.min(axis=0)
        total += 3 + np.minimum(gr_best, RAW_CHANNEL_BITS)
    raw = total > 1536
    true_bits = np.where(raw, RAW_BLOCK_BITS, total)
    charged = np.where(raw, RAW_BLOCK_BITS, _quantize_512(total))
    classes = charged // 512 - 1
    raw_cap = ((32 * block_real + 127) // 128) * 128
    charged = np.minimum(charged, raw_cap)
    return charged, true_bits, classes


# ---------------------------------------------------------------------------
# HDCP: per-block best of VDCP and RAS

HDCP_RAS_BASE = 8              # 5-bit status values 8..11 carry the RAS class


def hybrid_compress_block(block: np.ndarray, ccd: Ccd | None) -> CompressedBlock:
    """Compress with both codecs, keep the one needing fewer bursts.

    Ties go to VDCP. The RAS outcome replicates its size class into all 16
    status slots (values 8..11); VDCP outcomes reuse its 0..7 codes.
    """
    vb = vdcp_compress_block(block, ccd)
    rb = ras_compress_block(block)
    if charged_bursts(vb.cost_bits) <= charged_bursts(rb.cost_bits):
        return vb
    return CompressedBlock((HDCP_RAS_BASE + rb.csb[0],) * 16, rb.payload,
                           rb.payload_bits, rb.cost_bits)


def hybrid_decompress_block(comp: CompressedBlock, palette: Rccd | None = None) -> np.ndarray:
    return read_block("hybrid", BitReader(comp.payload, comp.payload_bits), comp.csb, palette)


def _read_hybrid(reader: BitReader, csb, rccd: Rccd | None) -> np.ndarray:
    if max(csb) <= VDCP_RAW:
        return read_block("vdcp", reader, csb, rccd)
    size_class = csb[0] - HDCP_RAS_BASE
    if not 0 <= size_class <= RAS_RAW_CLASS or any(e != csb[0] for e in csb):
        raise CorruptStreamError(f"HDCP status {list(csb)} is neither VDCP codes nor a RAS class")
    return _read_ras(reader, (size_class,))


# Block format -> in-place reader(reader, status entries, palette); reached
# through dcp_codecs.read_block.
READERS = {"ras": _read_ras, "red": _read_red, "hybrid": _read_hybrid}


def hybrid_frame_cost(padded: np.ndarray, sb_real: np.ndarray, block_real: np.ndarray,
                      ccd: Ccd | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(accounting bits, charged bursts, vdcp-won mask) per block."""
    vbits = vdcp_frame_cost(padded, sb_real, ccd)
    v_bursts = charged_bursts(vbits, 32 * block_real)
    r_charged, _, _ = ras_frame_cost(padded, block_real)
    r_bursts = charged_bursts(r_charged, 32 * block_real)
    vdcp_wins = v_bursts <= r_bursts
    bits = np.where(vdcp_wins, vbits, r_charged)
    bursts = np.where(vdcp_wins, v_bursts, r_bursts)
    return bits, bursts, vdcp_wins
